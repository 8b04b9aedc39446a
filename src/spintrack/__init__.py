"""spintrack: sequential weak measurement of a precessing spin, end to end.

A sensor qubit repeatedly and weakly measures a precessing spin-1/2;
the package simulates the composite dynamics (closed-form propagator
plus an exact oracle), reduces them to the Bloch recurrence, samples
readout outcomes and photon counts, calibrates the photon levels and
the measurement strength back out of the record, reconstructs the spin
correlation function and applies the Leggett-Garg bound to it.

Each public name is imported from its module (`spintrack.calibrate`,
`spintrack.cli`, ...); the package root defines none but `__version__`.
"""

__version__ = "0.1.0"
