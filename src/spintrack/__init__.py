"""spintrack: sequential weak measurement of a precessing spin, end to end.

A sensor qubit repeatedly and weakly measures a precessing spin-1/2;
the package samples readout outcomes and photon counts from the Bloch
recurrence of one measurement cycle, calibrates the photon levels and
the measurement strength back out of the record, reconstructs the spin
correlation function and applies the Leggett-Garg bound to it.  The
exact 4x4 dynamics the recurrence reduces are a test oracle, outside
the package.

Each public name is imported from its module (`spintrack.calibrate`,
`spintrack.cli`, ...); the package root defines none but `__version__`.
"""

__version__ = "0.1.0"
