"""spintrack: sequential weak measurement of a precessing spin, end to end.

A sensor qubit repeatedly and weakly measures a precessing spin-1/2;
the package simulates the composite dynamics (closed-form propagator
plus an exact oracle), reduces them to the Bloch recurrence, samples
readout outcomes and photon counts, calibrates the photon levels and
the measurement strength back out of the record, reconstructs the spin
correlation function and applies the Leggett-Garg bound to it.

Every name in the `__all__` of a library module is a package name too.
"""

from .calibrate import *
from .composite import *
from .correlation import *
from .engine import *
from .errors import *
from .lg import *
from .protocol import *
from .readout import *

__version__ = "0.1.0"
