"""Exception types shared across the package.

The CLI maps these onto process exit codes (see `spintrack.cli`):
configuration / argument problems exit with 2, fit failures with 3 and
degenerate data (no usable contrast) with 4.
"""

__all__ = ["SpintrackError", "InvalidArgumentError", "UnsupportedStateError",
           "AmbiguousRegimeError", "DegenerateContrastError", "FitFailureError",
           "AmplificationError"]


class SpintrackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SpintrackError, ValueError):
    """An argument is outside its documented domain (bad Bloch norm, shape, ...)."""


class UnsupportedStateError(SpintrackError):
    """The requested operation has no closed form for this operator/state pair."""


class AmbiguousRegimeError(SpintrackError):
    """Neither parameter regime dominates clearly enough to pick a formula branch."""


class DegenerateContrastError(SpintrackError):
    """Bright and dark photon levels are too close to normalise correlations."""


class FitFailureError(SpintrackError):
    """A least-squares fit did not converge or returned unusable parameters."""


class AmplificationError(SpintrackError):
    """Undoing the measurement-induced decay would amplify noise beyond the allowed gain."""
