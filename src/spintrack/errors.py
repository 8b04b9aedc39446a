"""Exception types shared across the package.

Each class carries the process exit code `spintrack.cli` returns for it
as `exit_code`: 2 for a configuration or argument problem, 3 for a fit
failure (including noise amplification) and 4 for degenerate data (no
usable contrast).
"""

__all__ = ["SpintrackError", "InvalidArgumentError", "DegenerateContrastError",
           "FitFailureError", "AmplificationError"]


class SpintrackError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidArgumentError(SpintrackError, ValueError):
    """An argument is outside its documented domain (bad Bloch norm, shape, ...)."""


class DegenerateContrastError(SpintrackError):
    """Bright and dark photon levels are too close to normalise correlations."""

    exit_code = 4


class FitFailureError(SpintrackError):
    """A least-squares fit did not converge or returned unusable parameters."""

    exit_code = 3


class AmplificationError(SpintrackError):
    """Undoing the measurement-induced decay would amplify noise beyond the allowed gain."""

    exit_code = 3
