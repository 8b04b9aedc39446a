"""The Leggett-Garg functional of a reconstructed correlation series.

The temporal test works on a lag-indexed correlation series C(N):

    LG(tau) = 2 C(tau) - C(2 tau)

is bounded by 1 for any macrorealistic (classical, non-invasively
measurable) process, while a coherently precessing spin, C(N) =
A cos(phi N), reaches 1.5 A at phase pi/3 per lag: any A < 2/3 stays
below the bound, which is why the sin^2(alpha) normalisation step
decides the verdict.  Violation is declared at 3 standard errors above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationSeries
from .errors import InvalidArgumentError

__all__ = ["LgSeries", "lg_function"]

VIOLATION_SIGMAS = 3.0


@dataclass
class LgSeries:
    """LG(tau) over a set of integer lags, as `lg_function` builds it."""

    taus: np.ndarray
    lg: np.ndarray
    stderr: np.ndarray

    @property
    def violated(self) -> np.ndarray:
        """The 3-sigma flags lg - 3 stderr > 1; exact where the stderr is 0."""
        return self.lg - VIOLATION_SIGMAS * self.stderr > 1.0

    @property
    def max_lg(self) -> float:
        return float(self.lg.max())

    def to_csv(self, path) -> None:
        # the bytes of csv.writer, which writes a float as its repr and an
        # int as its str; the flags go as ints 0 and 1
        with open(path, "w", newline="") as fh:
            fh.write("tau_index,lg,stderr,violated\r\n" + "".join(
                f"{tau},{lg!r},{err!r},{flag}\r\n" for tau, lg, err, flag
                in zip(self.taus.tolist(), self.lg.tolist(), self.stderr.tolist(),
                       self.violated.astype(int).tolist())))


def lg_function(series: CorrelationSeries) -> LgSeries:
    """Evaluate LG(tau) = 2 C(tau) - C(2 tau) wherever both lags exist.

    Lags whose doubled partner is missing are dropped (no extrapolation).
    stderr adds in quadrature, sqrt(4 se_tau^2 + se_2tau^2); the flag
    `LgSeries.violated` is lg - 3 stderr > 1, so an analytic series (zero
    errors) is flagged exactly where it exceeds the bound.  An LG value
    that overflows raises InvalidArgumentError naming its tau; a stderr
    that overflows is inf, like that of a single-product lag.
    """
    lags = series.lags
    doubled = np.isin(2 * lags, lags)
    if not doubled.any():
        raise InvalidArgumentError("no lag tau with 2*tau also present in the series")
    taus = lags[doubled]
    j = np.searchsorted(lags, 2 * taus)  # the lags are sorted
    with np.errstate(over="ignore"):
        lg = 2.0 * series.values[doubled] - series.values[j]
        se = np.sqrt(4.0 * series.stderr[doubled] ** 2 + series.stderr[j] ** 2)
    overflowed = taus[~np.isfinite(lg)]
    if overflowed.size:
        raise InvalidArgumentError(f"LG(tau) = 2 C(tau) - C(2 tau) is not finite at tau = {overflowed[0]}")
    return LgSeries(taus, lg, se)

