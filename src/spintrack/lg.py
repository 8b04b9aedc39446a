"""Leggett-Garg functional and classical-probability consistency oracles.

The temporal test works on a lag-indexed correlation series C(N):

    LG(tau) = 2 C(tau) - C(2 tau)

is bounded by 1 for any macrorealistic (classical, non-invasively
measurable) process, while a coherently precessing spin, C(N) =
A cos(phi N), reaches 1.5 A at phase pi/3 per lag: any A < 2/3 stays
below the bound, which is why the sin^2(alpha) normalisation step
decides the verdict.  Violation is declared at 3 standard errors above 1.

The oracles operate on joint distributions of three +-1 variables on one
probability space (axis order (xi, phi, theta), index 0 <-> value +1):
any such joint satisfies both strong additivity and the pairwise
marginal inequality P(xi+, phi+) + P(phi-, theta+) >= P(xi+, theta+) —
which is why a violation in the temporal data rules such a joint out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationSeries
from .errors import InvalidArgumentError

__all__ = [
    "LgSeries",
    "lg_function",
    "wigner_despagnat_check",
    "strong_additivity_check",
    "DESPAGNAT_A",
    "DESPAGNAT_B",
]

VIOLATION_SIGMAS = 3.0
#: slack of the oracles' probability identities, for float rounding only
ROUNDING_TOL = 1e-12


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


# ---------------------------------------------------------------------------
# three-variable classical oracles

# canonical event masks of the marginal inequality, axis order (xi, phi, theta)
_IDX = np.indices((2, 2, 2))
DESPAGNAT_A = (_IDX[0] == 0) & (_IDX[1] == 0)   # {xi = +1, phi = +1}
DESPAGNAT_B = (_IDX[1] == 1) & (_IDX[2] == 0)   # {phi = -1, theta = +1}


_ATOMS = (-3, -2, -1)


def _check_joint(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-3:] != (2, 2, 2):
        raise InvalidArgumentError(f"joint must have shape (..., 2, 2, 2), got {p.shape}")
    if np.any(p < -ROUNDING_TOL):
        raise InvalidArgumentError("joint has negative entries")
    total = p.sum(axis=_ATOMS)
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise InvalidArgumentError(f"joint must sum to 1, got {total[off].flat[0]}")
    return p


def _scalar_or_array(x):
    """A plain float/bool for one joint, the array for a batch."""
    return x.item() if x.ndim == 0 else x


def wigner_despagnat_check(p) -> tuple:
    """Pairwise-marginal inequality for three +-1 variables on one space.

    Returns (lhs, rhs, holds) for

        P(xi=+1, phi=+1) + P(phi=-1, theta=+1) >= P(xi=+1, theta=+1).

    lhs - rhs equals the probability of the two atoms (+,+,-) and
    (-,-,+), so `holds` is true for every valid joint; the ROUNDING_TOL
    slack only absorbs float rounding of the sums.  `p` is one (2,2,2)
    joint (floats and a bool come back) or a batch (..., 2, 2, 2) (arrays
    of the batch shape come back).
    """
    p = _check_joint(p)
    lhs = p[..., 0, 0, :].sum(axis=-1) + p[..., :, 1, 0].sum(axis=-1)
    rhs = p[..., 0, :, 0].sum(axis=-1)
    return (_scalar_or_array(lhs), _scalar_or_array(rhs),
            _scalar_or_array(lhs + ROUNDING_TOL >= rhs))


def strong_additivity_check(p, set_a=None, set_b=None):
    """Verify P(A) + P(B) = P(A and B) + P(A or B) on an atom measure.

    `p` is a (2,2,2) probability table, or a batch (..., 2, 2, 2) of them;
    the sets are boolean masks over it, one mask or one per joint
    (default: the canonical pair above, which is disjoint, so the
    identity degenerates to plain additivity).  This is the measure-
    theoretic fact behind `wigner_despagnat_check`: apply it to the
    canonical sets and drop the non-shared atoms to get the inequality.
    The identity must hold to ROUNDING_TOL.  Returns a bool for one
    joint, a bool array of the batch shape for a batch.
    """
    p = _check_joint(p)
    a = DESPAGNAT_A if set_a is None else np.asarray(set_a, dtype=bool)
    b = DESPAGNAT_B if set_b is None else np.asarray(set_b, dtype=bool)
    if a.shape[-3:] != (2, 2, 2) or b.shape[-3:] != (2, 2, 2):
        raise InvalidArgumentError("set masks must have the joint's (2, 2, 2) shape")

    def measure(mask):
        return (p * mask).sum(axis=_ATOMS)

    lhs = measure(a) + measure(b)
    rhs = measure(a & b) + measure(a | b)
    return _scalar_or_array(np.abs(lhs - rhs) <= ROUNDING_TOL)
