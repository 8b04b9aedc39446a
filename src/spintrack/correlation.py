"""Temporal correlation functions of the measurement record.

For a self-polarised run the transverse amplitude at cycle N is, in the
weak-measurement approximation,

    x_N ~= sin(alpha) cos(phi N) exp(-(N-1) alpha^2 / 4)          (phi = omega t_f)

The approximation carries an O(alpha^2) error (it ignores the frequency
shift of the exact dynamics); at phi = pi/2 its lag-2 error is
sin(alpha) (exp(-alpha^2/4) - cos(alpha)).  The exact amplitude is
sin(alpha) times the x component of `protocol.recurrence_step` iterated
from a unit start; `protocol.damped_cosine` defines the approximation
and states its range of validity.

The joint distribution of the polarising outcome mu and the outcome
lambda N cycles later is

    p(mu, lambda) = (1 + mu lambda x_N) / 4,      mu, lambda in {+1, -1}.

Correlators are normalised to +-1 outcome values (the raw +-1/2 readout
eigenvalues would carry an extra factor 1/4):

    target-spin correlator   C_Ix(N)  = x_N
    readout correlator       C_Sz(N)  = sin(alpha) x_N
                                     ~= sin^2(alpha) cos(phi N) e^{-(N-1) alpha^2/4}

`corr_Sz` (the readout model that `calibrate.fit_alpha` fits) and
`entropy_Sz_Ix` return the approximate forms, both evaluated by
`protocol.damped_cosine`; the model C_Ix is that function with amplitude
sin(alpha), or 1 for its unit-amplitude normalisation.

Empirical estimators all reduce a record with `lag_products`, as does
`calibrate.reconstruct_Sz_corr` on photon counts.  'time-average' is the
stationary estimator over long records (the classical random-phase
experiment); 'ensemble' correlates the first
measurement of each run with the one N cycles later, averaged over runs,
which converges to C_Sz for the quantum protocol (`ensemble_corr`) — a
single outcome-averaged record is not stationary (the polarisation
decays), so the two estimators are *not* interchangeable.  The
time-average sums are FFT autocorrelations (`numpy.fft`) of the record
and of its square, summed over runs a block at a time; they match a
lag-by-lag loop to rounding on the scale of the lag-0 sums of x^2 and x^4.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .errors import InvalidArgumentError
from .protocol import damped_cosine

__all__ = [
    "CorrelationSeries",
    "joint_distribution",
    "corr_Sz",
    "lag_products",
    "ensemble_corr",
    "relative_entropy",
    "entropy_Sz_Ix",
]


@dataclass
class CorrelationSeries:
    """Correlation values on a set of integer lags, with standard errors.

    kind labels the estimator/model that produced the values
    ('Sz', 'Ix', 'empirical', ...).  The lags are strictly increasing
    integers >= 1.  CSV layout: lag,value,stderr,kind.
    """

    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    kind: str = "empirical"
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        lags = np.asarray(self.lags)
        self.lags = lags.astype(int)
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.lags.shape == self.values.shape == self.stderr.shape):
            raise InvalidArgumentError("lags, values and stderr must have equal shapes")
        if (self.lags.ndim != 1 or np.any(self.lags != lags) or np.any(self.lags < 1)
                or np.any(np.diff(self.lags) <= 0)):
            raise InvalidArgumentError("lags must be strictly increasing integers >= 1")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lag", "value", "stderr", "kind"])
            for lag, v, s in zip(self.lags, self.values, self.stderr):
                w.writerow([int(lag), repr(float(v)), repr(float(s)), self.kind])

    @classmethod
    def from_csv(cls, path) -> "CorrelationSeries":
        """Read what `to_csv` writes: the header lag,value,stderr,kind, then
        one or more rows of an int lag, a finite value, a stderr >= 0 (inf
        for a lag with a single product) and the first row's kind; anything
        else raises InvalidArgumentError naming the file."""
        lags, vals, errs = [], [], []
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            try:
                if next(rows, None) != ["lag", "value", "stderr", "kind"]:
                    raise ValueError("the header must be lag,value,stderr,kind")
                for lag, value, err, row_kind in rows:  # a row of other than 4 fields raises
                    lags.append(int(lag))
                    vals.append(float(value))
                    errs.append(float(err))
                    if not (np.isfinite(vals[-1]) and errs[-1] >= 0):  # a nan stderr fails too
                        raise ValueError(f"need a finite value and a stderr >= 0, got {value}, {err}")
                    if len(lags) == 1:
                        kind = row_kind
                    if row_kind != kind:
                        raise ValueError(f"kind {row_kind!r} differs from the first row's {kind!r}")
                if not lags:
                    raise ValueError("no rows after the header")
                return cls(np.array(lags), np.array(vals), np.array(errs), kind=kind)
            except (ValueError, OverflowError, csv.Error) as exc:
                raise InvalidArgumentError(f"{path} line {rows.line_num}: {exc}") from None


def joint_distribution(x_n: float) -> np.ndarray:
    """2x2 joint distribution of (initial outcome mu, lag-N outcome lambda).

    Index 0 means +1, index 1 means -1:
    p[0,0] = p[1,1] = (1 + x_n)/4,  p[0,1] = p[1,0] = (1 - x_n)/4.
    """
    if abs(x_n) > 1.0 + 1e-12:
        raise InvalidArgumentError(f"|x_n| must not exceed 1, got {x_n}")
    same = (1.0 + x_n) / 4.0
    diff = (1.0 - x_n) / 4.0
    return np.array([[same, diff], [diff, same]])


def _lag_array(max_lag: int) -> np.ndarray:
    if max_lag < 1:
        raise InvalidArgumentError("max_lag must be >= 1")
    return np.arange(1, max_lag + 1)


def corr_Sz(alpha: float, phi: float, max_lag: int) -> CorrelationSeries:
    """Model readout correlator C_Sz(N) = sin(alpha) x_N for N = 1..max_lag.

    Uses the weak-measurement approximation
    C_Sz(N) ~= sin^2(alpha) cos(phi N) e^{-(N-1) alpha^2/4}, which is off
    by O(alpha^2); the exact value is sin^2(alpha) times the unit-start x
    of `protocol.recurrence_step`.
    """
    n = _lag_array(max_lag)
    vals = damped_cosine(alpha, phi, n, np.sin(alpha) ** 2)
    return CorrelationSeries(n, vals, np.zeros_like(vals), kind="Sz-model")


def _fft_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast
    (scipy.fft.next_fast_len(n, real=True) gives the same)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)  # ceil(n / p35)
            best = min(best, p35 << (quotient - 1).bit_length())  # p35 x its power of two
            p35 *= 3
        p5 *= 5
    return best


#: about this many complex values per rfft block of the time-average
#: reduction, which takes `_FFT_BLOCK // bins` runs at a time, so the FFT's
#: working memory stays small next to the record
_FFT_BLOCK = 2**17


def _check_lag_products(max_lag: int, estimator: str | None, runs: int | None = None,
                        length: int | None = None) -> None:
    """The rules `lag_products` holds a (runs, length) record to; `cli.read_config`
    checks a given max_lag with them, where a None estimator, run count or
    length is not known yet and not checked."""
    if max_lag < 1 or length is not None and max_lag > length - 1:
        high = "length - 1" if length is None else length - 1
        raise InvalidArgumentError(f"max_lag must be in [1, {high}], got {max_lag}")
    if estimator == "ensemble" and runs is not None and runs < 2:
        raise InvalidArgumentError("need at least 2 runs for an ensemble estimate")


def lag_products(records, max_lag: int, estimator: str):
    """Per-lag (mean, std with ddof=1, count) of the lag-N products, N = 1..max_lag.

    `records` has shape (runs, length).  'ensemble' multiplies column 0,
    the reference measurement of each run, with column N across runs
    (count = runs); 'time-average' pools the products s_i s_{i+N} inside
    every run (count = runs * (length - N)).  A single product has no
    spread estimate: its std is inf, so every standard error built on it
    is inf too.

    The time-average takes the per-lag sums S1 of s_i s_{i+N} and S2 of
    their squares from the autocorrelations of s and of s^2: each run is
    zero-padded to at least `length + max_lag`, so no lag wraps around,
    the power spectra are summed over blocks of runs and one inverse FFT
    gives each sum.  mean = S1 / count and the variance is
    (S2 - S1 mean) / (count - 1), clipped at 0.  Rounding sets the error
    against a lag-by-lag loop: count |d mean| and (count - 1) |d std^2|
    stay near 1e-15 times the lag-0 sums of x^2 and of x^4 (the tests hold
    them to 1e-12).
    """
    m = np.atleast_2d(records)
    runs, length = m.shape
    _check_lag_products(max_lag, estimator, runs, length)
    if estimator == "ensemble":
        prod = m[:, :1] * m[:, 1 : max_lag + 1]
        return prod.mean(axis=0), prod.std(axis=0, ddof=1), np.full(max_lag, runs)
    if estimator != "time-average":
        raise InvalidArgumentError(f"unknown estimator {estimator!r}")
    nfft = _fft_len(length + max_lag)
    block = max(1, _FFT_BLOCK // (nfft // 2 + 1))
    power = np.zeros((2, nfft // 2 + 1))
    for start in range(0, runs, block):
        rows = np.asarray(m[start : start + block], dtype=float)
        for k, x in enumerate((rows, rows * rows)):
            spec = rfft(x, n=nfft, axis=1)
            power[k] += (spec.real**2 + spec.imag**2).sum(axis=0)
    s1, s2 = irfft(power, n=nfft, axis=1)[:, 1 : max_lag + 1]
    count = runs * (length - _lag_array(max_lag))
    mean = s1 / count
    var = np.maximum(s2 - s1 * mean, 0.0) / np.maximum(count - 1, 1)
    return mean, np.where(count > 1, np.sqrt(var), np.inf), count


def ensemble_corr(records: np.ndarray, max_lag: int | None = None) -> CorrelationSeries:
    """Across-run estimator: C(N) = mean_r [ s_{r,0} * s_{r,N} ].

    `records` has shape (runs, length); column 0 is the reference
    measurement of each run (the polarising measurement for self-polarised
    data).  stderr is the standard error over runs.
    """
    m = np.atleast_2d(np.asarray(records, dtype=float))
    if max_lag is None:
        max_lag = m.shape[1] - 1
    mean, std, count = lag_products(m, max_lag, "ensemble")
    return CorrelationSeries(_lag_array(max_lag), mean, std / np.sqrt(count), kind="ensemble")


def relative_entropy(p, q) -> float:
    """Kullback-Leibler divergence sum_i p_i ln(p_i / q_i) (natural log).

    Both arguments must be probability vectors of equal length (entries
    >= 0, summing to 1 within 1e-9).  Terms with p_i = 0 contribute 0;
    a q_i = 0 with p_i > 0 means disjoint support and raises
    InvalidArgumentError.  Always >= 0, and 0 exactly when p == q.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InvalidArgumentError("p and q must have the same length")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12):
            raise InvalidArgumentError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError(f"{name} must sum to 1, got {v.sum()}")
    pm = p > 0
    if np.any(pm & (q <= 0)):
        raise InvalidArgumentError("q vanishes where p does not (disjoint support)")
    # where p and q nearly agree, rounding can leave a sum just below 0
    return max(0.0, float(np.sum(p[pm] * np.log(p[pm] / q[pm]))))


def entropy_Sz_Ix(alpha: float, phi: float, lag: int = 1) -> float:
    """Information distance between weak and projective readout statistics.

    Compares the lag-N weak readout distribution
    P = ((1 + x_N sin(alpha))/2, (1 - x_N sin(alpha))/2), with
    x_N = sin(alpha) cos(phi N) e^{-(N-1) alpha^2/4}, against the ideal
    projective reference Q = ((1 + cos(phi N))/2, (1 - cos(phi N))/2).
    Approaches 0 as alpha -> pi/2 at N = 1 (weak readout becomes
    projective); at phi = 0 the reference is deterministic while the weak
    distribution is not, which violates the support precondition of
    `relative_entropy` and raises InvalidArgumentError.
    """
    if lag < 1:
        raise InvalidArgumentError("lag must be >= 1")
    x_n = damped_cosine(alpha, phi, lag, np.sin(alpha))
    zeta = x_n * np.sin(alpha)
    ref = np.cos(phi * lag)
    p = np.array([(1.0 + zeta) / 2.0, (1.0 - zeta) / 2.0])
    q = np.array([(1.0 + ref) / 2.0, (1.0 - ref) / 2.0])
    return relative_entropy(p, q)
