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

Correlators are normalised to +-1 outcome values (the raw +-1/2 readout
eigenvalues would carry an extra factor 1/4):

    target-spin correlator   C_Ix(N)  = x_N
    readout correlator       C_Sz(N)  = sin(alpha) x_N
                                     ~= sin^2(alpha) cos(phi N) e^{-(N-1) alpha^2/4}

The strength fit of `calibrate.fit_alpha` evaluates the approximate C_Sz
by `protocol.damped_cosine`; the model C_Ix is that function with
amplitude sin(alpha), or 1 for its unit-amplitude normalisation.

`lag_products` is the one reduction of a record to lag products;
`calibrate.reconstruct_Sz_corr` applies it to photon counts.
'time-average' is the stationary estimator over long records (the
classical random-phase experiment); 'ensemble' correlates the first
measurement of each run with the one N cycles later, averaged over runs,
which converges to C_Sz for the quantum protocol — a single
outcome-averaged record is not stationary (the polarisation decays), so
the two estimators are *not* interchangeable.  The time-average sums are
FFT autocorrelations (`numpy.fft`) of the record and of its square,
summed over runs a block at a time; they match a lag-by-lag loop to
rounding on the scale of the lag-0 sums of x^2 and x^4.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .errors import InvalidArgumentError

__all__ = ["CorrelationSeries", "lag_products"]


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
        try:  # a float that is no int64 casts to junk, which the check below refuses
            with np.errstate(invalid="ignore"):
                self.lags = lags.astype(int)
        except OverflowError:  # a Python int beyond int64
            raise InvalidArgumentError(f"lags must fit in int64, got {lags}") from None
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.lags.shape == self.values.shape == self.stderr.shape):
            raise InvalidArgumentError("lags, values and stderr must have equal shapes")
        if (self.lags.ndim != 1 or np.any(self.lags != lags) or np.any(self.lags < 1)
                or np.any(np.diff(self.lags) <= 0)):
            raise InvalidArgumentError("lags must be strictly increasing integers >= 1")

    def to_csv(self, path) -> None:
        # the bytes of csv.writer, which writes a float as its repr and an
        # int as its str; it quotes the kind once, as the last of a row's fields
        tail = io.StringIO()
        csv.writer(tail).writerow(["", self.kind])
        end = tail.getvalue()  # ',' + the kind as csv writes it + '\r\n'
        with open(path, "w", newline="") as fh:
            fh.write("lag,value,stderr,kind\r\n" + "".join(
                f"{lag},{value!r},{err!r}{end}" for lag, value, err
                in zip(self.lags.tolist(), self.values.tolist(), self.stderr.tolist())))

    @classmethod
    def from_csv(cls, path) -> "CorrelationSeries":
        """Read what `to_csv` writes: the header lag,value,stderr,kind, then
        one or more rows of an int64 lag above the last (or 0), a finite value,
        a stderr >= 0 (inf for a lag with a single product) and the first
        row's kind; anything else raises InvalidArgumentError naming file and line."""
        lags, vals, errs = [0], [], []  # the first lag must exceed lags[0] = 0
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            try:
                if next(rows, None) != ["lag", "value", "stderr", "kind"]:
                    raise ValueError("the header must be lag,value,stderr,kind")
                for lag, value, err, row_kind in rows:  # a row of other than 4 fields raises
                    lags.append(int(lag))
                    vals.append(float(value))
                    errs.append(float(err))
                    if not lags[-2] < lags[-1] <= np.iinfo(int).max:
                        raise ValueError(f"lag {lag} must exceed the one before and fit in int64")
                    if not (np.isfinite(vals[-1]) and errs[-1] >= 0):  # a nan stderr fails too
                        raise ValueError(f"need a finite value and a stderr >= 0, got {value}, {err}")
                    if len(vals) == 1:
                        kind = row_kind
                    if row_kind != kind:
                        raise ValueError(f"kind {row_kind!r} differs from the first row's {kind!r}")
                if not vals:
                    raise ValueError("no rows after the header")
                return cls(np.array(lags[1:]), np.array(vals), np.array(errs), kind=kind)
            except (ValueError, csv.Error) as exc:
                raise InvalidArgumentError(f"{path} line {rows.line_num}: {exc}") from None


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


#: products the ensemble forms at a time, `_PRODUCT_BLOCK // max_lag` runs:
#: 256 KiB of float64
_PRODUCT_BLOCK = 2**15

#: the time-average sums its power spectra over groups of
#: `_FFT_BLOCK // bins` runs, then adds each group's sum to the total; the
#: grouping fixes the rounding of the sums
_FFT_BLOCK = 2**17
#: about this many complex values of spectra the time-average builds at a
#: time, `_SPECTRA_BLOCK // bins` runs of a group: 256 KiB
_SPECTRA_BLOCK = 2**14


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


def _carry(buf: np.ndarray, rows: int, first: bool) -> np.ndarray:
    """Add rows 1..rows of `buf` to the sum that its row 0 carries (none
    when `first`) and return the new sum, in row 0.  numpy sums axis 0 of a
    C-contiguous array row by row, so block after block this is numpy's
    axis-0 sum of all the rows at once, bit for bit, while the rows are
    wider than one value (a single column numpy sums pairwise)."""
    buf[0] = buf[int(first) : rows + 1].sum(axis=0)
    return buf[0]


def _ensemble_sum(m, max_lag: int, mean=None) -> np.ndarray:
    """Per-lag sum over runs of the products m[:, 0] m[:, N], or, given
    their mean, of the squared deviations from it: numpy's own axis-0 sum
    of the whole products array, bit for bit, one block of runs at a time
    (`_carry`).  max_lag 1 takes all runs as one block (its products are
    one float per run), as numpy sums a single column pairwise."""
    runs = len(m)
    block = runs if max_lag == 1 else max(1, _PRODUCT_BLOCK // max_lag)
    buf = np.empty((min(block, runs) + 1, max_lag))
    for start in range(0, runs, block):
        rows = m[start : start + block]
        prod = buf[1 : len(rows) + 1]
        np.multiply(rows[:, :1], rows[:, 1 : max_lag + 1], out=prod, dtype=float)
        if mean is not None:
            prod -= mean
            prod *= prod
        total = _carry(buf, len(rows), start == 0)
    return total


def _power_sums(m, nfft: int) -> np.ndarray:
    """The power spectra |rfft(s, nfft)|^2 of every run s of `m` and of its
    square, summed over runs: shape (2, nfft // 2 + 1).  The runs go in
    groups of `_FFT_BLOCK // bins`, whose sums add up to the total; inside
    a group `_carry` sums the spectra of `_SPECTRA_BLOCK // bins` runs at a
    time, as numpy's axis-0 sum of the whole group's spectra."""
    runs, bins = len(m), nfft // 2 + 1
    group = max(1, _FFT_BLOCK // bins)
    step = min(max(1, _SPECTRA_BLOCK // bins), group, runs)
    buf = np.empty((step + 1, 2, bins))  # row i + 1: run i's two spectra
    power = np.zeros((2, bins))
    for lo in range(0, runs, group):
        hi = min(lo + group, runs)
        for start in range(lo, hi, step):
            rows = np.array(m[start : min(start + step, hi)], dtype=float)
            for k in range(2):
                if k:
                    rows *= rows
                spec = rfft(rows, n=nfft, axis=1)
                # |spec|^2 = re^2 + im^2, squared in spec's own memory
                np.square(spec.real, out=spec.real)
                np.square(spec.imag, out=spec.imag)
                np.add(spec.real, spec.imag, out=buf[1 : len(rows) + 1, k])
                del spec  # the next spectrum is built without this one alive
            total = _carry(buf, len(rows), start == lo)
        power += total
    return power


def lag_products(records, max_lag: int, estimator: str):
    """Per-lag (mean, std with ddof=1, count) of the lag-N products, N = 1..max_lag.

    `records` has shape (runs, length).  'ensemble' multiplies column 0,
    the reference measurement of each run, with column N across runs
    (count = runs); 'time-average' pools the products s_i s_{i+N} inside
    every run (count = runs * (length - N)).  A single product has no
    spread estimate: its std is inf, so every standard error built on it
    is inf too.  Integer records (the int16 to int64 photon counts) are
    read as they are, with no float copy: the ensemble multiplies them into
    float64 products (no integer wrap) a block of runs at a time, in two
    passes (`_ensemble_sum`), and its mean and std are np.mean's and
    np.std(ddof=1)'s, bit for bit; the time-average copies a few runs at a
    time to float.  Each count becomes a float64 before any arithmetic,
    so int16 or int32 counts and their int64 copy give the same floats.

    The time-average takes the per-lag sums S1 of s_i s_{i+N} and S2 of
    their squares from the autocorrelations of s and of s^2: each run is
    zero-padded to at least `length + max_lag`, so no lag wraps around,
    the power spectra are summed over runs (`_power_sums`) and one inverse
    FFT gives each sum.  mean = S1 / count and the variance is
    (S2 - S1 mean) / (count - 1), clipped at 0.  Rounding sets the error
    against a lag-by-lag loop: count |d mean| and (count - 1) |d std^2|
    stay near 1e-15 times the lag-0 sums of x^2 and of x^4 (the tests hold
    them to 1e-12).
    """
    m = np.atleast_2d(records)
    runs, length = m.shape
    _check_lag_products(max_lag, estimator, runs, length)
    if estimator == "ensemble":
        mean = _ensemble_sum(m, max_lag) / runs
        std = np.sqrt(_ensemble_sum(m, max_lag, mean) / (runs - 1))
        return mean, std, np.full(max_lag, runs)
    if estimator != "time-average":
        raise InvalidArgumentError(f"unknown estimator {estimator!r}")
    nfft = _fft_len(length + max_lag)
    s1, s2 = irfft(_power_sums(m, nfft), n=nfft, axis=1)[:, 1 : max_lag + 1]
    count = runs * (length - np.arange(1, max_lag + 1))
    mean = s1 / count
    var = np.maximum(s2 - s1 * mean, 0.0) / np.maximum(count - 1, 1)
    return mean, np.where(count > 1, np.sqrt(var), np.inf), count

