import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.fft import irfft, rfft
from scipy.fft import next_fast_len

from spintrack.correlation import (
    _FFT_BLOCK,
    _PRODUCT_BLOCK,
    _SPECTRA_BLOCK,
    CorrelationSeries,
    _fft_len,
    lag_products,
)
from spintrack.errors import InvalidArgumentError
from spintrack.lg import LgSeries
from spintrack.protocol import damped_cosine
from spintrack.readout import ModulationTrace

from oracles import corr_Sz, ensemble_corr, entropy_Sz_Ix, joint_distribution, relative_entropy


def test_joint_distribution_marginals():
    p = joint_distribution(0.4)
    assert p.sum() == pytest.approx(1.0)
    # both marginals are unbiased regardless of the correlation
    assert np.allclose(p.sum(axis=0), [0.5, 0.5])
    assert np.allclose(p.sum(axis=1), [0.5, 0.5])
    # correlation comes back out as the diagonal excess
    corr = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
    assert corr == pytest.approx(0.4)


def test_joint_distribution_bounds():
    joint_distribution(1.0)
    joint_distribution(-1.0)
    with pytest.raises(InvalidArgumentError):
        joint_distribution(1.2)


def test_model_series_identities():
    """C_Sz is sin^2(alpha) times the unit-amplitude damped cosine, and
    sin(alpha) times the model C_Ix; undoing the decay is checked in
    test_calibrate.py::test_reconstruct_Ix_inverts_model."""
    alpha, phi, n = 0.45, 0.9, 25
    sz = corr_Sz(alpha, phi, n)
    assert np.array_equal(sz.lags, np.arange(1, n + 1))
    norm = damped_cosine(alpha, phi, sz.lags, 1.0)
    ix = damped_cosine(alpha, phi, sz.lags, np.sin(alpha))
    assert np.allclose(sz.values, np.sin(alpha) ** 2 * norm, atol=1e-15)
    assert np.allclose(sz.values, np.sin(alpha) * ix, atol=1e-15)
    assert np.allclose(ix, np.sin(alpha) * norm, atol=1e-15)
    with pytest.raises(InvalidArgumentError, match="max_lag must be >= 1"):
        corr_Sz(alpha, phi, 0)


def test_model_series_first_lag_undamped():
    sz = corr_Sz(0.3, 0.7, 3)
    assert sz.values[0] == pytest.approx(np.sin(0.3) ** 2 * np.cos(0.7), abs=1e-15)


def test_ensemble_corr_hand_example():
    records = np.array(
        [
            [1, 1, -1],
            [1, -1, 1],
            [-1, -1, 1],
            [-1, 1, 1],
        ]
    )
    series = ensemble_corr(records)
    assert np.array_equal(series.lags, [1, 2])
    # lag 1 products: +1, -1, +1, -1 ; lag 2 products: -1, +1, -1, -1
    assert series.values[0] == pytest.approx(0.0)
    assert series.values[1] == pytest.approx(-0.5)
    assert series.kind == "ensemble"


def test_ensemble_corr_validation():
    with pytest.raises(InvalidArgumentError):
        ensemble_corr(np.array([[1, 1, 1]]))
    with pytest.raises(InvalidArgumentError):
        ensemble_corr(np.ones((4, 3)), max_lag=3)


def _one_array_ensemble(m, max_lag):
    """The ensemble moments from one float64 products array: np.mean's and
    np.std(ddof=1)'s operations, in their order."""
    prod = np.multiply(m[:, :1], m[:, 1 : max_lag + 1], dtype=float)
    mean = prod.sum(axis=0) / len(m)
    prod -= mean
    prod *= prod
    return mean, np.sqrt(prod.sum(axis=0) / (len(m) - 1))


@pytest.mark.parametrize("max_lag", [1, 2, 24])
def test_blocked_ensemble_is_the_one_array_formula(max_lag, rng):
    """Block by block, the ensemble's mean and std are those of the whole
    products array, bit for bit: around one block, over several and a
    partial one, and on counts near 4e9, whose products exceed int64."""
    length = max_lag + 1 if max_lag < 24 else 25  # 24 is length - 1
    block = _PRODUCT_BLOCK // max_lag
    sizes = [2, 3 * block + 17] if max_lag == 1 else [block - 1, block, block + 1, 3 * block + 17]
    for runs in sizes:
        records = [rng.integers(4_000_000_000 - 500, 4_000_000_000 + 500, size=(runs, length)),
                   rng.choice(np.array([-1, 1], dtype=np.int8), size=(runs, length)),
                   rng.normal(size=(runs, length))]
        for m in records:
            mean, std, count = lag_products(m, max_lag, "ensemble")
            want_mean, want_std = _one_array_ensemble(m, max_lag)
            assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std), (runs, m.dtype)
            assert np.array_equal(count, np.full(max_lag, runs))


def test_ensemble_scratch_is_a_block():
    """The ensemble forms its products a block of runs at a time: at 20,000
    runs of 25 counts its traced peak is about a tenth of the counts, where
    the one products array was 0.96 of them."""
    counts = np.random.default_rng(5).poisson(900.0, size=(20_000, 25))
    for max_lag in (1, 24):
        tracemalloc.start()
        try:
            lag_products(counts, max_lag, "ensemble")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.15 * counts.nbytes, (max_lag, peak)


def test_time_average_scratch_is_one_spectrum():
    """The time-average builds the spectra of a few runs at a time and
    frees each before it builds the next: at 100 runs of 4,000 counts and
    max_lag 2,000 its traced peak is about 0.25 times the int64 counts.
    Spectra of a whole group of runs made it 1.1 times, and two live
    spectra of a group 1.74 times."""
    counts = np.random.default_rng(5).poisson(900.0, size=(100, 4000))
    tracemalloc.start()
    try:
        lag_products(counts, 2000, "time-average")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * counts.nbytes, peak


def _one_block_time_average(m, max_lag):
    """The time-average as one block of `_FFT_BLOCK // bins` runs at a time
    computed it: each block's spectra built at once and summed over runs."""
    runs, length = m.shape
    nfft = _fft_len(length + max_lag)
    block = max(1, _FFT_BLOCK // (nfft // 2 + 1))
    power = np.zeros((2, nfft // 2 + 1))
    for start in range(0, runs, block):
        rows = np.array(m[start : start + block], dtype=float)
        for k in range(2):
            if k:
                rows *= rows
            spec = rfft(rows, n=nfft, axis=1)
            power[k] += (np.square(spec.real) + np.square(spec.imag)).sum(axis=0)
    s1, s2 = irfft(power, n=nfft, axis=1)[:, 1 : max_lag + 1]
    count = runs * (length - np.arange(1, max_lag + 1))
    mean = s1 / count
    var = np.maximum(s2 - s1 * mean, 0.0) / np.maximum(count - 1, 1)
    return mean, np.where(count > 1, np.sqrt(var), np.inf), count


def test_time_average_is_the_one_block_loop_bit_for_bit(rng):
    """Spectra built a few runs at a time and carried through each group's
    sum give the floats of building a whole group's spectra at once: for
    one run, around the sub-block and the group, one group exactly, and
    three groups and a partial one."""
    length, max_lag = 600, 300
    bins = _fft_len(length + max_lag) // 2 + 1
    group, step = _FFT_BLOCK // bins, _SPECTRA_BLOCK // bins
    assert 1 < step < group
    for runs in (1, step - 1, step, step + 1, group - 1, group, group + 1, 3 * group + 17):
        counts = rng.poisson(900, size=(runs, length))
        for m in (counts, counts.astype(np.int32), counts.astype(np.int16),
                  rng.normal(size=(runs, length))):
            got = lag_products(m, max_lag, "time-average")
            for a, b in zip(got, _one_block_time_average(m, max_lag)):
                assert np.array_equal(a, b), (runs, m.dtype)


def test_empirical_corr_alternating_record():
    s = np.tile([1, -1], 50)
    mean, std, count = lag_products(s, 6, "time-average")
    expected = [(-1.0) ** n for n in range(1, 7)]
    assert np.allclose(mean, expected, atol=1e-15)
    assert np.all(std / np.sqrt(count) == 0.0)


def test_empirical_corr_iid_record(rng):
    s = rng.choice([-1, 1], size=20000)
    mean, std, count = lag_products(s, 5, "time-average")
    assert np.all(np.abs(mean) < 4 * std / np.sqrt(count))


def test_empirical_corr_validation():
    with pytest.raises(InvalidArgumentError):
        lag_products(np.ones(5), 5, "time-average")
    with pytest.raises(InvalidArgumentError):
        lag_products(np.ones(5), 0, "time-average")


def _loop_reference(m, max_lag):
    """Per-lag (mean, std with ddof=1, count) of the pooled time-average
    products, formed lag by lag."""
    for n in range(1, max_lag + 1):
        prod = np.concatenate([m[r, :-n] * m[r, n:] for r in range(len(m))])
        yield prod.mean(), prod.std(ddof=1) if prod.size > 1 else np.inf, prod.size


def _assert_matches_loop(m, max_lag):
    """The FFT reduction against the loop, on its own error scale: the
    lag-0 sums of x^2 (for the product sums) and of x^4 (for the sums of
    squared products), to 1e-12."""
    mean, std, count = lag_products(m, max_lag, "time-average")
    sum_x2, sum_x4 = np.sum(m**2), np.sum(m**4)
    for j, (ref_mean, ref_std, ref_count) in enumerate(_loop_reference(m, max_lag)):
        assert count[j] == ref_count
        assert ref_count * abs(mean[j] - ref_mean) <= 1e-12 * sum_x2
        if ref_count == 1:
            assert std[j] == np.inf
        else:
            assert (ref_count - 1) * abs(std[j] ** 2 - ref_std**2) <= 1e-12 * sum_x4


def test_lag_products_match_loop_reference(rng):
    m = rng.integers(0, 9, size=(5, 12)).astype(float)
    mean, std, count = lag_products(m, 11, "ensemble")
    for j, n in enumerate(range(1, 12)):
        prod = m[:, 0] * m[:, n]
        assert mean[j] == prod.mean() and std[j] == prod.std(ddof=1) and count[j] == 5
    _assert_matches_loop(m, 11)
    # records whose loop std is exactly 0, a single record up to its last
    # lag, photon counts of the golden classical shape, and runs that fill
    # more than one FFT block and end in a partial one
    _assert_matches_loop(np.full((4, 20), 3.0), 19)
    _assert_matches_loop(np.tile([1.0, -1.0], (3, 15)), 29)
    _assert_matches_loop(rng.choice([-1.0, 1.0], size=(1, 40)), 39)
    _assert_matches_loop(rng.poisson(900, size=(30, 600)).astype(float), 300)
    runs, length, max_lag = 30, 20_000, 50
    block = _FFT_BLOCK // (_fft_len(length + max_lag) // 2 + 1)
    assert 1 < block < runs and runs % block
    _assert_matches_loop(rng.poisson(900, size=(runs, length)).astype(float), max_lag)
    # one record: the last lag has a single product and no spread estimate
    _, std, count = lag_products(m[:1], 11, "time-average")
    assert count[-1] == 1 and std[-1] == np.inf
    assert (std / np.sqrt(count))[-1] == np.inf
    with pytest.raises(InvalidArgumentError):
        lag_products(m, 3, "median")
    with pytest.raises(InvalidArgumentError):
        lag_products(m[:1], 3, "ensemble")


@pytest.mark.parametrize("shape", [(2, 3), (200, 64), (25_000, 25)])
def test_ensemble_moments_equal_numpys_bit_for_bit(rng, shape):
    """The ensemble branch takes its moments a block of runs at a time;
    they must be the very floats of np.mean and np.std(ddof=1) of the float
    products.  25,000 runs tell numpy's pairwise summation from a sequential
    one, so a numpy that reorders its variance fails here first."""
    records = {
        "int8 outcomes": rng.choice(np.array([-1, 1], dtype=np.int8), size=shape),
        "int64 counts": rng.poisson(900, size=shape).astype(np.int64),
        "float64": rng.normal(size=shape),
    }
    max_lag = shape[1] - 1
    for name, m in records.items():
        f = m.astype(float)
        prod = f[:, :1] * f[:, 1:]
        mean, std, count = lag_products(m, max_lag, "ensemble")
        assert np.array_equal(mean, np.mean(prod, axis=0)), name
        assert np.array_equal(std, np.std(prod, axis=0, ddof=1)), name
        assert np.array_equal(count, np.full(max_lag, shape[0])), name


def test_integer_records_do_not_wrap():
    """Counts near 4e9 have products beyond 2^63: an int64 record must give
    the floats of its float64 copy, not wrapped integer products."""
    counts = np.array([[4_000_000_000, 4_000_000_123, 3_999_999_877, 4_000_000_042],
                       [3_999_999_990, 4_000_000_456, 4_000_000_021, 3_999_999_999],
                       [4_000_000_007, 3_999_999_950, 4_000_000_300, 4_000_000_100]])
    assert counts.dtype == np.int64
    for estimator in ("ensemble", "time-average"):
        got = lag_products(counts, 3, estimator)
        want = lag_products(counts.astype(float), 3, estimator)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), estimator
    assert np.all(lag_products(counts, 3, "ensemble")[0] > 1.5e19)
    as_int, as_float = ensemble_corr(counts), ensemble_corr(counts.astype(float))
    assert np.array_equal(as_int.values, as_float.values)
    assert np.array_equal(as_int.stderr, as_float.stderr)


def test_fft_len_is_scipys_next_fast_len():
    assert [_fft_len(n) for n in range(1, 30_001)] == [
        next_fast_len(n, real=True) for n in range(1, 30_001)]


def test_estimators_agree_on_stationary_noise(rng):
    """For iid +-1 data the across-run and within-run estimators target
    the same (zero) correlator."""
    records = rng.choice([-1, 1], size=(400, 50))
    ens = ensemble_corr(records, max_lag=10)
    mean, std, count = lag_products(records.ravel(), 10, "time-average")
    assert np.all(np.abs(ens.values) < 4 * ens.stderr)
    assert np.all(np.abs(mean) < 4 * std / np.sqrt(count))


def test_series_value_at_and_validation():
    series = CorrelationSeries(np.array([1, 2, 3]), np.array([0.5, 0.2, 0.1]), np.zeros(3))
    # the lags are sorted, so lag N sits at position searchsorted(lags, N)
    i = np.searchsorted(series.lags, 2)
    assert (series.values[i], series.stderr[i]) == (0.2, 0.0)
    with pytest.raises(InvalidArgumentError):
        CorrelationSeries(np.array([1, 2]), np.array([0.5]), np.zeros(2))
    # the series owns its lag order: strictly increasing integers >= 1
    for lags in ([1, 2, 2], [3, 2, 1], [0, 1, 2], [-1, 1, 2], [1.0, 1.5, 2.0], [[1, 2, 3]]):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            CorrelationSeries(np.array(lags), np.zeros(np.shape(lags)), np.zeros(np.shape(lags)))
    with pytest.raises(InvalidArgumentError, match="int64"):
        CorrelationSeries(np.array([10**20]), [0.1], [0.01])
    # a float lag that is no int64 is refused without a cast warning
    for lag in (np.nan, np.inf, 1e30):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            CorrelationSeries(np.array([lag]), [0.1], [0.01])


def test_series_csv_roundtrip(tmp_path):
    series = CorrelationSeries(
        np.arange(1, 6),
        np.array([0.1, -0.25, 1e-17, 0.5, -1.0]) / 3.0,
        np.array([0.01, 0.02, 0.0, 0.04, 0.05]),
        kind="ensemble",
        meta={"seed": 3},
    )
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = CorrelationSeries.from_csv(path)
    assert np.array_equal(back.lags, series.lags)
    # repr round-trip must be exact, not approximate
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.stderr, series.stderr)
    assert back.kind == "ensemble"


#: floats whose text is special: csv writes each as its repr
EDGE_FLOATS = [np.inf, np.nan, -0.0, 5e-324, -np.inf, 1 / 3]


def _csv_writer_bytes(path, header, rows, comment=""):
    """What `csv.writer` writes for `header` and `rows`, after `comment`."""
    with open(path, "w", newline="") as fh:
        fh.write(comment)
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["", "a,b", 'q"x', "line\nbreak", " sp", "Sz-reconstructed"])
def test_small_csvs_are_csv_writers_bytes(tmp_path, kind):
    """The correlation, LG and sweep files, each written as one string, hold
    the bytes `csv.writer` writes for their rows, for every special float
    and for a kind that csv must quote or leave bare."""
    n = len(EDGE_FLOATS)
    values, errs = np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])
    series = CorrelationSeries(np.arange(1, n + 1) ** 2, values, errs, kind=kind)
    series.to_csv(tmp_path / "series.csv")
    assert (tmp_path / "series.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["lag", "value", "stderr", "kind"],
        zip(series.lags.tolist(), values.tolist(), errs.tolist(), [kind] * n))

    lgs = LgSeries(np.arange(1, n + 1), values, np.array([0.0, 0.1, np.inf, np.nan, 1.0, 0.0]))
    lgs.to_csv(tmp_path / "lg.csv")
    assert lgs.violated.any() and not lgs.violated.all()
    assert (tmp_path / "lg.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["tau_index", "lg", "stderr", "violated"],
        zip(lgs.taus.tolist(), values.tolist(), lgs.stderr.tolist(),
            lgs.violated.astype(int).tolist()))

    sweep = ModulationTrace(values, np.array([0, 7, 2**40, 1, 0, 65]), meta={"kind": kind})
    sweep.to_csv(tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["angle_deg", "count"],
        zip(values.tolist(), sweep.counts.tolist()),
        "# " + json.dumps({"meta": {"kind": kind}}, sort_keys=True) + "\n")


def test_relative_entropy_basics():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    d = relative_entropy(p, q)
    assert d == pytest.approx(0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1))
    assert d > 0.0
    assert relative_entropy(p, p) == 0.0
    # zero p-entries contribute nothing
    assert relative_entropy([0.0, 1.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))


def test_relative_entropy_validation():
    with pytest.raises(InvalidArgumentError):
        relative_entropy([0.5, 0.5], [1.0, 0.0])  # disjoint support
    with pytest.raises(InvalidArgumentError):
        relative_entropy([0.5, 0.5], [0.5, 0.4])  # not normalised
    with pytest.raises(InvalidArgumentError):
        relative_entropy([0.5, 0.5], [0.25, 0.25, 0.5])  # length mismatch
    with pytest.raises(InvalidArgumentError):
        relative_entropy([-0.1, 1.1], [0.5, 0.5])


@given(
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
)
# the unclipped sum was -5.3e-17 here
@example(pw=[1.0, 0.8991574194477739], qw=[0.9999999999999999, 0.8991574194477739])
def test_relative_entropy_nonnegative_property(pw, qw):
    n = min(len(pw), len(qw))
    p = np.array(pw[:n]) / np.sum(pw[:n])
    q = np.array(qw[:n]) / np.sum(qw[:n])
    d = relative_entropy(p, q)
    assert d >= 0.0
    if np.allclose(p, q, rtol=0.0, atol=1e-14):
        assert d == pytest.approx(0.0, abs=1e-12)


def test_entropy_Sz_Ix_vanishes_at_projective_limit():
    """At full strength the first weak readout is projective and carries
    the complete information: zero divergence from the reference."""
    phi = 0.8
    assert entropy_Sz_Ix(np.pi / 2, phi, lag=1) == pytest.approx(0.0, abs=1e-15)
    # weaker measurements are strictly less informative
    d = [entropy_Sz_Ix(a, phi, lag=1) for a in (0.2, 0.6, 1.0, 1.4)]
    assert all(x > y for x, y in zip(d, d[1:]))


def test_entropy_Sz_Ix_deterministic_reference_raises():
    with pytest.raises(InvalidArgumentError):
        entropy_Sz_Ix(0.3, 0.0, lag=1)
    with pytest.raises(InvalidArgumentError):
        entropy_Sz_Ix(0.3, 0.5, lag=0)
