import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintrack.correlation import (
    CorrelationSeries,
    corr_Sz,
    ensemble_corr,
    entropy_Sz_Ix,
    joint_distribution,
    lag_products,
    relative_entropy,
)
from spintrack.errors import InvalidArgumentError
from spintrack.protocol import damped_cosine


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


def test_lag_products_match_loop_reference(rng):
    m = rng.integers(0, 9, size=(5, 12)).astype(float)
    mean, std, count = lag_products(m, 11, "ensemble")
    for j, n in enumerate(range(1, 12)):
        prod = m[:, 0] * m[:, n]
        assert mean[j] == prod.mean() and std[j] == prod.std(ddof=1) and count[j] == 5
    mean, std, count = lag_products(m, 11, "time-average")
    for j, n in enumerate(range(1, 12)):
        prod = np.concatenate([m[r, :-n] * m[r, n:] for r in range(5)])
        assert mean[j] == prod.mean() and std[j] == prod.std(ddof=1) and count[j] == prod.size
    # one record: the last lag has a single product and no spread estimate
    _, std, count = lag_products(m[:1], 11, "time-average")
    assert count[-1] == 1 and std[-1] == np.inf
    assert (std / np.sqrt(count))[-1] == np.inf
    with pytest.raises(InvalidArgumentError):
        lag_products(m, 3, "median")
    with pytest.raises(InvalidArgumentError):
        lag_products(m[:1], 3, "ensemble")


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
