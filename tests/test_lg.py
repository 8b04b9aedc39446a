import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintrack.correlation import CorrelationSeries
from spintrack.errors import InvalidArgumentError
from spintrack.lg import lg_function

from oracles import (
    DESPAGNAT_A,
    DESPAGNAT_B,
    joint_distribution,
    strong_additivity_check,
    wigner_despagnat_check,
)


def _lg_of_precession(phi, amplitude=1.0, taus=12):
    """LG of the undamped cosine series amplitude cos(phi N), N = 1 .. 2 taus."""
    lags = np.arange(1, 2 * taus + 1)
    return lg_function(CorrelationSeries(lags, amplitude * np.cos(phi * lags), np.zeros(lags.size)))


def test_lg_of_precession_maximum_at_third_period():
    """Pure precession probed at a third of the period saturates the
    two-time bound at 3/2."""
    series = _lg_of_precession(np.pi / 3)
    assert np.array_equal(series.taus, np.arange(1, 13))
    assert series.max_lg == pytest.approx(1.5, abs=1e-12)
    assert series.lg[0] == pytest.approx(1.5, abs=1e-12)
    # the analytic series carries no errors, so the flag is exact
    assert series.violated[0]
    assert not series.violated[1]  # lg(2) = -0.5


def test_lg_of_precession_halved_amplitude_stays_classical():
    series = _lg_of_precession(np.pi / 3, amplitude=0.5)
    assert series.max_lg == pytest.approx(0.75, abs=1e-12)
    assert not series.violated.any()


def test_lg_of_precession_static_limit():
    # phi = 0: C(N) = 1 for all N, LG = 2 - 1 = 1 exactly (the boundary)
    series = _lg_of_precession(0.0, taus=5)
    assert np.allclose(series.lg, 1.0, atol=1e-15)
    assert not series.violated.any()


def test_lg_function_values_and_errors():
    lags = np.arange(1, 9)
    c = 0.9 ** lags
    se = np.full(8, 0.01)
    series = CorrelationSeries(lags, c, se)
    out = lg_function(series)
    # taus limited to those with 2 tau available
    assert np.array_equal(out.taus, [1, 2, 3, 4])
    for i, tau in enumerate(out.taus):
        assert out.lg[i] == pytest.approx(2 * 0.9**tau - 0.9 ** (2 * tau), abs=1e-12)
        assert out.stderr[i] == pytest.approx(np.sqrt(4 * 0.01**2 + 0.01**2), abs=1e-12)
    # lags with gaps: the same numbers as a lag-by-lag loop, bit for bit
    rng = np.random.default_rng(41)
    lags = np.array([1, 2, 3, 5, 6, 7, 10, 12, 14, 20, 24, 31])
    values, se = rng.normal(size=12), rng.uniform(0.01, 0.1, 12)
    at = {int(lag): i for i, lag in enumerate(lags)}
    want = [(t, 2.0 * values[i] - values[at[2 * t]],
             np.sqrt(4.0 * se[i] ** 2 + se[at[2 * t]] ** 2))
            for t, i in at.items() if 2 * t in at]
    out = lg_function(CorrelationSeries(lags, values, se))
    assert [t for t, _, _ in want] == out.taus.tolist() == [1, 3, 5, 6, 7, 10, 12]
    assert np.array_equal([v for _, v, _ in want], out.lg)
    assert np.array_equal([e for _, _, e in want], out.stderr)


def test_lg_function_violation_flag_is_three_sigma():
    lags = np.arange(1, 5)
    values = np.array([0.9, 0.4, 0.0, 0.0])  # lg(1) = 1.4, lg(2) = 0.8
    tight = lg_function(CorrelationSeries(lags, values, np.full(4, 0.01)))
    assert tight.violated[0] and not tight.violated[1]
    assert tight.violated.tolist() == [True, False]
    loose = lg_function(CorrelationSeries(lags, values, np.full(4, 0.5)))
    assert not loose.violated.any()


def test_lg_csv_writes_each_row_as_the_per_row_writer_did(tmp_path):
    """One `writerows` call gives the bytes of the per-row writer it
    replaced: reprs of the floats, and the flags as 0/1, not True/False."""
    lags = np.arange(1, 5)
    lgs = lg_function(CorrelationSeries(lags, np.array([0.9, 0.4, 0.0, 0.0]), np.full(4, 0.01)))
    lgs.to_csv(tmp_path / "lg.csv")
    want = "tau_index,lg,stderr,violated\r\n" + "".join(
        f"{int(t)},{float(v)!r},{float(e)!r},{int(f)}\r\n"
        for t, v, e, f in zip(lgs.taus, lgs.lg, lgs.stderr, lgs.violated))
    assert lgs.violated.tolist() == [True, False]
    assert (tmp_path / "lg.csv").read_bytes() == want.encode()


def test_lg_function_needs_a_doubled_lag():
    with pytest.raises(InvalidArgumentError):
        lg_function(CorrelationSeries(np.array([1]), np.array([0.5]), np.array([0.01])))
    # lag list without any (tau, 2 tau) pair
    with pytest.raises(InvalidArgumentError):
        lg_function(CorrelationSeries(np.array([3, 5]), np.zeros(2), np.zeros(2)))


def test_lg_function_rejects_an_overflowing_value():
    """Finite correlations near the float limit overflow 2 C(tau) - C(2 tau):
    the error names the tau, with no numpy warning; an overflowing stderr
    alone stays inf."""
    lags = np.arange(1, 5)
    values = np.array([0.5, 1e308, 0.2, -1e308])  # lg(1) is finite
    with pytest.raises(InvalidArgumentError, match="tau = 2"):
        lg_function(CorrelationSeries(lags, values, np.full(4, 0.01)))
    out = lg_function(CorrelationSeries(lags, np.zeros(4), np.full(4, 1e308)))
    assert np.all(out.lg == 0.0) and np.all(out.stderr == np.inf)


# ---------------------------------------------------------------------------
# joint-probability checks


def test_despagnat_sets_are_disjoint_corners():
    assert DESPAGNAT_A.sum() == 2  # (xi+, phi+) over both theta
    assert DESPAGNAT_B.sum() == 2  # (phi-, theta+) over both xi
    assert not np.any(DESPAGNAT_A & DESPAGNAT_B)


def test_wigner_holds_for_uniform_joint():
    p = np.full((2, 2, 2), 0.125)
    lhs, rhs, holds = wigner_despagnat_check(p)
    assert holds
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(0.25)


def test_wigner_equality_case():
    # all mass on (xi+, phi+, theta+): lhs = rhs = 1
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    lhs, rhs, holds = wigner_despagnat_check(p)
    assert holds
    assert lhs == rhs == 1.0


def test_wigner_slack_identity():
    """lhs - rhs collapses to two specific joint entries; check against a
    random joint."""
    rng = np.random.default_rng(6)
    p = rng.random((2, 2, 2))
    p /= p.sum()
    lhs, rhs, holds = wigner_despagnat_check(p)
    assert holds
    assert lhs - rhs == pytest.approx(p[0, 0, 1] + p[1, 1, 0], abs=1e-12)


def test_wigner_input_validation():
    with pytest.raises(InvalidArgumentError):
        wigner_despagnat_check(np.full((2, 2), 0.25))
    bad = np.full((2, 2, 2), 0.125)
    bad[0, 0, 0] = -0.05
    bad[1, 1, 1] = 0.3
    with pytest.raises(InvalidArgumentError):
        wigner_despagnat_check(bad)
    with pytest.raises(InvalidArgumentError):
        wigner_despagnat_check(np.full((2, 2, 2), 0.2))  # sums to 1.6
    with pytest.raises(InvalidArgumentError, match="set masks"):
        strong_additivity_check(np.full((2, 2, 2), 0.125), set_a=np.ones((2, 2), dtype=bool))


def test_strong_additivity_default_sets():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.random((2, 2, 2))
        p /= p.sum()
        assert strong_additivity_check(p)


def test_strong_additivity_overlapping_sets():
    rng = np.random.default_rng(12)
    p = rng.random((2, 2, 2))
    p /= p.sum()
    a = np.zeros((2, 2, 2), dtype=bool)
    b = np.zeros((2, 2, 2), dtype=bool)
    a[0] = True       # xi = +1
    b[:, 0, :] = True  # phi = +1, overlaps a on the (0, 0, :) plane
    assert strong_additivity_check(p, set_a=a, set_b=b)


def test_oracles_take_a_batch_of_joints():
    """A leading batch axis gives per-joint results equal to scalar calls."""
    rng = np.random.default_rng(13)
    p = rng.dirichlet(np.ones(8), size=(4, 5)).reshape(4, 5, 2, 2, 2)
    a = rng.integers(0, 2, size=(4, 5, 2, 2, 2)).astype(bool)
    b = rng.integers(0, 2, size=(4, 5, 2, 2, 2)).astype(bool)
    lhs, rhs, holds = wigner_despagnat_check(p)
    additive = strong_additivity_check(p, set_a=a, set_b=b)
    assert lhs.shape == rhs.shape == holds.shape == additive.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        one = wigner_despagnat_check(p[idx])
        assert isinstance(one[2], bool) and isinstance(one[0], float)
        assert (lhs[idx], rhs[idx], holds[idx]) == one
        assert additive[idx] == strong_additivity_check(p[idx], set_a=a[idx], set_b=b[idx])
    assert strong_additivity_check(p).all()
    bad = p.copy()
    bad[2, 3, 0, 0, 0] += 0.1
    with pytest.raises(InvalidArgumentError):
        wigner_despagnat_check(bad)


def test_quantum_joint_respects_additivity_but_lg_does_not():
    """The deep point: every two-time joint from the protocol is a valid
    probability assignment (additivity holds), yet the three correlators
    assembled into the LG combination exceed the macrorealist bound.
    The contradiction lives across times, not inside any single joint."""
    phi = np.pi / 3
    for n in (1, 2):
        p2 = joint_distribution(np.cos(phi * n))
        assert p2.sum() == pytest.approx(1.0)
        assert np.all(p2 >= 0)
    series = _lg_of_precession(phi, taus=3)
    assert series.max_lg > 1.0 + 1e-9


@st.composite
def joints(draw):
    raw = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=8, max_size=8)
    )
    p = np.array(raw).reshape(2, 2, 2)
    return p / p.sum()


@given(joints())
def test_wigner_never_violated_property(p):
    lhs, rhs, holds = wigner_despagnat_check(p)
    assert holds
    assert lhs + 1e-12 >= rhs


@given(joints(), st.integers(0, 255), st.integers(0, 255))
def test_strong_additivity_property(p, mask_a, mask_b):
    a = np.array([(mask_a >> i) & 1 for i in range(8)], dtype=bool).reshape(2, 2, 2)
    b = np.array([(mask_b >> i) & 1 for i in range(8)], dtype=bool).reshape(2, 2, 2)
    assert strong_additivity_check(p, set_a=a, set_b=b)
