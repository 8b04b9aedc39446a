import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from spintrack.calibrate import (
    MAX_GAIN,
    FitResult,
    _bounded_search,
    fit_alpha,
    fit_alpha_modulated,
    fit_na_nb,
    reconstruct_Ix_corr,
    reconstruct_Sz_corr,
    write_json,
)
from spintrack.correlation import CorrelationSeries
from spintrack.engine import CHUNK_SIZE, modulated_drive, simulate_runs
from spintrack.errors import (
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
)
from spintrack.protocol import ProtocolConfig
from spintrack.readout import (
    ModulationTrace,
    PhotonTrace,
    ReadoutModel,
    modulation_trace,
    run_classical_experiment,
    run_quantum_experiment,
    sweep_fraction,
)

from oracles import corr_Sz, ensemble_corr

MODEL = ReadoutModel(n_a=1200.0, n_b=600.0, phi_0=0.02, repetitions=200)


def _counts_from_outcomes(outcomes, model):
    """Deterministic photon levels (no shot noise) for +-1 outcomes."""
    return np.where(outcomes == 1, model.n_a, model.n_b).astype(np.int64)


# ---------------------------------------------------------------------------
# sweep calibration


def test_fit_na_nb_noiseless_recovery():
    angles = np.repeat(np.arange(0.0, 361.0, 30.0), 2)
    truth = ReadoutModel(n_a=1200.0, n_b=600.0, phi_0=0.02)
    counts = truth.n_av + 0.5 * truth.contrast * sweep_fraction(angles, truth.phi_0)
    fit = fit_na_nb(ModulationTrace(angles, counts))
    assert fit["n_a"] == pytest.approx(1200.0, abs=1e-5)
    assert fit["n_b"] == pytest.approx(600.0, abs=1e-5)
    assert fit["phi_0"] == pytest.approx(0.02, abs=1e-6)
    assert fit.success and not fit.boundary


def test_fit_na_nb_closed_loop():
    trace = modulation_trace(MODEL, np.random.default_rng(414))
    fit = fit_na_nb(trace)
    assert fit["n_a"] == pytest.approx(1200.0, rel=0.02)
    assert fit["n_b"] == pytest.approx(600.0, rel=0.02)
    # quoted uncertainties should cover the truth at a few sigma
    assert abs(fit["n_a"] - 1200.0) < 4 * fit.stderr["n_a"]
    assert abs(fit["n_b"] - 600.0) < 4 * fit.stderr["n_b"]


def test_fit_na_nb_boundary_flag():
    angles = np.repeat(np.arange(0.0, 361.0, 30.0), 3)
    for phi_0 in (0.7, -0.7):  # outside PHI0_BOUNDS
        counts = 900.0 + 300.0 * sweep_fraction(angles, phi_0) + np.arange(angles.size) % 3
        fit = fit_na_nb(ModulationTrace(angles, counts))
        assert fit.boundary and fit.message == "phi_0 estimate at search bound", phi_0


def test_fit_na_nb_degenerate_contrast():
    flat = ReadoutModel(n_a=800.0, n_b=800.0, repetitions=100)
    trace = modulation_trace(flat, np.random.default_rng(2))
    with pytest.raises(DegenerateContrastError):
        fit_na_nb(trace)


def test_fit_na_nb_input_validation():
    with pytest.raises(InvalidArgumentError):
        fit_na_nb(ModulationTrace(np.array([0.0, 30.0]), np.ones(3)))  # unequal lengths
    angles = np.repeat([0.0, 30.0, 60.0], 5)
    with pytest.raises(InvalidArgumentError):
        fit_na_nb(ModulationTrace(angles, np.ones(15)))  # only 3 distinct angles
    angles = np.array([0.0, 30.0, 60.0, 90.0, 120.0])
    with pytest.raises(InvalidArgumentError):
        fit_na_nb(ModulationTrace(angles, np.ones(5)))  # single sample per angle


def test_fit_result_json_roundtrip(tmp_path):
    fit = FitResult(
        params={"n_a": 1201.5, "n_b": 598.25},
        stderr={"n_a": 2.0, "n_b": 3.5},
        residual=10.25,
        n_points=13,
        boundary=True,
        message="at bound",
        meta={"weighting": "full"},
    )
    path = tmp_path / "fit.json"
    fit.to_json(path)
    back = FitResult.from_json(path)
    assert back.params == fit.params
    assert back.stderr == fit.stderr
    assert back.residual == fit.residual
    assert back.n_points == 13
    assert back.boundary is True
    assert back.meta["weighting"] == "full"


def test_write_json_rejects_non_finite_numbers(tmp_path):
    """No artifact holds NaN or Infinity, and a rejected payload leaves no file."""
    for bad in (np.inf, -np.inf, np.nan):
        path = tmp_path / "bad.json"
        with pytest.raises(InvalidArgumentError, match=str(path)):
            write_json(path, {"x": bad})
        assert not path.exists()


# ---------------------------------------------------------------------------
# correlation reconstruction


def test_reconstruct_ensemble_equals_outcome_estimator():
    """With exact photon levels and a sign-symmetric record, the photon
    correlation must reduce to the outcome correlation identically."""
    cfg = ProtocolConfig(alpha=0.5, phi=0.7, cycles=8)
    batch = simulate_runs(cfg, runs=300, seed=5)
    outcomes = np.vstack([batch.outcomes, -batch.outcomes])  # exact zero mean
    trace = PhotonTrace(_counts_from_outcomes(outcomes, MODEL), kind="quantum")
    got = reconstruct_Sz_corr(trace, MODEL)
    want = ensemble_corr(outcomes)
    assert np.allclose(got.values, want.values, atol=1e-10)
    # the photon products also carry the bright/dark mixture cross terms,
    # so their quoted errors are strictly wider than the outcome-level ones
    assert np.all(got.stderr > want.stderr)
    assert got.kind == "Sz-reconstructed"
    assert got.meta["estimator"] == "ensemble"


def _traced_peak(fn, *args):
    """The tracemalloc peak while fn(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reconstruct_reads_the_counts_in_place():
    """The ensemble reduction of a quantum trace holds one float products
    array and no float copy of the counts: its traced peak is about 3.1
    bytes a count (1.09 times the counts when they were int32).  A float
    copy of the counts reads about 12."""
    cfg = ProtocolConfig(alpha=0.18 * np.pi, phi=np.pi / 3, cycles=24)
    trace = run_quantum_experiment(cfg, MODEL, runs=20 * CHUNK_SIZE, seed=31)
    peak = _traced_peak(reconstruct_Sz_corr, trace, MODEL)
    assert peak < 4.8 * trace.counts.size, (peak, trace.counts.size)


def test_fit_alpha_modulated_reads_the_counts_in_place():
    """The mean path and its spread come from the int16 counts as they are:
    the traced peak is about 1.05 times the counts' float64 size (np.std's
    one centred copy).  A float copy of the counts reads about 2."""
    trace = run_classical_experiment(0.3, 0.5, 64, MODEL, runs=20 * CHUNK_SIZE, seed=97,
                                     modulated=True)
    peak = _traced_peak(fit_alpha_modulated, trace)
    assert trace.counts.dtype == np.int16
    assert peak < 1.2 * 8 * trace.counts.size, (peak, trace.counts.nbytes)


@pytest.mark.parametrize("kind", ["quantum", "classical", "classical-modulated"])
def test_int16_int32_and_int64_counts_give_the_same_floats(kind):
    """The analysis turns counts into float64 before any arithmetic, so an
    int16 record and its int32 and int64 copies give the same results, bit
    for bit."""
    if kind == "quantum":
        cfg = ProtocolConfig(alpha=0.18 * np.pi, phi=np.pi / 3, cycles=24)
        trace = run_quantum_experiment(cfg, MODEL, runs=3 * CHUNK_SIZE + 17, seed=5)
    else:
        trace = run_classical_experiment(0.3, 0.5, 600, MODEL, runs=50, seed=5,
                                         modulated=kind == "classical-modulated")
    assert trace.counts.dtype == np.int16
    got = reconstruct_Sz_corr(trace, MODEL)
    assert got.meta["estimator"] == ("ensemble" if kind == "quantum" else "time-average")
    for dtype in (np.int32, np.int64):
        wide = PhotonTrace(trace.counts.astype(dtype), kind=kind, first_lag=trace.first_lag)
        want = reconstruct_Sz_corr(wide, MODEL)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.stderr, want.stderr)
        if kind == "classical-modulated":
            assert fit_alpha_modulated(trace).as_dict() == fit_alpha_modulated(wide).as_dict()


def test_reconstruct_time_average_exact_alternation():
    outcomes = np.tile([1, -1], 30)
    rows = np.vstack([outcomes, -outcomes])
    trace = PhotonTrace(_counts_from_outcomes(rows, MODEL), kind="classical")
    got = reconstruct_Sz_corr(trace, MODEL, max_lag=8)
    expected = [(-1.0) ** n for n in range(1, 9)]
    assert got.meta["estimator"] == "time-average"
    assert np.allclose(got.values, expected, atol=1e-10)


def test_reconstruct_estimator_validation():
    counts = np.ones((4, 6), dtype=np.int64)
    with pytest.raises(InvalidArgumentError):
        reconstruct_Sz_corr(PhotonTrace(counts, kind="quantum", first_lag=1), MODEL)
    with pytest.raises(InvalidArgumentError):
        reconstruct_Sz_corr(PhotonTrace(counts, kind="quantum"), MODEL, max_lag=9)
    with pytest.raises(DegenerateContrastError):
        reconstruct_Sz_corr(
            PhotonTrace(counts, kind="quantum"), ReadoutModel(n_a=80.0, n_b=80.0)
        )


def test_reconstruct_Ix_inverts_model():
    alpha, phi = 0.42, 0.9
    series = corr_Sz(alpha, phi, 30)
    damped = reconstruct_Ix_corr(series, alpha)
    n = series.lags
    assert np.allclose(damped.values, np.cos(phi * n) * np.exp(-(n - 1) * alpha**2 / 4), atol=1e-12)
    undone = reconstruct_Ix_corr(series, alpha, undo_decay=True)
    assert np.allclose(undone.values, np.cos(phi * n), atol=1e-12)
    assert undone.kind == "Ix-reconstructed"
    assert undone.meta["undo_decay"] is True


def test_reconstruct_Ix_scales_errors_with_values():
    series = CorrelationSeries(
        np.arange(1, 11), np.full(10, 0.1), np.full(10, 0.01), kind="ensemble"
    )
    out = reconstruct_Ix_corr(series, 0.4, undo_decay=True)
    assert np.allclose(out.stderr / series.stderr, out.values / series.values, atol=1e-12)


def test_reconstruct_Ix_amplification_guards():
    series = corr_Sz(0.3, 0.5, 10)
    for alpha in (1e-4, 0.0, np.pi):  # the lag-independent gain 1/sin^2(alpha)
        with pytest.raises(AmplificationError, match="exceeds MAX_GAIN"):
            reconstruct_Ix_corr(series, alpha)
    long = corr_Sz(0.3, 0.5, 400)
    with pytest.raises(AmplificationError):
        reconstruct_Ix_corr(long, 0.3, undo_decay=True)  # tail gain explodes
    # the ceiling is MAX_GAIN: the longest series whose tail gain stays below it passes
    gains = np.exp((long.lags - 1) * 0.3**2 / 4.0) / np.sin(0.3) ** 2
    last_ok = int(long.lags[gains <= MAX_GAIN].max())
    reconstruct_Ix_corr(corr_Sz(0.3, 0.5, last_ok), 0.3, undo_decay=True)
    with pytest.raises(AmplificationError):
        reconstruct_Ix_corr(corr_Sz(0.3, 0.5, last_ok + 1), 0.3, undo_decay=True)


# ---------------------------------------------------------------------------
# strength fits


def test_fit_alpha_on_exact_model():
    alpha, phi = 0.3, 0.6
    fit = fit_alpha(corr_Sz(alpha, phi, 40), phi)
    assert fit["alpha"] == pytest.approx(alpha, abs=1e-8)
    assert fit.stderr["alpha"] > 0
    assert not fit.boundary
    assert fit.meta["weighting"] == "full"


def test_fit_alpha_weighted_agrees_on_exact_model():
    alpha, phi = 0.3, 0.6
    base = corr_Sz(alpha, phi, 40)
    weighted = CorrelationSeries(base.lags, base.values, np.full(40, 0.01))
    fit = fit_alpha(weighted, phi)
    assert fit["alpha"] == pytest.approx(alpha, abs=1e-8)


def test_fit_alpha_boxcar_trims_tail():
    alpha, phi = 0.4, 0.6
    fit = fit_alpha(corr_Sz(alpha, phi, 80), phi, weighting="boxcar")
    assert fit["alpha"] == pytest.approx(alpha, abs=1e-6)
    # 1/e length 4/alpha^2 = 25: one third of it ~ lag 8
    assert fit.meta["window"] == pytest.approx(4.0 / alpha**2 / 3.0, rel=1e-6)
    assert fit.n_points < 80


def test_fit_alpha_boundary_flag():
    # a vanishing signal drives the fit into the lower search bound
    n = np.arange(1, 30)
    series = CorrelationSeries(n, 1e-9 * np.cos(0.6 * n), np.zeros(29))
    fit = fit_alpha(series, 0.6)
    assert fit.boundary
    assert "bound" in fit.message


def test_fit_alpha_validation():
    series = corr_Sz(0.3, 0.6, 40)
    with pytest.raises(InvalidArgumentError):
        fit_alpha(series, 0.6, weighting="hann")
    short = CorrelationSeries(np.array([1]), np.array([0.2]), np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        fit_alpha(short, 0.6)
    for fraction in (0.0, -1.0, 2.0):  # the boxcar window must lie in (0, 1]
        with pytest.raises(InvalidArgumentError, match="boxcar_fraction"):
            fit_alpha(series, 0.6, weighting="boxcar", boxcar_fraction=fraction)


def test_fit_alpha_leaves_out_an_inf_stderr_lag():
    """A lag with a single product has an inf stderr; it must get weight 0
    instead of turning the whole fit unweighted."""
    alpha, phi = 0.5, 1.0
    rng = np.random.default_rng(8)
    base = corr_Sz(alpha, phi, 20)
    stderr = rng.uniform(0.005, 0.03, 20)
    values = base.values + stderr * rng.standard_normal(20)
    stderr[-1] = np.inf
    fit = fit_alpha(CorrelationSeries(base.lags, values, stderr), phi)
    cut = fit_alpha(CorrelationSeries(base.lags[:-1], values[:-1], stderr[:-1]), phi)
    assert fit["alpha"] == pytest.approx(cut["alpha"], abs=1e-12)
    assert fit.stderr["alpha"] == pytest.approx(cut.stderr["alpha"], rel=1e-12)
    assert fit.n_points == 19
    with pytest.raises(InvalidArgumentError, match="finite stderr"):
        fit_alpha(CorrelationSeries(base.lags, values, np.full(20, np.inf)), phi)


def test_fit_alpha_weighting_follows_the_stderr_not_its_value():
    """Unit stderrs are errors like any other: the fit must not take them
    for a model series and rescale its stderr by the residual."""
    alpha, phi = 0.5655, 1.0472
    rng = np.random.default_rng(24)
    base = corr_Sz(alpha, phi, 24)
    values = base.values + 0.01 * rng.standard_normal(24)
    unit = fit_alpha(CorrelationSeries(base.lags, values, np.ones(24)), phi)
    near = fit_alpha(CorrelationSeries(base.lags, values, np.full(24, 1.0 + 1e-12)), phi)
    assert unit.stderr["alpha"] == pytest.approx(near.stderr["alpha"], rel=1e-6)


def test_fit_alpha_closed_loop_on_outcomes():
    alpha, phi = 0.1 * np.pi, np.deg2rad(27.0)
    cfg = ProtocolConfig(alpha=alpha, phi=phi, cycles=50)
    batch = simulate_runs(cfg, runs=4000, seed=511)
    series = ensemble_corr(batch.outcomes, max_lag=50)
    fit = fit_alpha(series, phi)
    assert fit["alpha"] == pytest.approx(alpha, rel=0.05)


def test_fit_alpha_modulated_closed_loop():
    alpha = 0.35
    trace = run_classical_experiment(
        alpha, 0.5, 64, MODEL, runs=600, seed=97, modulated=True
    )
    fit = fit_alpha_modulated(trace)
    assert fit["alpha"] == pytest.approx(alpha, rel=0.05)
    assert fit["n_a"] == pytest.approx(1200.0, rel=0.01)
    assert fit["n_b"] == pytest.approx(600.0, rel=0.01)
    assert abs(fit["alpha"] - alpha) < 4 * fit.stderr["alpha"]


def test_fit_alpha_modulated_validation():
    single = run_classical_experiment(0.3, 0.5, 16, MODEL, runs=1, seed=1, modulated=True)
    with pytest.raises(InvalidArgumentError):
        fit_alpha_modulated(single)
    for length in (1, 2, 3):  # fewer mean positions than the 3 parameters need
        short = run_classical_experiment(0.3, 0.5, length, MODEL, runs=20, seed=1, modulated=True)
        with pytest.raises(InvalidArgumentError, match="at least 4 positions"):
            fit_alpha_modulated(short)
    # a mean path that is the pattern inverted puts the bright level below the dark one
    m = np.sin(modulated_drive(np.arange(16), 0.3, 1.0)[0])
    inverted = PhotonTrace(np.rint(900.0 - 300.0 * m) + np.array([[0], [2]]), kind="classical")
    with pytest.raises(DegenerateContrastError, match="no positive bright/dark contrast"):
        fit_alpha_modulated(inverted)


# ---------------------------------------------------------------------------
# the profiled modulated fit against a joint Nelder-Mead reference


def _nelder_mead(sse, x0, xatol, fatol):
    """scipy's Nelder-Mead on `sse` from x0: (x, sse(x))."""
    opt = minimize(sse, x0=x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol, "maxfev": 40000})
    assert opt.success, opt.message
    return opt.x, float(opt.fun)


def _modulated_reference(trace, phi_s):
    counts = trace.counts.astype(float)
    mean_path = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(counts.shape[0])
    w = 1.0 / np.maximum(se, 1e-9 * max(1.0, np.abs(mean_path).max())) ** 2
    k = np.arange(counts.shape[1])

    def sse(p):
        n_a, n_b, alpha = p
        m = np.sin(modulated_drive(k, alpha, phi_s)[0])
        return float(np.sum(w * (mean_path - 0.5 * (n_a + n_b) - 0.5 * (n_a - n_b) * m) ** 2))

    spread = max(counts.std(), 1.0)
    x0 = [mean_path.mean() + spread, max(mean_path.mean() - spread, 0.0), 0.3]
    x, fun = _nelder_mead(sse, x0, 1e-8, 1e-10)
    return dict(zip(("n_a", "n_b", "alpha"), x)), fun


def _assert_matches_reference(fit, ref):
    params, residual = ref
    for name, value in params.items():
        assert abs(fit[name] - value) <= 1e-5 * fit.stderr[name], name
    assert fit.residual <= (1.0 + 1e-12) * residual
    assert not fit.boundary


@pytest.mark.parametrize("seed,alpha,phi_s", [(1, 0.05, 1.0), (2, 0.35, 1.0), (3, 0.8, 1.0),
                                              (4, 1.2, 1.0), (5, 0.2, 0.7), (6, 0.6, 0.7),
                                              (7, 1.0, 0.7)])
def test_fit_alpha_modulated_matches_nelder_mead(seed, alpha, phi_s):
    trace = run_classical_experiment(alpha, 0.5, 64, MODEL, runs=200, seed=seed,
                                     modulated=True, phi_s=phi_s)
    fit = fit_alpha_modulated(trace, phi_s)
    _assert_matches_reference(fit, _modulated_reference(trace, phi_s))


@pytest.mark.parametrize("alpha", [-0.3, 1.8])
def test_fit_alpha_modulated_flags_alpha_outside_the_bounds(alpha):
    trace = run_classical_experiment(alpha, 0.5, 64, MODEL, runs=200, seed=8, modulated=True)
    fit = fit_alpha_modulated(trace)
    assert fit.boundary and fit.message == "alpha estimate at search bound"


# ---------------------------------------------------------------------------
# bounded scalar search


def _objective(shape: int, rng):
    """A random quadratic, cosine or kinked objective, in float arithmetic."""
    c, k = rng.uniform(-6.0, 6.0), rng.uniform(0.1, 10.0)
    if shape == 0:
        return lambda x: k * (x - c) ** 2 + c
    if shape == 1:
        return lambda x: math.cos(k * x + c)
    slope = rng.uniform(-0.9, 0.9) * k  # a V with unequal sides
    return lambda x: k * abs(x - c) + slope * (x - c)


def test_bounded_search_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(1401)
    for i in range(1200):
        func = _objective(i % 3, rng)
        low = rng.uniform(-5.0, 5.0)
        bounds = (low, low + rng.uniform(1e-3, 10.0))
        xatol = 10.0 ** rng.uniform(-12.0, -4.0)
        ref = minimize_scalar(func, bounds=bounds, method="bounded", options={"xatol": xatol})
        assert ref.success, i
        x, fx = _bounded_search(func, bounds, xatol, "x")
        assert (float(x).hex(), float(fx).hex()) == (float(ref.x).hex(), float(ref.fun).hex()), i


def test_bounded_search_failures():
    with pytest.raises(FitFailureError, match="^x search failed: the objective is not finite"):
        _bounded_search(lambda x: math.nan, (0.0, 1.0), 1e-8, "x")
    # scipy flags only a NaN; an infinite minimum fails here too
    with pytest.raises(FitFailureError, match="^x search failed: the objective is not finite"):
        _bounded_search(lambda x: math.inf, (0.0, 1.0), 1e-8, "x")
    # a kink at 0 with no tolerance closes in on 0 forever
    ref = minimize_scalar(abs, bounds=(-1.0, 1.0), method="bounded", options={"xatol": 0.0})
    assert (ref.status, ref.nfev) == (1, 500)
    with pytest.raises(FitFailureError, match="no convergence in 500 evaluations"):
        _bounded_search(abs, (-1.0, 1.0), 0.0, "x")
    # an objective infinite on part of the interval is fine if its minimum is not
    x, fx = _bounded_search(lambda x: math.inf if x < 0 else (x - 0.5) ** 2, (-1.0, 1.0),
                            1e-10, "x")
    assert x == pytest.approx(0.5, abs=1e-9) and fx < 1e-18


def test_scalar_fits_reject_a_nan_objective():
    series = corr_Sz(0.3, 0.6, 20)
    series.values[3] = np.nan
    with pytest.raises(FitFailureError, match="^alpha search failed"):
        fit_alpha(series, 0.6)
    angles = np.repeat(np.arange(0.0, 361.0, 30.0), 3)
    counts = 900.0 + 300.0 * sweep_fraction(angles, 0.02) + np.arange(angles.size) % 3
    counts[4] = np.nan
    with pytest.raises(FitFailureError, match="^phi_0 search failed"):
        fit_na_nb(ModulationTrace(angles, counts))
