import numpy as np
import pytest

from spintrack.calibrate import (
    MAX_GAIN,
    FitResult,
    fit_alpha,
    fit_alpha_modulated,
    fit_decay,
    fit_na_nb,
    reconstruct_Ix_corr,
    reconstruct_Sz_corr,
    write_json,
)
from spintrack.correlation import CorrelationSeries, corr_Sz, ensemble_corr
from spintrack.engine import simulate_runs
from spintrack.errors import (
    AmplificationError,
    DegenerateContrastError,
    InvalidArgumentError,
)
from spintrack.protocol import ProtocolConfig
from spintrack.readout import (
    ModulationTrace,
    PhotonTrace,
    ReadoutModel,
    modulation_trace,
    run_classical_experiment,
    sweep_fraction,
)

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
    with pytest.raises(AmplificationError):
        reconstruct_Ix_corr(series, 1e-4)  # sin^2 below the hard floor
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


def test_fit_decay_on_exact_signal():
    phi, amp, gamma = 0.47, 0.31, 0.0247
    n = np.arange(1, 80)
    values = amp * np.cos(phi * n) * np.exp(-gamma * (n - 1))
    fit = fit_decay(n, values, phi)
    assert fit["amplitude"] == pytest.approx(amp, abs=1e-7)
    assert fit["gamma"] == pytest.approx(gamma, abs=1e-7)
    with pytest.raises(InvalidArgumentError):
        fit_decay(n[:2], values[:2], phi)


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
