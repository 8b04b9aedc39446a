"""Least-squares calibration and correlation reconstruction.

The analysis chain for a photon record is

    fit_na_nb            bright/dark levels from the rotation-sweep trace
    reconstruct_Sz_corr  photon products -> readout correlation C_Sz(N)
    fit_alpha            measurement strength from the C_Sz model
    reconstruct_Ix_corr  divide out sin^2(alpha) (and optionally the
                         measurement-induced decay) -> target correlation

All fits are derivative-free (bounded Brent for the scalar ones,
Nelder-Mead for the joint ones); the objectives are smooth and tiny, so
this is simpler and just as accurate as gradient-based solvers here.
Parameter uncertainties come from the Gauss-Newton approximation at the
optimum.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .correlation import CorrelationSeries, lag_products
from .engine import modulated_drive
from .errors import (
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
)
from .protocol import damped_cosine
from .readout import ModulationTrace, PhotonTrace, ReadoutModel, sweep_fraction

__all__ = [
    "FitResult",
    "fit_na_nb",
    "reconstruct_Sz_corr",
    "fit_alpha",
    "fit_decay",
    "fit_alpha_modulated",
    "reconstruct_Ix_corr",
    "write_json",
]


@dataclass
class FitResult:
    """Outcome of one least-squares fit.

    params/stderr are name -> value maps; `residual` is the final
    (weighted) sum of squares over `n_points` data points.  `boundary`
    flags an estimate that ran into its search bound — treat the value
    with suspicion.
    """

    params: dict
    stderr: dict
    residual: float
    n_points: int
    success: bool = True
    boundary: bool = False
    message: str = ""
    meta: dict = field(default_factory=dict, repr=False)

    def __getitem__(self, name: str) -> float:
        return self.params[name]

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())

    @classmethod
    def from_json(cls, path) -> "FitResult":
        """Read what `to_json` writes (the fit.json of `calibrate`); any
        other layout raises InvalidArgumentError naming the file and keys."""
        with open(path) as fh:
            d = json.load(fh)
        keys = set(d) if isinstance(d, dict) else set()
        missing = sorted(f.name for f in fields(cls) if f.name not in keys
                         and f.default is MISSING and f.default_factory is MISSING)
        unexpected = sorted(keys - {f.name for f in fields(cls)})
        if missing or unexpected:
            raise InvalidArgumentError(
                f"{path} is not a fit.json as `calibrate` writes it: "
                f"missing keys {missing}, unexpected keys {unexpected}")
        return cls(**d)


def write_json(path, payload: dict) -> None:
    """Write `payload` as every JSON artifact is written: sorted keys, indent 1.

    A NaN or infinite number raises InvalidArgumentError naming `path`
    before the file is opened, so no artifact holds invalid JSON.
    """
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# photon-level calibration


def _angle_groups(angles_deg, counts):
    """Per-angle sample means and standard errors of a sweep record."""
    angles_deg = np.asarray(angles_deg, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if angles_deg.shape != counts.shape:
        raise InvalidArgumentError("angles and counts must have equal length")
    uniq = np.unique(angles_deg)
    if uniq.size < 4:
        raise InvalidArgumentError("need at least 4 distinct sweep angles to fit 3 parameters")
    means = np.empty(uniq.size)
    errs = np.empty(uniq.size)
    for i, ang in enumerate(uniq):
        grp = counts[angles_deg == ang]
        if grp.size < 2:
            raise InvalidArgumentError(f"angle {ang} deg has fewer than 2 samples")
        means[i] = grp.mean()
        errs[i] = grp.std(ddof=1) / np.sqrt(grp.size)
    # floor the errors so a noiseless synthetic sweep degrades to an
    # unweighted fit instead of dividing by zero
    errs = np.maximum(errs, 1e-9 * max(1.0, np.abs(means).max()))
    return uniq, means, errs


#: search interval of the sweep offset phi_0, rad, and its tolerance
PHI0_BOUNDS = (-0.5, 0.5)
PHI0_XATOL = 1e-10


def fit_na_nb(trace: ModulationTrace) -> FitResult:
    """Recover (n_a, n_b, phi_0) from a rotation-sweep photon record.

    The per-angle means of `trace` follow

        n(k) = a + b sweep_fraction(phi_k, phi_0),  a = (n_a+n_b)/2, b = (n_a-n_b)/2

    which is linear in (a, b) at fixed phi_0; the fit profiles the
    weighted linear solution over phi_0 with a bounded scalar search.
    Raises DegenerateContrastError when the recovered contrast is not
    positive by at least 3 standard errors.
    """
    xs, m, se = _angle_groups(trace.angles_deg, trace.counts)
    w = 1.0 / se**2

    def solve(phi0):
        design = np.column_stack([np.ones_like(xs), sweep_fraction(xs, phi0)])
        lhs = design.T @ (w[:, None] * design)
        coef = np.linalg.solve(lhs, design.T @ (w * m))
        r = m - design @ coef
        return float(r @ (w * r)), coef, lhs

    opt = minimize_scalar(lambda p: solve(p)[0], bounds=PHI0_BOUNDS, method="bounded",
                          options={"xatol": PHI0_XATOL})
    if not opt.success:
        raise FitFailureError(f"phi_0 search failed: {opt.message}")
    phi0 = float(opt.x)
    residual, (a, b), lhs = solve(phi0)

    cov = np.linalg.inv(lhs)  # weights are inverse variances, so no residual scale
    var_a, var_b, cov_ab = cov[0, 0], cov[1, 1], cov[0, 1]
    contrast = 2.0 * b
    contrast_se = 2.0 * np.sqrt(var_b)
    if contrast < 3.0 * contrast_se:
        raise DegenerateContrastError(
            f"contrast {contrast:.3g} below noise (3 sigma = {3 * contrast_se:.3g})")

    # profile curvature for the phi_0 uncertainty (delta-chi-square = 1)
    h = 1e-4
    curv = (solve(phi0 + h)[0] - 2 * residual + solve(phi0 - h)[0]) / h**2
    phi0_se = float(np.sqrt(2.0 / curv)) if curv > 0 else float("inf")

    boundary = min(phi0 - PHI0_BOUNDS[0], PHI0_BOUNDS[1] - phi0) < 10 * PHI0_XATOL
    return FitResult(
        params={"n_a": float(a + b), "n_b": float(a - b), "phi_0": phi0},
        stderr={
            "n_a": float(np.sqrt(var_a + var_b + 2 * cov_ab)),
            "n_b": float(np.sqrt(var_a + var_b - 2 * cov_ab)),
            "phi_0": phi0_se,
        },
        residual=residual,
        n_points=int(xs.size),
        success=bool(opt.success),
        boundary=bool(boundary),
        message="phi_0 estimate at search bound" if boundary else "",
    )


# ---------------------------------------------------------------------------
# correlation reconstruction


def reconstruct_Sz_corr(
    trace: PhotonTrace,
    model: ReadoutModel,
    max_lag: int | None = None,
) -> CorrelationSeries:
    """Centered, contrast-normalised readout correlation from photons:

        C_Sz(N) = 4 (C_n(N) - n_av^2) / (n_a - n_b)^2

    The estimator follows the trace kind.  A quantum trace takes the
    'ensemble' lag-from-start products across runs, whose reference is
    the polarising measurement in column 0, so it must be self-polarised
    (`first_lag` 0).  A classical trace is stationary and pools the lag-N
    products inside each run ('time-average').  `meta["estimator"]`
    names the one used.  Standard errors are those of the product means
    scaled by 4/(n_a - n_b)^2; calibration uncertainty is not propagated.
    """
    contrast = model.contrast
    if contrast <= 0:
        raise DegenerateContrastError("n_a must exceed n_b to normalise the correlation")
    estimator = "ensemble" if trace.kind == "quantum" else "time-average"
    if estimator == "ensemble" and trace.first_lag != 0:
        raise InvalidArgumentError(
            "ensemble estimator needs the reference measurement in column 0 "
            "(self-polarised records)")
    counts = trace.counts.astype(float)
    length = counts.shape[1]
    if max_lag is None:
        max_lag = length - 1 if estimator == "ensemble" else min(length - 1, length // 2)
    mean, std, count = lag_products(counts, max_lag, estimator)
    scale = 4.0 / contrast**2
    vals = scale * (mean - model.n_av**2)
    errs = scale * std / np.sqrt(count)
    lags = np.arange(1, max_lag + 1)

    return CorrelationSeries(
        lags, vals, errs, kind="Sz-reconstructed",
        meta={"estimator": estimator, "n_a": model.n_a, "n_b": model.n_b},
    )


#: the largest per-lag gain `reconstruct_Ix_corr` applies before it refuses
MAX_GAIN = 1e3


def reconstruct_Ix_corr(
    series: CorrelationSeries,
    alpha: float,
    undo_decay: bool = False,
) -> CorrelationSeries:
    """Target-spin correlation from the readout one: divide by sin^2(alpha),
    optionally also undo the per-cycle decay e^{-(N-1) alpha^2/4}.

    Values and standard errors are scaled identically (the lag-N gain is
    e^{(N-1) alpha^2/4} / sin^2(alpha)); if any lag's gain exceeds
    MAX_GAIN (1e3) the reconstruction would mostly amplify noise and an
    AmplificationError is raised.
    """
    s2 = np.sin(alpha) ** 2
    if s2 < 1e-6:
        raise AmplificationError(f"sin^2(alpha) = {s2:.2e} is too small to divide out")
    gain = np.full(series.lags.shape, 1.0 / s2)
    if undo_decay:
        gain *= np.exp((series.lags - 1) * alpha**2 / 4.0)
    worst = float(gain.max())
    if worst > MAX_GAIN:
        raise AmplificationError(
            f"lag {series.lags[int(gain.argmax())]} gain {worst:.3g} exceeds MAX_GAIN {MAX_GAIN:.3g}")
    meta = dict(series.meta, alpha=alpha, undo_decay=undo_decay)
    return CorrelationSeries(series.lags, series.values * gain, series.stderr * gain,
                             kind="Ix-reconstructed", meta=meta)


# ---------------------------------------------------------------------------
# measurement-strength fits


def _gauss_newton_stderr(jac, w, scale: float = 1.0) -> np.ndarray:
    """Parameter standard errors sqrt(diag((J^T W J / scale)^-1)), inf if singular."""
    try:
        cov = np.linalg.inv(jac.T @ (w[:, None] * jac) / scale)
    except np.linalg.LinAlgError:
        return np.full(jac.shape[1], np.inf)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


#: search interval of the strength alpha, rad, and its tolerance
ALPHA_BOUNDS = (1e-3, np.pi / 2 - 1e-3)
ALPHA_XATOL = 1e-12


def fit_alpha(
    series: CorrelationSeries,
    phi: float,
    weighting: str = "full",
    boxcar_fraction: float = 1.0 / 3.0,
) -> FitResult:
    """Measurement strength from a readout correlation series.

    Minimises sum_N w_N (C(N) - damped_cosine(alpha, phi, N, sin^2 alpha))^2 with
    w = 1/stderr^2 when every stderr is positive; a series with a zero
    stderr (a model series) is fitted unweighted, and its alpha stderr is
    scaled by the residual variance.  weighting='boxcar'
    does a two-pass fit: after a full-window pass, lags beyond
    boxcar_fraction of the fitted 1/e decay length 4/alpha^2 are dropped
    and the fit repeated — tail lags are pure noise once the signal has
    decayed, and cutting them reduces the bias they induce.  A lag with an
    infinite stderr carries no information and is left out.
    """
    if weighting not in ("full", "boxcar"):
        raise InvalidArgumentError(f"weighting must be 'full' or 'boxcar', got {weighting!r}")
    if weighting == "boxcar" and not 0 < boxcar_fraction <= 1:
        raise InvalidArgumentError(f"boxcar_fraction must lie in (0, 1], got {boxcar_fraction}")
    se = series.stderr
    if not np.isfinite(se).any():
        raise InvalidArgumentError("no lag of the series has a finite stderr")
    weighted = bool(np.all(se > 0))
    w_full = 1.0 / se**2 if weighted else np.ones_like(series.values)
    keep = w_full > 0
    lags, values, w_full = series.lags[keep], series.values[keep], w_full[keep]
    if lags.size < 2:
        raise InvalidArgumentError("need at least 2 lags to fit alpha")

    def run_pass(sel):
        n, v, w = lags[sel], values[sel], w_full[sel]

        def sse(a):
            return float(np.sum(w * (v - damped_cosine(a, phi, n, np.sin(a) ** 2)) ** 2))

        opt = minimize_scalar(sse, bounds=ALPHA_BOUNDS, method="bounded",
                              options={"xatol": ALPHA_XATOL})
        if not opt.success or not np.isfinite(opt.fun):
            raise FitFailureError(f"alpha search failed: {opt.message}")
        return float(opt.x), float(opt.fun), n, v, w

    sel = np.ones(lags.size, dtype=bool)
    a_hat, residual, n, v, w = run_pass(sel)
    window = None
    if weighting == "boxcar":
        window = boxcar_fraction * 4.0 / a_hat**2
        sel = lags <= max(window, lags[1])  # the lags are sorted: keep the first two
        a_hat, residual, n, v, w = run_pass(sel)

    # Gauss-Newton stderr from the analytic model derivative, a damped
    # cosine whose per-lag amplitude is d/da of sin^2(a) e^{-(N-1) a^2/4}
    d_amp = np.sin(2 * a_hat) - np.sin(a_hat) ** 2 * (n - 1) * a_hat / 2.0
    dm = damped_cosine(a_hat, phi, n, d_amp)
    fisher = float(np.sum(w * dm**2))
    if not weighted:
        dof = max(n.size - 1, 1)
        fisher /= residual / dof if residual > 0 else 1.0
    a_se = 1.0 / np.sqrt(fisher) if fisher > 0 else float("inf")

    boundary = min(a_hat - ALPHA_BOUNDS[0], ALPHA_BOUNDS[1] - a_hat) < 1e-6
    return FitResult(
        params={"alpha": a_hat},
        stderr={"alpha": a_se},
        residual=residual,
        n_points=int(n.size),
        boundary=bool(boundary),
        message="alpha estimate at search bound" if boundary else "",
        meta={"weighting": weighting, "window": window, "phi": phi},
    )


def fit_decay(
    lags,
    values,
    phi: float,
    amp0: float | None = None,
    gamma0: float = 0.01,
) -> FitResult:
    """Damped-oscillation fit  A cos(phi N) e^{-Gamma (N-1)}  over lags N.

    Works on any mean-signal or correlation series (arrays, not
    CorrelationSeries, so run-averaged zeta paths can be fitted too).
    Unweighted; the stderr is scaled by the residual variance.
    """
    n = np.asarray(lags, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.shape != v.shape or n.size < 3:
        raise InvalidArgumentError("need matching lags/values with at least 3 points")
    if amp0 is None:
        amp0 = float(np.abs(v).max())

    def model(amp, gam):
        return amp * np.cos(phi * n) * np.exp(-gam * (n - 1))

    opt = minimize(lambda p: float(np.sum((v - model(*p)) ** 2)), x0=[amp0, gamma0],
                   method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-15, "maxfev": 20000})
    if not opt.success:
        raise FitFailureError(f"decay fit did not converge: {opt.message}")
    amp, gam = map(float, opt.x)

    env = model(1.0, gam)
    scale = opt.fun / max(n.size - 2, 1) if opt.fun > 0 else 1.0
    jac = np.column_stack([env, -amp * (n - 1) * env])
    errs = _gauss_newton_stderr(jac, np.ones_like(v), scale)
    return FitResult(
        params={"amplitude": amp, "gamma": gam},
        stderr={"amplitude": float(errs[0]), "gamma": float(errs[1])},
        residual=float(opt.fun),
        n_points=int(n.size),
        success=bool(opt.success),
        meta={"phi": phi},
    )


def fit_alpha_modulated(trace: PhotonTrace, phi_s: float = 1.0) -> FitResult:
    """Joint (n_a, n_b, alpha) fit on a phase-modulated classical record.

    The modulation pattern is deterministic and shared by every run, so
    the per-position mean photon count follows

        <n_i> = n_av + ((n_a - n_b)/2) m_i(alpha)

    with m_i the modulated spin signal; fitting the mean path pins all
    three parameters at once, unlike the random-phase record whose means
    are flat.  (The within-run autocorrelation is nearly alpha-blind
    here: the alpha term shares the carrier's period, so lag products de-
    pend on it only at second order.)  phi_s is the sequence-phase
    parameter of the modulation pattern.  Weighted by the per-position
    standard errors of the mean.
    """
    counts = trace.counts.astype(float)
    runs, length = counts.shape
    if runs < 2:
        raise InvalidArgumentError("need at least 2 runs to estimate the mean path")
    mean_path = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(runs)
    se = np.maximum(se, 1e-9 * max(1.0, np.abs(mean_path).max()))
    w = 1.0 / se**2
    k = np.arange(length)

    def sse(p):
        n_a, n_b, alpha = p
        m = np.sin(modulated_drive(k, alpha, phi_s)[0])
        model = 0.5 * (n_a + n_b) + 0.5 * (n_a - n_b) * m
        return float(np.sum(w * (mean_path - model) ** 2))

    spread = max(counts.std(), 1.0)
    x0 = [mean_path.mean() + spread, max(mean_path.mean() - spread, 0.0), 0.3]
    opt = minimize(sse, x0=x0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 40000})
    if not opt.success:
        raise FitFailureError(f"modulated calibration fit did not converge: {opt.message}")
    n_a, n_b, alpha = map(float, opt.x)
    if n_a - n_b <= 0:
        raise DegenerateContrastError("modulated fit found no positive bright/dark contrast")

    angle, slope = modulated_drive(k, abs(alpha), phi_s)
    m = np.sin(angle)
    jac = np.column_stack([0.5 * (1.0 + m), 0.5 * (1.0 - m),
                           0.5 * (n_a - n_b) * (np.cos(angle) * slope)])
    errs = _gauss_newton_stderr(jac, w)
    return FitResult(
        params={"n_a": n_a, "n_b": n_b, "alpha": abs(alpha)},
        stderr={"n_a": float(errs[0]), "n_b": float(errs[1]), "alpha": float(errs[2])},
        residual=float(opt.fun),
        n_points=int(length),
        success=bool(opt.success),
        meta={"phi_s": phi_s},
    )
