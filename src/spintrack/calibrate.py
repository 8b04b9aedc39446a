"""Least-squares calibration and correlation reconstruction.

The analysis chain for a photon record is

    fit_na_nb            bright/dark levels from the rotation-sweep trace
    reconstruct_Sz_corr  photon products -> readout correlation C_Sz(N)
    fit_alpha            measurement strength from the C_Sz model
    reconstruct_Ix_corr  divide out sin^2(alpha) (and optionally the
                         measurement-induced decay) -> target correlation

All fits are derivative-free and use one search, `_bounded_search`, a
bounded Brent search written here, over their one nonlinear parameter;
the joint fits are linear in the others, which `_profile_fit` solves for
at each trial value.  The objectives are smooth and tiny, so this is
simpler and just as accurate as gradient-based solvers here.
Parameter uncertainties come from the Gauss-Newton approximation at the
optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

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
        d = _read_json(path)
        keys = set(d) if isinstance(d, dict) else set()
        missing = sorted(f.name for f in fields(cls) if f.name not in keys
                         and f.default is MISSING and f.default_factory is MISSING)
        unexpected = sorted(keys - {f.name for f in fields(cls)})
        if missing or unexpected:
            raise InvalidArgumentError(
                f"{path} is not a fit.json as `calibrate` writes it: "
                f"missing keys {missing}, unexpected keys {unexpected}")
        return cls(**d)


def _read_json(path):
    """The JSON document at `path`.  Text the parser refuses, a nesting too
    deep for it or an integer too long for `int` raises InvalidArgumentError
    naming `path`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"{path}: unreadable JSON: {exc}") from None


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
# bounded scalar search

#: the most objective evaluations `_bounded_search` makes before it fails
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> float:
    return -1.0 if v < 0 else 1.0


def _bounded_search(func, bounds, xatol: float, name: str) -> tuple[float, float]:
    """(x, func(x)) at the minimum of the scalar `func` on the interval `bounds`.

    Brent's method: golden-section steps, and parabolic ones where the
    last three points allow, until x is known to about xatol.  It is a
    port of scipy.optimize.minimize_scalar(method="bounded") and returns
    the same floats.  It raises FitFailureError naming `name` after
    _MAX_EVALS evaluations, when the minimum is not finite, or when the
    last evaluation is NaN.
    """
    a, b = bounds
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = func(xf)
    fu, evals = math.inf, 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try the parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= _MAX_EVALS:
            raise FitFailureError(f"{name} search failed: no convergence in {evals} evaluations")
    if not math.isfinite(fx) or math.isnan(fu):
        raise FitFailureError(
            f"{name} search failed: the objective is not finite (minimum {fx}, last value {fu})")
    return xf, fx


def _profile_fit(design, v, w, bounds, xatol: float, name: str):
    """Weighted least squares for a model linear in all its coefficients but theta.

    At fixed theta the coefficients are the weighted linear solution for
    the columns `design(theta)`; theta minimises that solution's sum of
    squares on `bounds` (`_bounded_search`).  Returns theta and `solve`,
    which maps a theta to (residual, coefficients, X^T W X).
    """

    def solve(theta):
        x = design(theta)
        lhs = x.T @ (w[:, None] * x)
        coef = np.linalg.solve(lhs, x.T @ (w * v))
        r = v - x @ coef
        return float(r @ (w * r)), coef, lhs

    theta, _ = _bounded_search(lambda t: solve(t)[0], bounds, xatol, name)
    return theta, solve


def _at_bound(name: str, x: float, bounds) -> dict:
    """FitResult's boundary and message for x found on bounds (searches stop ~1e-8 short)."""
    hit = bool(min(x - bounds[0], bounds[1] - x) < 1e-6)
    return {"boundary": hit, "message": f"{name} estimate at search bound" if hit else ""}


# ---------------------------------------------------------------------------
# photon-level calibration


def _angle_groups(angles_deg, counts):
    """Per-angle sample means and standard errors of a sweep record."""
    angles_deg = np.asarray(angles_deg, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if angles_deg.shape != counts.shape:
        raise InvalidArgumentError("angles and counts must have equal length")
    # the distinct angles: sorted, each kept where it differs from its left
    # neighbour (np.unique would load numpy.ma on its first call)
    ordered = np.sort(angles_deg)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    uniq = ordered[first]
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
    phi0, solve = _profile_fit(
        lambda p: np.column_stack([np.ones_like(xs), sweep_fraction(xs, p)]),
        m, 1.0 / se**2, PHI0_BOUNDS, PHI0_XATOL, "phi_0")
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

    return FitResult(
        params={"n_a": float(a + b), "n_b": float(a - b), "phi_0": phi0},
        stderr={
            "n_a": float(np.sqrt(var_a + var_b + 2 * cov_ab)),
            "n_b": float(np.sqrt(var_a + var_b - 2 * cov_ab)),
            "phi_0": phi0_se,
        },
        residual=residual,
        n_points=int(xs.size),
        **_at_bound("phi_0", phi0, PHI0_BOUNDS),
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
    The int16, int32 or int64 counts go to `lag_products` as they are,
    with no float copy.
    """
    contrast = model.contrast
    if contrast <= 0:
        raise DegenerateContrastError("n_a must exceed n_b to normalise the correlation")
    estimator = "ensemble" if trace.kind == "quantum" else "time-average"
    if estimator == "ensemble" and trace.first_lag != 0:
        raise InvalidArgumentError(
            "ensemble estimator needs the reference measurement in column 0 "
            "(self-polarised records)")
    if max_lag is None:  # every lag of the ensemble, half the record of the time-average
        max_lag = trace.length - 1 if estimator == "ensemble" else trace.length // 2
    mean, std, count = lag_products(trace.counts, max_lag, estimator)
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
    if s2 * MAX_GAIN < 1.0:  # checked without dividing: sin(alpha) may be 0
        raise AmplificationError(f"gain 1/sin^2({alpha:.3g}) exceeds MAX_GAIN {MAX_GAIN:.3g}")
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


def _gauss_newton_stderr(jac, w) -> np.ndarray:
    """Parameter standard errors sqrt(diag((J^T W J)^-1)), inf if singular."""
    try:
        cov = np.linalg.inv(jac.T @ (w[:, None] * jac))
    except np.linalg.LinAlgError:
        return np.full(jac.shape[1], np.inf)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


#: search interval of the strength alpha, rad, and its tolerance
ALPHA_BOUNDS = (1e-3, np.pi / 2 - 1e-3)
ALPHA_XATOL = 1e-12


def _check_boxcar_fraction(fraction: float) -> None:
    """`fit_alpha`'s range check of its boxcar window, which `cli.read_config` runs too."""
    if not 0 < fraction <= 1:
        raise InvalidArgumentError(f"boxcar_fraction must lie in (0, 1], got {fraction}")


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
    if weighting == "boxcar":
        _check_boxcar_fraction(boxcar_fraction)
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

        return (*_bounded_search(sse, ALPHA_BOUNDS, ALPHA_XATOL, "alpha"), n, v, w)

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

    return FitResult(
        params={"alpha": a_hat},
        stderr={"alpha": a_se},
        residual=residual,
        n_points=int(n.size),
        **_at_bound("alpha", a_hat, ALPHA_BOUNDS),
        meta={"weighting": weighting, "window": window, "phi": phi},
    )


def fit_alpha_modulated(trace: PhotonTrace, phi_s: float = 1.0) -> FitResult:
    """Joint (n_a, n_b, alpha) fit on a phase-modulated classical record.

    The modulation pattern is deterministic and shared by every run, so
    the per-position mean photon count follows

        <n_i> = n_a (1 + m_i(alpha))/2 + n_b (1 - m_i(alpha))/2

    with m_i the modulated spin signal; fitting the mean path pins all
    three parameters at once, unlike the random-phase record whose means
    are flat.  (The within-run autocorrelation is nearly alpha-blind
    here: the alpha term shares the carrier's period, so lag products de-
    pend on it only at second order.)  phi_s is the sequence-phase
    parameter of the modulation pattern.  (n_a, n_b) are profiled over
    alpha on ALPHA_BOUNDS, weighted by the per-position standard errors
    of the mean.
    """
    counts = trace.counts  # int16 to int64: mean and std accumulate in float64, as on a float copy
    runs, length = counts.shape
    if runs < 2:
        raise InvalidArgumentError("need at least 2 runs to estimate the mean path")
    if length < 4:
        raise InvalidArgumentError("need at least 4 positions per run to fit 3 parameters")
    mean_path = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(runs)
    se = np.maximum(se, 1e-9 * max(1.0, np.abs(mean_path).max()))
    w = 1.0 / se**2
    k = np.arange(length)

    def design(alpha):
        m = np.sin(modulated_drive(k, alpha, phi_s)[0])
        return np.column_stack([0.5 * (1.0 + m), 0.5 * (1.0 - m)])

    alpha, solve = _profile_fit(design, mean_path, w, ALPHA_BOUNDS, ALPHA_XATOL, "alpha")
    residual, (n_a, n_b), _ = solve(alpha)
    n_a, n_b = float(n_a), float(n_b)
    if n_a - n_b <= 0:
        raise DegenerateContrastError("modulated fit found no positive bright/dark contrast")

    angle, slope = modulated_drive(k, alpha, phi_s)
    jac = np.column_stack([design(alpha), 0.5 * (n_a - n_b) * (np.cos(angle) * slope)])
    errs = _gauss_newton_stderr(jac, w)
    return FitResult(
        params={"n_a": n_a, "n_b": n_b, "alpha": alpha},
        stderr={"n_a": float(errs[0]), "n_b": float(errs[1]), "alpha": float(errs[2])},
        residual=residual,
        n_points=int(length),
        **_at_bound("alpha", alpha, ALPHA_BOUNDS),
        meta={"phi_s": phi_s},
    )
