"""Command-line pipelines: simulate, calibrate, reconstruct, test.

Subcommands (all driven by a JSON config plus a few override flags):

    simulate    quantum photon record                     -> trace.csv
    classical   classical control record                  -> trace.csv
    calibrate   rotation sweep + (n_a, n_b, phi_0) fit    -> modulation.csv, fit.json
    correlate   photon trace -> readout correlation       -> corr_sz.csv
    lgtest      correlation series -> LG functional       -> lg.csv
    report      full chain: trace, calibration, C_Sz,
                alpha fit, C_Ix, LG                       -> all of the above + summary.json

Config schema (JSON, "schema": 1): "kind" is quantum | classical |
classical-modulated, with blocks "protocol" (alpha, phi, cycles,
prepolarized) or "classical" (alpha, theta_step, measurements_per_run,
phi_s), plus "readout" (n_a, n_b, phi_0, repetitions), optional "charge"
(p_minus, nv0_mean) and top-level runs / seed / workers / max_lag /
undo_decay / boxcar defaults that the flags override.

Everything is deterministic given the seed: the trace engine splits the
seed by run chunk, the calibration sweep uses the reserved auxiliary
stream (1, 0), and files are written with repr floats / sorted JSON
keys, so repeated invocations produce byte-identical artifacts.  The
--workers flag and the workers key are accepted and ignored: sampling
runs in one process.

Exit codes: 0 success, 2 configuration/argument error, 3 fit failure
(including noise amplification), 4 degenerate contrast.

The modulated classical kind is a calibration variant — `report` stops
after the joint (n_a, n_b, alpha) fit for it, because the Leggett-Garg
normalisation only makes sense for the random-phase record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import calibrate as cal
from . import readout as ro
from .correlation import CorrelationSeries
from .errors import (
    AmbiguousRegimeError,
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
    UnsupportedStateError,
)
from .lg import lg_function
from .protocol import ProtocolConfig

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


def aux_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Auxiliary deterministic stream (calibration sweep etc.).

    Uses a two-element spawn key so it can never collide with the trace
    engine's single-element per-chunk keys.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, stream)))


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg.get("schema") != SCHEMA_VERSION:
        raise InvalidArgumentError(
            f"config schema must be {SCHEMA_VERSION}, got {cfg.get('schema')!r}")
    if cfg.get("kind") not in ("quantum", "classical", "classical-modulated"):
        raise InvalidArgumentError(f"unknown experiment kind {cfg.get('kind')!r}")
    return cfg


def _need(cfg: dict, block: str) -> dict:
    try:
        return cfg[block]
    except KeyError:
        raise InvalidArgumentError(f"config is missing the '{block}' block") from None


def _protocol_from(cfg: dict) -> ProtocolConfig:
    p = _need(cfg, "protocol")
    return ProtocolConfig(
        alpha=float(p["alpha"]),
        phi=float(p["phi"]),
        cycles=int(p["cycles"]),
        prepolarized=bool(p.get("prepolarized", False)),
    )


def _readout_from(cfg: dict) -> ro.ReadoutModel:
    r = _need(cfg, "readout")
    return ro.ReadoutModel(
        n_a=float(r["n_a"]),
        n_b=float(r["n_b"]),
        phi_0=float(r.get("phi_0", 0.0)),
        repetitions=int(r.get("repetitions", 200)),
    )


def _charge_from(cfg: dict) -> ro.ChargeModel | None:
    c = cfg.get("charge")
    if c is None:
        return None
    nv0 = c.get("nv0_mean")
    return ro.ChargeModel(p_minus=float(c["p_minus"]),
                          nv0_mean=None if nv0 is None else float(nv0))


def _setting(args, cfg: dict, name: str, default):
    """Flag value if given, else config value, else default."""
    v = getattr(args, name, None)
    if v is not None:
        return v
    v = cfg.get(name)
    return default if v is None else v


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(out: str, name: str, payload: dict) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pipeline stages (shared by the stage subcommands and `report`)


def _make_trace(args, cfg: dict, out: str) -> ro.PhotonTrace:
    """Simulate the photon record and write it to <out>/trace.csv."""
    seed = int(_setting(args, cfg, "seed", 0))
    runs = int(_setting(args, cfg, "runs", 1))
    model = _readout_from(cfg)
    if cfg["kind"] == "quantum":
        trace = ro.run_quantum_experiment(
            _protocol_from(cfg), model, runs, seed,
            charge=_charge_from(cfg))
    else:
        c = _need(cfg, "classical")
        trace = ro.run_classical_experiment(
            alpha=float(c["alpha"]),
            theta_step=float(c["theta_step"]),
            measurements_per_run=int(c["measurements_per_run"]),
            model=model,
            runs=runs,
            seed=seed,
            modulated=cfg["kind"] == "classical-modulated",
            phi_s=float(c.get("phi_s", 1.0)),
        )
    trace.to_csv(os.path.join(out, "trace.csv"))
    return trace


def _calibrate(args, cfg: dict, out: str) -> cal.FitResult:
    """Simulate the rotation sweep, write <out>/modulation.csv and fit it."""
    seed = int(_setting(args, cfg, "seed", 0))
    sweep = ro.modulation_trace(_readout_from(cfg), aux_rng(seed, 0))
    sweep.to_csv(os.path.join(out, "modulation.csv"))
    return cal.fit_na_nb(sweep)


def _reconstruct(args, cfg: dict, trace: ro.PhotonTrace, model: ro.ReadoutModel):
    max_lag = _setting(args, cfg, "max_lag", None)
    return cal.reconstruct_Sz_corr(trace, model,
                                   max_lag=None if max_lag is None else int(max_lag))


def _lg_stage(series: CorrelationSeries, out: str) -> dict:
    """Leggett-Garg series of `series` to <out>/lg.csv; returns its verdict."""
    lgs = lg_function(series)
    lgs.to_csv(os.path.join(out, "lg.csv"))
    return {"max_lg": lgs.max_lg, "violations": int(lgs.violated.sum()),
            "violated_taus": [int(t) for t in lgs.taus[lgs.violated]]}


# ---------------------------------------------------------------------------
# subcommands


def cmd_trace(args) -> dict:
    """`simulate` and `classical`: write the photon record of an allowed kind."""
    cfg = load_config(args.config)
    if cfg["kind"] not in args.kinds:
        raise InvalidArgumentError(f"`{args.command}` needs kind in {args.kinds}, got {cfg['kind']!r}")
    out = _outdir(args)
    trace = _make_trace(args, cfg, out)
    summary = {"kind": cfg["kind"], "runs": trace.runs, "length": trace.length,
               "seed": trace.meta["seed"], "artifacts": ["trace.csv"]}
    _write_json(out, "summary.json", summary)
    return summary


def cmd_calibrate(args) -> dict:
    cfg = load_config(args.config)
    out = _outdir(args)
    fit = _calibrate(args, cfg, out)
    fit.to_json(os.path.join(out, "fit.json"))
    summary = {"kind": "calibration", "n_a": fit["n_a"], "n_b": fit["n_b"],
               "phi_0": fit["phi_0"], "artifacts": ["modulation.csv", "fit.json"]}
    _write_json(out, "summary.json", summary)
    return summary


def cmd_correlate(args) -> dict:
    cfg = load_config(args.config)
    out = _outdir(args)
    trace_path = args.trace or os.path.join(out, "trace.csv")
    trace = ro.PhotonTrace.from_csv(trace_path)
    if args.fit:
        fitted = cal.FitResult.from_json(args.fit)
        model = ro.ReadoutModel(n_a=fitted["n_a"], n_b=fitted["n_b"],
                                phi_0=fitted.params.get("phi_0", 0.0))
    else:
        model = _readout_from(cfg)
    series = _reconstruct(args, cfg, trace, model)
    series.to_csv(os.path.join(out, "corr_sz.csv"))
    summary = {"kind": trace.kind, "estimator": series.meta["estimator"],
               "max_lag": int(series.lags.max()), "artifacts": ["corr_sz.csv"]}
    _write_json(out, "summary.json", summary)
    return summary


def cmd_lgtest(args) -> dict:
    out = _outdir(args)
    corr_path = args.corr or os.path.join(out, "corr_ix.csv")
    summary = dict(_lg_stage(CorrelationSeries.from_csv(corr_path), out), artifacts=["lg.csv"])
    _write_json(out, "summary.json", summary)
    return summary


def cmd_report(args) -> dict:
    """Full pipeline: trace, calibration pre-pass, correlation, strength
    fit, normalisation and the Leggett-Garg verdict."""
    cfg = load_config(args.config)
    out = _outdir(args)
    trace = _make_trace(args, cfg, out)
    cal_fit = _calibrate(args, cfg, out)
    artifacts = ["trace.csv", "modulation.csv"]
    model = ro.ReadoutModel(n_a=cal_fit["n_a"], n_b=cal_fit["n_b"],
                            phi_0=cal_fit["phi_0"],
                            repetitions=_readout_from(cfg).repetitions)
    fits = {"calibration": cal_fit.as_dict()}
    summary = {
        "kind": cfg["kind"],
        "seed": int(_setting(args, cfg, "seed", 0)),
        "runs": trace.runs,
        "length": trace.length,
        "n_a": cal_fit["n_a"],
        "n_b": cal_fit["n_b"],
        "phi_0": cal_fit["phi_0"],
    }

    if cfg["kind"] == "classical-modulated":
        # calibration variant: joint (n_a, n_b, alpha) fit, no LG stage
        mod_fit = cal.fit_alpha_modulated(
            trace, phi_s=float(_need(cfg, "classical").get("phi_s", 1.0)))
        fits["modulated"] = mod_fit.as_dict()
        summary.update(alpha_fit=mod_fit["alpha"], max_lg=None, violations=0)
    else:
        series = _reconstruct(args, cfg, trace, model)
        series.to_csv(os.path.join(out, "corr_sz.csv"))
        artifacts.append("corr_sz.csv")

        if cfg["kind"] == "quantum":
            boxcar = _setting(args, cfg, "boxcar", None)
            weighting = "boxcar" if boxcar is not None else "full"
            phi = float(_need(cfg, "protocol")["phi"])
            alpha_fit = cal.fit_alpha(series, phi, weighting=weighting,
                                      boxcar_fraction=float(boxcar or 1.0 / 3.0))
            fits["alpha"] = alpha_fit.as_dict()
            a_hat = alpha_fit["alpha"]
            normalized = cal.reconstruct_Ix_corr(
                series, a_hat, undo_decay=bool(_setting(args, cfg, "undo_decay", False)))
            summary.update(alpha_fit=a_hat, alpha_stderr=alpha_fit.stderr["alpha"])
        else:
            # classical drive: the strength is set, not fitted; normalise by
            # alpha^2 so the target is the bare random-phase cos(theta k)/2
            a_known = float(_need(cfg, "classical")["alpha"])
            if a_known**2 < 1e-6:
                raise AmplificationError("classical alpha too small to normalise by alpha^2")
            normalized = CorrelationSeries(
                series.lags, series.values / a_known**2, series.stderr / a_known**2,
                kind="zz-normalized", meta=dict(series.meta, alpha=a_known))
            summary.update(alpha_fit=None)
        normalized.to_csv(os.path.join(out, "corr_ix.csv"))
        artifacts.append("corr_ix.csv")

        summary.update(_lg_stage(normalized, out))
        artifacts.append("lg.csv")

    _write_json(out, "fit.json", fits)
    artifacts.append("fit.json")

    summary["artifacts"] = sorted(artifacts)
    _write_json(out, "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# argument parsing / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintrack",
        description="sequential weak-measurement simulation and analysis pipelines",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--runs", type=int, default=None, help="override the number of runs")
    common.add_argument("--workers", type=int, default=None,
                        help="accepted and ignored (sampling runs in one process)")
    common.add_argument("--max-lag", dest="max_lag", type=int, default=None,
                        help="largest correlation lag")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("simulate", parents=[common], help="write the quantum photon record")
    p.set_defaults(func=cmd_trace, kinds=("quantum",))
    p = sub.add_parser("classical", parents=[common], help="write the classical control record")
    p.set_defaults(func=cmd_trace, kinds=("classical", "classical-modulated"))
    sub.add_parser("calibrate", parents=[common],
                   help="rotation sweep and bright/dark fit").set_defaults(func=cmd_calibrate)

    p = sub.add_parser("correlate", parents=[common], help="reconstruct the readout correlation")
    p.add_argument("--trace", default=None, help="photon trace CSV (default: <out>/trace.csv)")
    p.add_argument("--fit", default=None, help="use calibrated levels from this fit.json")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("lgtest", parents=[common], help="Leggett-Garg test of a correlation CSV")
    p.add_argument("--corr", default=None, help="correlation CSV (default: <out>/corr_ix.csv)")
    p.set_defaults(func=cmd_lgtest)

    p = sub.add_parser("report", parents=[common], help="full analysis pipeline")
    p.add_argument("--undo-decay", dest="undo_decay", action="store_true", default=None,
                   help="divide out the per-cycle measurement decay")
    p.add_argument("--boxcar", type=float, default=None,
                   help="boxcar window fraction for the strength fit")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (InvalidArgumentError, UnsupportedStateError, AmbiguousRegimeError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (FitFailureError, AmplificationError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except DegenerateContrastError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
