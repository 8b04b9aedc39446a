"""Command-line pipelines: simulate, calibrate, reconstruct, test.

Subcommands (all driven by a JSON config plus a few override flags):

    simulate    quantum photon record                     -> trace.csv
    classical   classical control record                  -> trace.csv
    calibrate   rotation sweep + (n_a, n_b, phi_0) fit    -> modulation.csv, fit.json
    correlate   photon trace -> readout correlation       -> corr_sz.csv
    lgtest      correlation series -> LG functional       -> lg.csv
    report      full chain: trace, calibration, C_Sz,
                alpha fit, C_Ix, LG                       -> all of the above + summary.json

Config (JSON, "schema": 1): "kind" is quantum | classical |
classical-modulated.  `CONFIG_KEYS` lists every key once, with its type
and its default or as required; `read_config` merges the override flags,
checks every key against it, rejects a key it does not list, and `main`
passes the checked settings to every subcommand.  The block keys are the
fields of `ProtocolConfig`, `ReadoutModel`, `ChargeModel` and the
arguments of `run_classical_experiment`; `read_config` builds the first
three, so their range checks end a bad config before anything is sampled.
`ProtocolConfig.prepolarized` is not a key, because a prepolarised
record has no reference measurement for the ensemble estimator.

A command that exits non-zero leaves --out as it found it: `main` has the
command write every artifact into a staging directory and moves them into
--out only after it returns.  A killed process may leave a `.partial-*`
staging directory behind.

Everything is deterministic given the seed: the trace engine splits the
seed by run chunk, the calibration sweep uses the reserved auxiliary
stream (1, 0), and files are written with repr floats / sorted JSON
keys, so repeated invocations produce byte-identical artifacts.  The
--workers flag and the workers key are accepted and ignored: sampling
runs in one process.

Exit codes: 0 success, otherwise the `exit_code` of the raised
`spintrack.errors` class (2 configuration/argument error, 3 fit failure
including noise amplification, 4 degenerate contrast); unreadable JSON,
text or files exit 2 too.

The modulated classical kind is a calibration variant — `report` stops
after the joint (n_a, n_b, alpha) fit for it, because the Leggett-Garg
normalisation only makes sense for the random-phase record.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext loads it; load it at start-up, not in `main`)
import os
import shutil
import sys
import tempfile

import numpy as np

from . import calibrate as cal
from . import readout as ro
from .correlation import CorrelationSeries, _check_lag_products
from .errors import AmplificationError, InvalidArgumentError, SpintrackError
from .lg import lg_function
from .protocol import ProtocolConfig

__all__ = ["main", "build_parser", "read_config", "CONFIG_KEYS"]

SCHEMA_VERSION = 1
REQUIRED = "required"
#: the most photon measurements (runs x record length) a config may ask
#: for, and the most readouts of its calibration sweep (sweep samples x
#: repetitions); the int64 counts alone take 800 MB at the cap
MAX_MEASUREMENTS = 10**8

#: every config key once: (type, default), or REQUIRED for a key that must
#: be given; the blocks are tables of the same shape
_BLOCKS = {
    "protocol": {"alpha": (float, REQUIRED), "phi": (float, REQUIRED),
                 "cycles": (int, REQUIRED)},
    "classical": {"alpha": (float, REQUIRED), "theta_step": (float, REQUIRED),
                  "measurements_per_run": (int, REQUIRED), "phi_s": (float, 1.0)},
    "readout": {"n_a": (float, REQUIRED), "n_b": (float, REQUIRED),
                "phi_0": (float, 0.0), "repetitions": (int, 200)},
    "charge": {"p_minus": (float, REQUIRED), "nv0_mean": (float, None)},
}
_TOP_KEYS = {"schema": (int, REQUIRED), "kind": (str, REQUIRED), "runs": (int, 1),
             "seed": (int, 0), "workers": (int, 1), "max_lag": (int, None),
             "undo_decay": (bool, False), "boxcar": (float, None)}


def _with_blocks(**blocks) -> dict:
    return dict(_TOP_KEYS, **{name: (_BLOCKS[name], need) for name, need in blocks.items()})


#: the keys of each kind: the top-level ones and the blocks it reads
CONFIG_KEYS = {
    "quantum": _with_blocks(protocol=REQUIRED, readout=REQUIRED, charge=None),
    "classical": _with_blocks(classical=REQUIRED, readout=REQUIRED),
    "classical-modulated": _with_blocks(classical=REQUIRED, readout=REQUIRED),
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string"}


def aux_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Auxiliary deterministic stream (calibration sweep etc.).

    Uses a two-element spawn key so it can never collide with the trace
    engine's single-element per-chunk keys.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, stream)))


# ---------------------------------------------------------------------------
# config reader


def load_config(path: str):
    """The JSON document at `path`, as read; `read_config` checks it."""
    return cal._read_json(path)


def _typed(kind: type, value, name: str):
    """`value` as `kind`: a bool is JSON true/false, an int an integer or an
    integral float, a float any finite number (coerced with `float`)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool and isinstance(value, bool) or kind is str and isinstance(value, str):
        return value
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    raise InvalidArgumentError(
        f"config key '{name}' must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _checked(table: dict, block, where: str) -> dict:
    """Every key of `table` read from the object `block`, defaults filled in."""
    if not isinstance(block, dict):
        raise InvalidArgumentError(
            f"config block '{where[:-1]}' must be a JSON object, got {json.dumps(block)}")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise InvalidArgumentError(
            "unknown config key " + ", ".join(f"'{where}{key}'" for key in unknown))
    settings = {}
    for key, (kind, default) in table.items():
        value, name = block.get(key), where + key
        if value is None and default is REQUIRED:
            raise InvalidArgumentError(f"config key '{name}' is required")
        if value is None:
            settings[key] = default
        elif isinstance(kind, dict):
            settings[key] = _checked(kind, value, name + ".")
        else:
            settings[key] = _typed(kind, value, name)
    return settings


def read_config(args) -> dict:
    """Checked settings of the config at `args.config`, flags merged in; the
    readout, protocol and charge blocks come back as the objects they configure."""
    raw = load_config(args.config)
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config must be a JSON object, got {json.dumps(raw)}")
    if isinstance(raw.get("schema"), bool) or raw.get("schema") != SCHEMA_VERSION:
        raise InvalidArgumentError(
            f"config schema must be {SCHEMA_VERSION}, got {json.dumps(raw.get('schema'))}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in CONFIG_KEYS:
        raise InvalidArgumentError(f"unknown experiment kind {json.dumps(kind)}")
    kinds = getattr(args, "kinds", CONFIG_KEYS)
    if kind not in kinds:
        raise InvalidArgumentError(f"`{args.command}` needs kind in {kinds}, got {kind!r}")
    flags = {key: getattr(args, key) for key in _TOP_KEYS if getattr(args, key, None) is not None}
    settings = _checked(CONFIG_KEYS[kind], dict(raw, **flags), "")
    for key, low in (("seed", 0), ("runs", 1)):
        if settings[key] < low:
            raise InvalidArgumentError(f"config key '{key}' must be >= {low}, got {settings[key]}")
    # the blocks become the objects they configure, so their range checks
    # run here, before anything is sampled
    settings["readout"] = ro.ReadoutModel(**settings["readout"])
    if kind == "quantum":
        settings["protocol"] = ProtocolConfig(**settings["protocol"])
        if settings["charge"] is not None:
            settings["charge"] = ro.ChargeModel(**settings["charge"])
        length = settings["protocol"].cycles + 1
    else:
        length = settings["classical"]["measurements_per_run"]
        if length < 1:
            raise InvalidArgumentError(
                f"config key 'classical.measurements_per_run' must be >= 1, got {length}")
    if settings["boxcar"] is not None:
        cal._check_boxcar_fraction(settings["boxcar"])
    if settings["runs"] * length > MAX_MEASUREMENTS:
        raise InvalidArgumentError(
            f"config key 'runs' gives {settings['runs']} x {length} measurements, above the "
            f"cap MAX_MEASUREMENTS = {MAX_MEASUREMENTS}")
    reps = settings["readout"].repetitions
    if ro.SWEEP_SAMPLES * reps > MAX_MEASUREMENTS:
        raise InvalidArgumentError(
            f"config key 'readout.repetitions' gives {ro.SWEEP_SAMPLES} x {reps} sweep draws, "
            f"above the cap MAX_MEASUREMENTS = {MAX_MEASUREMENTS}")
    # a given max_lag must fit the record `report` is about to sample;
    # `correlate`'s record is the trace it reads
    command, max_lag = getattr(args, "command", None), settings["max_lag"]
    if max_lag is not None and command in ("report", "correlate"):
        _check_lag_products(max_lag, None, length=length if command == "report" else None)
    return settings


def _fit_levels(path: str) -> ro.ReadoutModel:
    """The calibrated levels (n_a, n_b, phi_0) in the fit.json `calibrate` wrote."""
    params = cal.FitResult.from_json(path).params
    levels = dict({"phi_0": 0.0}, **params) if isinstance(params, dict) else {}
    bad = [k for k in ("n_a", "n_b", "phi_0") if type(levels.get(k)) not in (int, float)]
    if bad:
        raise InvalidArgumentError(
            f"{path} has no calibrated levels: params {bad} missing or not numbers")
    return ro.ReadoutModel(levels["n_a"], levels["n_b"], levels["phi_0"])


# ---------------------------------------------------------------------------
# pipeline stages (shared by the stage subcommands and `report`)


def _make_trace(settings: dict, out: str) -> ro.PhotonTrace:
    """Simulate the photon record and write it to <out>/trace.csv."""
    model, runs, seed = settings["readout"], settings["runs"], settings["seed"]
    if settings["kind"] == "quantum":
        trace = ro.run_quantum_experiment(settings["protocol"], model, runs, seed,
                                          charge=settings["charge"])
    else:
        trace = ro.run_classical_experiment(
            **settings["classical"], model=model, runs=runs, seed=seed,
            modulated=settings["kind"] == "classical-modulated")
    trace.to_csv(os.path.join(out, "trace.csv"))
    return trace


def _calibrate(settings: dict, out: str) -> cal.FitResult:
    """Simulate the rotation sweep, write <out>/modulation.csv and fit it."""
    sweep = ro.modulation_trace(settings["readout"], aux_rng(settings["seed"], 0))
    sweep.to_csv(os.path.join(out, "modulation.csv"))
    return cal.fit_na_nb(sweep)


def _lg_stage(series: CorrelationSeries, out: str) -> dict:
    """Leggett-Garg series of `series` to <out>/lg.csv; returns its verdict."""
    lgs = lg_function(series)
    lgs.to_csv(os.path.join(out, "lg.csv"))
    return {"max_lg": lgs.max_lg, "violations": int(lgs.violated.sum()),
            "violated_taus": [int(t) for t in lgs.taus[lgs.violated]]}


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags and the checked settings, writes
# its artifacts into settings["staging"] and returns the summary that `main`
# writes to summary.json; inputs resolve against --out


def cmd_trace(args, settings: dict) -> dict:
    """`simulate` and `classical`: write the photon record of an allowed kind
    (`read_config` checks the kind)."""
    trace = _make_trace(settings, settings["staging"])
    return {"kind": settings["kind"], "runs": trace.runs, "length": trace.length,
            "seed": trace.meta["seed"], "artifacts": ["trace.csv"]}


def cmd_calibrate(args, settings: dict) -> dict:
    fit = _calibrate(settings, settings["staging"])
    fit.to_json(os.path.join(settings["staging"], "fit.json"))
    return {"kind": "calibration", "n_a": fit["n_a"], "n_b": fit["n_b"],
            "phi_0": fit["phi_0"], "artifacts": ["modulation.csv", "fit.json"]}


def cmd_correlate(args, settings: dict) -> dict:
    """The readout correlation of the trace, with the configured levels or
    those of --fit."""
    trace = ro.PhotonTrace.from_csv(args.trace or os.path.join(args.out, "trace.csv"))
    model = _fit_levels(args.fit) if args.fit else settings["readout"]
    series = cal.reconstruct_Sz_corr(trace, model, max_lag=settings["max_lag"])
    series.to_csv(os.path.join(settings["staging"], "corr_sz.csv"))
    return {"kind": trace.kind, "estimator": series.meta["estimator"],
            "max_lag": int(series.lags.max()), "artifacts": ["corr_sz.csv"]}


def cmd_lgtest(args, settings: dict) -> dict:
    series = CorrelationSeries.from_csv(args.corr or os.path.join(args.out, "corr_ix.csv"))
    return dict(_lg_stage(series, settings["staging"]), artifacts=["lg.csv"])


def cmd_report(args, settings: dict) -> dict:
    """Full pipeline: trace, calibration pre-pass, correlation, strength
    fit, normalisation and the Leggett-Garg verdict."""
    out, kind = settings["staging"], settings["kind"]
    trace = _make_trace(settings, out)
    cal_fit = _calibrate(settings, out)
    artifacts = ["trace.csv", "modulation.csv"]
    model = ro.ReadoutModel(n_a=cal_fit["n_a"], n_b=cal_fit["n_b"])
    fits = {"calibration": cal_fit.as_dict()}
    summary = {
        "kind": kind,
        "seed": settings["seed"],
        "runs": trace.runs,
        "length": trace.length,
        "n_a": cal_fit["n_a"],
        "n_b": cal_fit["n_b"],
        "phi_0": cal_fit["phi_0"],
    }

    if kind == "classical-modulated":
        # calibration variant: joint (n_a, n_b, alpha) fit, no LG stage
        mod_fit = cal.fit_alpha_modulated(trace, phi_s=settings["classical"]["phi_s"])
        fits["modulated"] = mod_fit.as_dict()
        summary.update(alpha_fit=mod_fit["alpha"], max_lg=None, violations=0)
    else:
        series = cal.reconstruct_Sz_corr(trace, model, max_lag=settings["max_lag"])
        series.to_csv(os.path.join(out, "corr_sz.csv"))
        artifacts.append("corr_sz.csv")

        if kind == "quantum":
            boxcar = settings["boxcar"]
            alpha_fit = cal.fit_alpha(series, settings["protocol"].phi,
                                      weighting="full" if boxcar is None else "boxcar",
                                      boxcar_fraction=boxcar)
            fits["alpha"] = alpha_fit.as_dict()
            a_hat = alpha_fit["alpha"]
            normalized = cal.reconstruct_Ix_corr(series, a_hat,
                                                 undo_decay=settings["undo_decay"])
            summary.update(alpha_fit=a_hat, alpha_stderr=alpha_fit.stderr["alpha"])
        else:
            # classical drive: the strength is set, not fitted; normalise by
            # alpha^2 so the target is the bare random-phase cos(theta k)/2;
            # its gain obeys MAX_GAIN, checked without dividing (alpha may be 0)
            a_known = settings["classical"]["alpha"]
            if a_known**2 * cal.MAX_GAIN < 1.0:
                raise AmplificationError(f"classical alpha {a_known:.3g}: gain 1/alpha^2 "
                                         f"exceeds MAX_GAIN {cal.MAX_GAIN:.3g}")
            normalized = CorrelationSeries(
                series.lags, series.values / a_known**2, series.stderr / a_known**2,
                kind="zz-normalized", meta=dict(series.meta, alpha=a_known))
            summary.update(alpha_fit=None)
        normalized.to_csv(os.path.join(out, "corr_ix.csv"))
        artifacts.append("corr_ix.csv")

        summary.update(_lg_stage(normalized, out))
        artifacts.append("lg.csv")

    cal.write_json(os.path.join(out, "fit.json"), fits)
    artifacts.append("fit.json")
    summary["artifacts"] = sorted(artifacts)
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
    p.add_argument("--fit", default=None,
                   help="use the calibrated levels in the fit.json that `calibrate` writes")
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
    staging = None
    try:
        settings = read_config(args)
        # stage inside the nearest directory of --out that exists, so every
        # move into --out stays on one filesystem; summary.json moves last
        parent = os.path.realpath(args.out)
        while not os.path.isdir(parent):
            parent = os.path.dirname(parent)
        staging = settings["staging"] = tempfile.mkdtemp(prefix=".partial-", dir=parent)
        cal.write_json(os.path.join(staging, "summary.json"), args.func(args, settings))
        os.makedirs(args.out, exist_ok=True)
        for name in sorted(os.listdir(staging), key=lambda name: name == "summary.json"):
            os.replace(os.path.join(staging, name), os.path.join(args.out, name))
    except (SpintrackError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
