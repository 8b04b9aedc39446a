"""spintrack benchmark: end-to-end CLI workloads and a traced per-layer replica.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
`spintrack` package in `src/`, imported by fresh interpreters with
PYTHONPATH pointing there.  It writes the workload's config from
the seed, then repeats the workload for about S seconds, one subcommand
at a time, each in a new process (perfbench/child.py).  Every pass is
checked for correctness; the last stdout line is one JSON object with
the medians over passes.  With --trace 1 each pass is followed by the
traced replica (perfbench/replica.py), whose artifacts must match the
CLI pass byte for byte, and the per-layer metrics are reported instead.
See perfbench/README.md for the metrics, the workloads and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import (
    ALPHA,
    ALPHA_TOLERANCE,
    LEVEL_SIGMAS,
    WORKLOADS,
    measurements,
    step_argv,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD = os.path.join(HERE, "child.py")
REPLICA = os.path.join(HERE, "replica.py")

#: no pass starts that could end after this many seconds of the run
RUN_LIMIT_S = 165.0
#: a single subprocess is killed after this long
PROCESS_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "meas_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYERS = ("cli", "engine", "readout", "calibrate", "correlation", "lg")
#: per-layer time metrics are "<span name>_s", summed over spans of that name
TIMED_SPANS = (
    "engine.sample", "readout.trace_write", "readout.trace_read", "readout.sweep",
    "readout.sweep_write", "calibrate.reconstruct_sz", "calibrate.fit_na_nb",
    "calibrate.fit_alpha", "calibrate.reconstruct_ix", "calibrate.fit_io",
    "correlation.series_write", "correlation.series_read", "lg.lg_function",
    "lg.lg_write", "cli.config",
)
COUNTS = {"engine.chunks": "count", "engine.batch_bytes": "B", "readout.trace_bytes": "B",
          "calibrate.lag_products": "count", "correlation.lags": "count", "lg.taus": "count"}
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    "engine.meas_per_s": "1/s",
    "readout.trace_write_mb_per_s": "MB/s",
    "readout.trace_read_mb_per_s": "MB/s",
    **COUNTS,
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def spawn(script: str, args: list, env: dict) -> tuple[int, float, str]:
    """Run one Python script to completion in a fresh interpreter.

    Returns (exit code, monotonic spawn time, last stderr line).  The
    child gets its own process group, so a timeout kills its pool too.
    """
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, script, *args], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err = f"killed after {PROCESS_TIMEOUT_S:.0f} s"
    lines = err.strip().splitlines()
    return proc.returncode, started, lines[-1] if lines else ""


def run_cli(workload: dict, config_path: str, out: str, env: dict) -> dict:
    """One pass of a workload: every subcommand in its own process."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    rec = {"wall_s": 0.0, "setup_s": [], "rss_mib": 0.0, "errors": []}
    stats_path = os.path.join(WORK, "stats.json")
    for step in workload["steps"]:
        if os.path.exists(stats_path):
            os.remove(stats_path)
        argv = step_argv(step, config_path, out)
        code, started, err = spawn(CHILD, [stats_path, *argv], env)
        if code != 0 or not os.path.exists(stats_path):
            rec["errors"].append(f"`{step[0]}` exited {code}: {err}")
            return rec
        stats = read_json(stats_path)
        rec["wall_s"] += stats["main_s"]
        rec["setup_s"].append(stats["imported_at"] - started)
        rec["rss_mib"] = max(rec["rss_mib"], stats["rss_kib"] / 1024.0)
        try:
            listed = read_json(os.path.join(out, "summary.json"))["artifacts"]
        except (OSError, ValueError, KeyError) as exc:
            rec["errors"].append(f"`{step[0]}` summary.json: {type(exc).__name__}: {exc}")
            return rec
        missing = [a for a in listed if not os.path.isfile(os.path.join(out, a))]
        if missing:
            rec["errors"].append(f"`{step[0]}` lists missing artifacts {missing}")
    return rec


def check_outputs(name: str, cfg: dict, out: str) -> list:
    """Workload-specific checks of the numbers the pipeline produced."""
    errors = []
    fit = read_json(os.path.join(out, "fit.json"))
    cal = fit.get("calibration", fit)  # report nests the calibration fit
    for level in ("n_a", "n_b"):
        off = abs(cal["params"][level] - cfg["readout"][level])
        if not off <= LEVEL_SIGMAS * cal["stderr"][level]:
            errors.append(f"{level} = {cal['params'][level]:.6g} is {off:.3g} from "
                          f"{cfg['readout'][level]}, over {LEVEL_SIGMAS:g} stderr")
    if name == "quantum-report":
        a = fit["alpha"]
        if a["boundary"] or not abs(a["params"]["alpha"] - ALPHA) <= ALPHA_TOLERANCE:
            errors.append(f"alpha_fit {a['params']['alpha']:.6g} (boundary {a['boundary']}) "
                          f"not within {ALPHA_TOLERANCE} of {ALPHA}")
    if name == "classical-report":
        summary = read_json(os.path.join(out, "summary.json"))
        if summary["violations"] != 0 or not summary["max_lg"] < 1.0:
            errors.append(f"classical record violates LG: max_lg {summary['max_lg']}, "
                          f"{summary['violations']} violations")
    return errors


def digests(out: str, names) -> dict:
    return {a: sha256(os.path.join(out, a)) for a in names
            if os.path.isfile(os.path.join(out, a))}


def compare(ours: dict, theirs: dict, label: str) -> list:
    return [f"{a} differs from {label}" for a in sorted(theirs) if ours.get(a) != theirs[a]]


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced replica pass, from its spans and counts."""
    spans, counts = result["spans"], result["counts"]
    dur, failed_parents = {}, set()
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
        if not s["ok"]:
            failed_parents.add(s["parent"])
    roots = {s["id"] for s in spans if s["parent"] is None and s["name"].startswith("cli.")}
    total = sum(s["end"] - s["start"] for s in spans if s["id"] in roots)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    m = {f"{name}_s": dur[name] for name in TIMED_SPANS if name in dur}
    m.update({k: counts[k] for k in COUNTS if k in counts})
    if "engine.sample_s" in m and "measurements" in counts:
        m["engine.meas_per_s"] = counts["measurements"] / m["engine.sample_s"]
    if "readout.trace_bytes" in m:
        for op in ("write", "read"):
            if f"readout.trace_{op}_s" in m:
                m[f"readout.trace_{op}_mb_per_s"] = (
                    m["readout.trace_bytes"] / 1e6 / m[f"readout.trace_{op}_s"])
    if result["finished"]:
        m["cli.self_s"] = total - covered
        m["trace.total_s"] = total
    for layer in LAYERS:
        # a raising call also fails its enclosing spans; count where it started
        m[f"{layer}.failed"] = sum(1 for s in spans if not s["ok"]
                                   and s["id"] not in failed_parents
                                   and s["name"].split(".")[0] == layer)
    return m


def run_replica(name: str, config_path: str, cli_out: str, workload: dict,
                env: dict) -> tuple[dict, list]:
    out = os.path.join(WORK, "replica")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spans_path = os.path.join(WORK, "spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    code, _, err = spawn(REPLICA, [name, config_path, out, spans_path], env)
    if not os.path.exists(spans_path):
        return {}, [f"replica exited {code}: {err}"]
    result = read_json(spans_path)
    errors = [f"replica: {result['error']}"] if result["error"] else []
    for missing in result["missing"]:
        print(f"perfbench: {missing} is gone; its layer metrics are missing", file=sys.stderr)
    ours = digests(out, workload["artifacts"])
    theirs = digests(cli_out, workload["artifacts"])
    if result["missing"]:  # a stopped replica wrote only some artifacts
        theirs = {a: d for a, d in theirs.items() if a in ours}
    errors += compare(ours, theirs, "the CLI run")
    return layer_metrics(result), errors


def run_value(key: str, passes: list):
    """One figure for the run: failures summed, exact counts as they are,
    everything else the median over passes."""
    values = [p[key] for p in passes if key in p]
    if not values:
        return None
    if key.endswith(".failed"):
        return sum(values)
    if key in COUNTS:
        return statistics.median_low(values)
    return statistics.median(values)


def bench(args, name: str, workload: dict, run_started: float) -> int:
    cfg = workload["config"](args.seed)
    config_path = os.path.join(WORK, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    env = dict(os.environ, PYTHONPATH=SRC)

    # warm-up: compiles the bytecode cache and shows which spintrack is imported
    stats_path = os.path.join(WORK, "stats.json")
    code, _, err = spawn(CHILD, [stats_path], env)
    if code != 0:
        print(f"perfbench: cannot import spintrack.cli from {SRC}: {err}", file=sys.stderr)
        return 2
    module = read_json(stats_path)["module"]
    if not os.path.abspath(module).startswith(SRC + os.sep):
        print(f"perfbench: spintrack imported from {module}, not {SRC}", file=sys.stderr)
        return 2

    run_errors, reference = [], {}
    if "same_as_report" in workload:
        ref_out = os.path.join(WORK, "reference")
        rec = run_cli(WORKLOADS["quantum-report"], config_path, ref_out, env)
        run_errors += [f"reference report: {e}" for e in rec["errors"]]
        if not rec["errors"]:
            try:
                run_errors += [f"reference report: {e}"
                               for e in check_outputs("quantum-report", cfg, ref_out)]
            except (OSError, KeyError, TypeError, ValueError) as exc:
                run_errors.append(f"reference report check: {type(exc).__name__}: {exc}")
        reference = digests(ref_out, workload["same_as_report"])
        shutil.rmtree(ref_out)

    out = os.path.join(WORK, "out")
    passes, first_digests = [], None
    loop_started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        rec = run_cli(workload, config_path, out, env)
        p = {"errors": list(run_errors) + rec["errors"]}
        if not rec["errors"]:
            p["wall_s"] = rec["wall_s"]
            p["meas_per_s"] = measurements(cfg) / rec["wall_s"]
            p["setup_s"] = rec["setup_s"]
            p["peak_rss_mb"] = rec["rss_mib"]
            try:
                p["errors"] += check_outputs(name, cfg, out)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                p["errors"].append(f"output check: {type(exc).__name__}: {exc}")
            got = digests(out, workload["artifacts"])
            first_digests = first_digests or got
            p["errors"] += compare(got, reference, "quantum-report's")
            p["errors"] += compare(got, first_digests, "the first pass")
            if args.trace:
                metrics, errors = run_replica(name, config_path, out, workload, env)
                p.update(metrics)
                p["errors"] += errors
        passes.append(p)
        for e in p["errors"]:
            print(f"perfbench: pass {len(passes)}: {e}", file=sys.stderr)
        now = time.monotonic()
        p["took"] = now - pass_started
        if "wall_s" in p:
            print(f"pass {len(passes):3d}  wall_s {p['wall_s']:.4f}  "
                  f"setup_s {sum(p['setup_s']):.4f}  took {p['took']:.2f}")
        took = statistics.median(q["took"] for q in passes)
        # start another pass only if at least half of it fits in the budget
        if (now - loop_started + took / 2 > args.seconds
                or now - run_started + 1.5 * took > RUN_LIMIT_S):
            break

    attempted = len(passes)
    failed = sum(1 for p in passes if p["errors"])
    timed = [p for p in passes if "wall_s" in p]
    if not timed:
        values = {}
    elif args.trace:
        values = {key: run_value(key, timed) for key in PER_LAYER}
        if values["trace.total_s"] is not None:
            values["trace.overhead_s"] = values["trace.total_s"] - run_value("wall_s", timed)
    else:
        # every process pays the same start-up, so the median over all
        # processes of the run, times the processes per pass, is the
        # steadiest estimate of the per-pass sum
        setups = [s for p in timed for s in p["setup_s"]]
        values = {"wall_s": run_value("wall_s", timed),
                  "meas_per_s": run_value("meas_per_s", timed),
                  "setup_s": len(workload["steps"]) * statistics.median(setups),
                  "peak_rss_mb": run_value("peak_rss_mb", timed)}
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if v is not None}

    print(f"workload {name}  seed {args.seed}  passes {attempted}  trace {args.trace}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} (of {attempted} passes)")
    for artifact, digest in sorted((first_digests or {}).items()):
        print(f"  sha256 {artifact:25s} {digest}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "spintrack", "cli.py")):
        print(f"perfbench: no spintrack sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        return bench(args, args.workload, WORKLOADS[args.workload], run_started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
