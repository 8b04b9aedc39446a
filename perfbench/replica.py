"""Traced replica of one benchmark workload.

    python3 perfbench/replica.py WORKLOAD CONFIG OUT SPANS_JSON

Replays the workload's subcommands in one process through the public
functions of spintrack's `cli`, `engine`, `readout`, `calibrate`,
`correlation` and `lg` modules, in the order `cmd_report` and the stage
commands call them, with a span around every call.  It writes the same
data artifacts into OUT as the CLI run does, so run.py can compare
them byte for byte.  Spans are kept in memory and written to SPANS_JSON
at the end, with the exact counts of the run.

After the traced subcommands a "probe" root holds calls the workload
itself does not make, so that every layer metric is measured on every
workload: one direct engine call whose `RunBatch` size is reported; on
the reports, one read-back of the trace and series they wrote; and where
no strength is fitted, one `fit_alpha` and one `reconstruct_Ix_corr`.
Probes are not part of the traced total.

A public name that no longer exists stops the replica at that call; the
spans so far are still written and the name is listed under "missing".
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

from workloads import WORKLOADS


class MissingName(Exception):
    """A public spintrack name the replica calls is gone."""


class Tracer:
    """Flat list of spans: name, start, end, parent id, and whether it raised."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, "ok": True}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        except Exception:
            rec["ok"] = False
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def public(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise MissingName(f"{module.__name__}.{dotted}") from None
    return obj


MODULES = {"cal": "calibrate", "cli": "cli", "corr": "correlation", "engine": "engine",
           "lg": "lg", "protocol": "protocol", "ro": "readout"}


class Replica:
    def __init__(self, tracer: Tracer, config_path: str, out: str):
        self.m = {}
        for key, name in MODULES.items():
            try:
                self.m[key] = importlib.import_module(f"spintrack.{name}")
            except ModuleNotFoundError:
                raise MissingName(f"spintrack.{name}") from None
        self.t = tracer
        self.config_path = config_path
        self.out = out
        self.counts = {}

    def fn(self, module: str, dotted: str):
        return public(self.m[module], dotted)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    # -- building blocks, each a call into one layer ------------------------

    def load_config(self) -> dict:
        load = self.fn("cli", "load_config")
        with self.t.span("cli.config"):
            return load(self.config_path)

    def readout_model(self, cfg: dict):
        r = cfg["readout"]
        return self.fn("ro", "ReadoutModel")(
            n_a=float(r["n_a"]), n_b=float(r["n_b"]), phi_0=float(r.get("phi_0", 0.0)),
            repetitions=int(r.get("repetitions", 200)))

    def protocol_config(self, cfg: dict):
        p = cfg["protocol"]
        return self.fn("protocol", "ProtocolConfig")(
            alpha=float(p["alpha"]), phi=float(p["phi"]), cycles=int(p["cycles"]),
            prepolarized=bool(p.get("prepolarized", False)))

    def sample(self, cfg: dict, model, workers: int):
        seed, runs = int(cfg["seed"]), int(cfg["runs"])
        if cfg["kind"] == "quantum":
            config = self.protocol_config(cfg)
            run = self.fn("ro", "run_quantum_experiment")
            with self.t.span("engine.sample"):
                trace = run(config, model, runs, seed, charge=None, workers=workers)
        else:
            c = cfg["classical"]
            run = self.fn("ro", "run_classical_experiment")
            with self.t.span("engine.sample"):
                trace = run(alpha=float(c["alpha"]), theta_step=float(c["theta_step"]),
                            measurements_per_run=int(c["measurements_per_run"]),
                            model=model, runs=runs, seed=seed, modulated=False,
                            phi_s=float(c.get("phi_s", 1.0)), workers=workers)
        chunk = self.fn("engine", "CHUNK_SIZE")
        self.counts["engine.chunks"] = -(-runs // chunk)
        self.counts["measurements"] = int(trace.counts.size)
        return trace

    def write_trace(self, trace) -> None:
        with self.t.span("readout.trace_write"):
            trace.to_csv(self.path("trace.csv"))
        self.counts["readout.trace_bytes"] = os.path.getsize(self.path("trace.csv"))

    def read_trace(self, path: str):
        read = self.fn("ro", "PhotonTrace.from_csv")
        with self.t.span("readout.trace_read"):
            return read(path)

    def sweep(self, cfg: dict, model):
        rng = self.fn("cli", "aux_rng")
        sweep = self.fn("ro", "modulation_trace")
        with self.t.span("cli.aux_rng"):
            gen = rng(int(cfg["seed"]), 0)
        with self.t.span("readout.sweep"):
            trace = sweep(model, gen)
        with self.t.span("readout.sweep_write"):
            trace.to_csv(self.path("modulation.csv"))
        fit = self.fn("cal", "fit_na_nb")
        with self.t.span("calibrate.fit_na_nb"):
            return fit(trace)

    def reconstruct_sz(self, cfg: dict, trace, model):
        rec = self.fn("cal", "reconstruct_Sz_corr")
        max_lag = cfg.get("max_lag")
        with self.t.span("calibrate.reconstruct_sz"):
            series = rec(trace, model, max_lag=None if max_lag is None else int(max_lag))
        runs, length = trace.counts.shape
        if series.meta["estimator"] == "ensemble":
            products = runs * len(series.lags)
        else:
            products = sum(runs * (length - int(n)) for n in series.lags)
        self.counts["calibrate.lag_products"] = products
        self.counts["correlation.lags"] = len(series.lags)
        self.write_series(series, "corr_sz.csv")
        return series

    def write_series(self, series, name: str) -> None:
        with self.t.span("correlation.series_write"):
            series.to_csv(self.path(name))

    def read_series(self, path: str):
        read = self.fn("corr", "CorrelationSeries.from_csv")
        with self.t.span("correlation.series_read"):
            return read(path)

    def lg_test(self, series) -> None:
        lg_function = self.fn("lg", "lg_function")
        with self.t.span("lg.lg_function"):
            lgs = lg_function(series)
        with self.t.span("lg.lg_write"):
            lgs.to_csv(self.path("lg.csv"))
        self.counts["lg.taus"] = len(lgs.taus)

    # -- the subcommands ---------------------------------------------------

    def report(self, undo_decay: bool) -> None:
        with self.t.span("cli.report"):
            cfg = self.load_config()
            model = self.readout_model(cfg)
            trace = self.sample(cfg, model, int(cfg.get("workers", 1)))
            self.write_trace(trace)
            cal_fit = self.sweep(cfg, model)
            model = self.fn("ro", "ReadoutModel")(
                n_a=cal_fit["n_a"], n_b=cal_fit["n_b"], phi_0=cal_fit["phi_0"],
                repetitions=model.repetitions)
            fits = {"calibration": cal_fit.as_dict()}
            series = self.reconstruct_sz(cfg, trace, model)
            if cfg["kind"] == "quantum":
                fit_alpha = self.fn("cal", "fit_alpha")
                with self.t.span("calibrate.fit_alpha"):
                    alpha_fit = fit_alpha(series, float(cfg["protocol"]["phi"]),
                                          weighting="full", boxcar_fraction=1.0 / 3.0)
                fits["alpha"] = alpha_fit.as_dict()
                rec_ix = self.fn("cal", "reconstruct_Ix_corr")
                with self.t.span("calibrate.reconstruct_ix"):
                    normalized = rec_ix(series, alpha_fit["alpha"], undo_decay=undo_decay)
            else:
                a = float(cfg["classical"]["alpha"])
                normalized = self.fn("corr", "CorrelationSeries")(
                    series.lags, series.values / a**2, series.stderr / a**2,
                    kind="zz-normalized", meta=dict(series.meta, alpha=a))
            self.write_series(normalized, "corr_ix.csv")
            self.lg_test(normalized)
            with self.t.span("calibrate.fit_io"), open(self.path("fit.json"), "w") as fh:
                json.dump(fits, fh, sort_keys=True, indent=1)
                fh.write("\n")

    def stages(self, workers: int) -> None:
        with self.t.span("cli.simulate"):
            cfg = self.load_config()
            trace = self.sample(cfg, self.readout_model(cfg), workers)
            self.write_trace(trace)
        del trace
        with self.t.span("cli.calibrate"):
            cfg = self.load_config()
            fit = self.sweep(cfg, self.readout_model(cfg))
            with self.t.span("calibrate.fit_io"):
                fit.to_json(self.path("fit.json"))
        with self.t.span("cli.correlate"):
            cfg = self.load_config()
            trace = self.read_trace(self.path("trace.csv"))
            from_json = self.fn("cal", "FitResult.from_json")
            with self.t.span("calibrate.fit_io"):
                fitted = from_json(self.path("fit.json"))
            model = self.fn("ro", "ReadoutModel")(
                n_a=fitted["n_a"], n_b=fitted["n_b"], phi_0=fitted.params.get("phi_0", 0.0))
            self.series_for_probe = self.reconstruct_sz(cfg, trace, model)
        with self.t.span("cli.lgtest"):
            self.lg_test(self.read_series(self.path("corr_sz.csv")))

    def probes(self, is_report: bool) -> None:
        with open(self.config_path) as fh:
            cfg = json.load(fh)
        with self.t.span("probe"):
            runs, seed = int(cfg["runs"]), int(cfg["seed"])
            r = cfg["readout"]
            if cfg["kind"] == "quantum":
                config = self.protocol_config(cfg)
                simulate = self.fn("engine", "simulate_runs")
                with self.t.span("engine.batch_probe"):
                    batch = simulate(config, runs, seed, bright=float(r["n_a"]),
                                     dark=float(r["n_b"]))
            else:
                c = cfg["classical"]
                classical = self.fn("engine", "classical_runs")
                with self.t.span("engine.batch_probe"):
                    batch = classical(float(c["alpha"]), float(c["theta_step"]),
                                      int(c["measurements_per_run"]), runs, seed,
                                      bright=float(r["n_a"]), dark=float(r["n_b"]))
            parts = (batch.outcomes, batch.zetas, batch.counts, batch.signs)
            self.counts["engine.batch_bytes"] = sum(a.nbytes for a in parts if a is not None)
            del batch, parts
            if is_report:
                # a report never reads back; time one read of what it wrote
                self.read_trace(self.path("trace.csv"))
                series = self.read_series(self.path("corr_sz.csv"))
            else:
                series = self.series_for_probe
            if not (is_report and cfg["kind"] == "quantum"):
                # only the quantum report fits the strength; time what it would cost
                phase = float(cfg["protocol"]["phi"] if cfg["kind"] == "quantum"
                              else cfg["classical"]["theta_step"])
                fit_alpha = self.fn("cal", "fit_alpha")
                with self.t.span("calibrate.fit_alpha"):
                    alpha_fit = fit_alpha(series, phase)
                # the configured strength for the classical record, whose fit
                # can sit at its lower bound and would fail the gain check
                alpha = alpha_fit["alpha"] if cfg["kind"] == "quantum" else float(
                    cfg["classical"]["alpha"])
                rec_ix = self.fn("cal", "reconstruct_Ix_corr")
                with self.t.span("calibrate.reconstruct_ix"):
                    rec_ix(series, alpha, undo_decay=cfg["kind"] == "quantum")


def main() -> int:
    workload, config_path, out, spans_path = sys.argv[1:5]
    tracer = Tracer()
    result = {"missing": [], "error": None, "counts": {}, "finished": False}
    try:
        replica = Replica(tracer, config_path, out)
        result["counts"] = replica.counts
        first = WORKLOADS[workload]["steps"][0]
        is_report = first[0] == "report"
        if is_report:
            replica.report(undo_decay="--undo-decay" in first)
        else:
            replica.stages(workers=int(first[first.index("--workers") + 1]))
        result["finished"] = True  # the traced total is complete; probes follow
        replica.probes(is_report)
    except MissingName as exc:
        result["missing"].append(str(exc))
    except Exception as exc:  # reported to run.py, which counts the failure
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["spans"] = tracer.spans
    with open(spans_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
