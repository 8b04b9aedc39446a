"""Workload definitions shared by run.py and the traced replica.

Stdlib only: the run.py process never imports numpy or spintrack, so its
own start-up stays out of every figure it reports.
"""

from __future__ import annotations

import os

#: calibrated levels and strength must land this close to the configured ones
LEVEL_SIGMAS = 5.0
ALPHA_TOLERANCE = 0.15

#: the README example config; the workloads scale it up
READOUT = {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 200}
ALPHA = 0.5655
PHI = 1.0472


def pool_workers() -> int:
    """Worker processes for the pooled stage: 2, but never above the cores."""
    return max(1, min(2, os.cpu_count() or 1))


def quantum_config(seed: int, runs: int = 100_000) -> dict:
    return {
        "schema": 1,
        "kind": "quantum",
        "protocol": {"alpha": ALPHA, "phi": PHI, "cycles": 24},
        "readout": dict(READOUT),
        "runs": runs,
        "seed": seed,
        "max_lag": 24,
        "workers": 1,
    }


def stages_config(seed: int) -> dict:
    # a quarter of quantum-report's runs: four start-ups already cost about
    # 3 s a pass, so a shorter pass is what gets many passes into one run
    return quantum_config(seed, runs=25_000)


def classical_config(seed: int) -> dict:
    # no max_lag: the time-average default, length // 2 = 2000 lags
    return {
        "schema": 1,
        "kind": "classical",
        "classical": {"alpha": ALPHA, "theta_step": PHI, "measurements_per_run": 4000},
        "readout": dict(READOUT),
        "runs": 100,
        "seed": seed,
        "workers": 1,
    }


def measurements(cfg: dict) -> int:
    """Photon measurements in one pass of the workload (runs x length)."""
    if cfg["kind"] == "quantum":
        length = cfg["protocol"]["cycles"] + 1  # the polarising measurement + cycles
    else:
        length = cfg["classical"]["measurements_per_run"]
    return cfg["runs"] * length


# Each step is one subcommand in its own process: the subcommand name and
# the flags after --config/--out.  "{out}" stands for the output directory.
WORKLOADS = {
    "quantum-report": {
        "config": quantum_config,
        "steps": [["report", "--undo-decay"]],
        "artifacts": ["trace.csv", "modulation.csv", "corr_sz.csv", "corr_ix.csv",
                      "lg.csv", "fit.json"],
    },
    "classical-report": {
        "config": classical_config,
        "steps": [["report"]],
        "artifacts": ["trace.csv", "modulation.csv", "corr_sz.csv", "corr_ix.csv",
                      "lg.csv", "fit.json"],
    },
    "quantum-stages": {
        "config": stages_config,
        "steps": [
            ["simulate", "--workers", str(pool_workers())],
            ["calibrate"],
            ["correlate", "--fit", "{out}/fit.json"],
            ["lgtest", "--corr", "{out}/corr_sz.csv"],
        ],
        "artifacts": ["trace.csv", "modulation.csv", "fit.json", "corr_sz.csv", "lg.csv"],
        # written by both the stage chain and quantum-report at the same seed
        "same_as_report": ["trace.csv", "modulation.csv", "corr_sz.csv"],
    },
}


def step_argv(step: list, config_path: str, out: str) -> list:
    return [step[0], "--config", config_path, "--out", out] + [
        a.replace("{out}", out) for a in step[1:]]
