"""A register of the open defects: one strict xfail per ROADMAP item.

Each test asserts its item's gate on small cases with seeds fixed before
measuring and fails on today's code, so every run of the suite shows the defects as xfailed.
`strict=True` makes a fix that mends one read XPASS, which fails the suite
until the fixing change removes the marker.  Every exact reference is the
unit-start iterate `oracles.unit_start_x`, never the damped cosine.  Each
`report` below takes well under a second.
"""

import json

import numpy as np
import pytest

from spintrack.calibrate import fit_alpha
from spintrack.cli import main
from spintrack.correlation import CorrelationSeries
from spintrack.engine import simulate_runs
from spintrack.protocol import ProtocolConfig

from oracles import unit_start_x

ALPHA, PHI = 0.5655, 1.0472    # the README protocol
LOW = {"n_a": 120.0, "n_b": 80.0, "phi_0": 0.02, "repetitions": 200}
README = {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 200}


def _defect(item: int, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


def _quantum(readout: dict, **extra) -> dict:
    return dict(schema=1, kind="quantum", protocol={"alpha": ALPHA, "phi": PHI, "cycles": 24},
                readout=readout, runs=20_000, seed=123, max_lag=24, **extra)


def _report(tmp_path, config: dict):
    """`report` on config: its C_Sz series, the rows (tau, lg, stderr,
    violated) of lg.csv and summary.json."""
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    lg = np.loadtxt(out / "lg.csv", delimiter=",", skiprows=1, ndmin=2)
    return (CorrelationSeries.from_csv(out / "corr_sz.csv"), lg,
            json.loads((out / "summary.json").read_text()))


@_defect(2, "the engine steps every run with the outcome-averaged map")
def test_item_02_prepolarised_neighbour_correlation_is_exact():
    """E[s_1 s_2] of a prepolarised record within 3 SE of sin^2(a) x_1.
    Measured: -0.063 +- 0.007 against 0.1436 (z = -29)."""
    alpha, phi = 0.18 * np.pi, np.pi / 3
    batch = simulate_runs(ProtocolConfig(alpha, phi, cycles=2, prepolarized=True), 20_000, seed=5)
    assert batch.first_lag == 1  # columns 0 and 1 are cycles 1 and 2
    products = batch.outcomes[:, 0] * batch.outcomes[:, 1].astype(float)
    se = products.std(ddof=1) / np.sqrt(products.size)
    exact = np.sin(alpha) ** 2 * unit_start_x(alpha, phi, 1)[0]
    assert abs(products.mean() - exact) <= 3 * se, (products.mean(), se, exact)


@_defect(6, "the counts are centred on the sweep's levels, not the record's mean")
def test_item_06_readout_correlation_is_unbiased_at_low_contrast(tmp_path):
    """C_Sz(1) at 120/80, seeds 1-10, each within 4 SE of exact (item 16's
    family rule).  Measured: z from -6.31 to +4.36, beyond 4 SE on seeds 4,
    6, 9 and 10 (seed 6 reads -0.305 +- 0.071 against 0.1436)."""
    exact = np.sin(ALPHA) ** 2 * unit_start_x(ALPHA, PHI, 1)[0]
    z = []
    for seed in range(1, 11):
        series, _, _ = _report(tmp_path, dict(_quantum(LOW), seed=seed))
        z.append(round((series.values[0] - exact) / series.stderr[0], 2))
    assert all(abs(v) <= 4 for v in z), z


@_defect(6, "fit_alpha fits the damped cosine, not the exact iterate")
def test_item_06_strength_fit_recovers_alpha_from_the_exact_series():
    """The noise-free exact sin^2(a) x_N on 24 lags gives back alpha to
    1e-8.  Measured: 0.5336."""
    lags = np.arange(1, 25)
    exact = np.sin(ALPHA) ** 2 * unit_start_x(ALPHA, PHI, lags.size)
    fit = fit_alpha(CorrelationSeries(lags, exact, np.full(lags.size, 0.003)), PHI)
    assert fit["alpha"] == pytest.approx(ALPHA, abs=1e-8)


@_defect(13, "a charge-interrupted record is centred on the active-state levels")
def test_item_13_charge_interrupted_correlation_is_exact(tmp_path):
    """At p_minus 0.7, C_Sz(1) within 4 SE of p^2 sin^2(a) xbar_1, xbar at
    the effective strength arccos(1 - p (1 - cos a)), seeds 1-10 (item 16's
    family rule).  Measured: z from -63.2 to -58.4."""
    p = 0.7
    a_eff = np.arccos(1.0 - p * (1.0 - np.cos(ALPHA)))
    exact = p**2 * np.sin(ALPHA) ** 2 * unit_start_x(a_eff, PHI, 1)[0]
    z = []
    for seed in range(1, 11):
        series, _, _ = _report(tmp_path, dict(_quantum(README, charge={"p_minus": p}), seed=seed))
        z.append(round((series.values[0] - exact) / series.stderr[0], 2))
    assert all(abs(v) <= 4 for v in z), z


@_defect(14, "at low contrast the LG values exceed even the quantum bound")
def test_item_14_low_contrast_lg_stays_within_the_quantum_bound(tmp_path):
    """No LG value at 120/80 above 1.5 + 3 SE, seeds 1-10.  Measured: seeds
    7 and 10 exceed it, with max_lg 5.33 and 6.62."""
    over = []
    for seed in range(1, 11):
        _, lg, _ = _report(tmp_path, dict(_quantum(LOW), seed=seed))
        if not np.all(lg[:, 1] <= 1.5 + 3 * lg[:, 2]):
            over.append((seed, round(lg[:, 1].max(), 2)))
    assert not over, over


@_defect(23, "the analysis violates the LG bound on a classical record")
def test_item_23_classical_record_of_the_quantum_shape_never_violates(tmp_path):
    """A classical record of 25 measurements at 120/80 shows no violation
    (its exact LG is at most 0.75), seeds 1-10.  Measured: seeds 2, 3, 7 and
    10 violate, at taus 1 and 5 (seed 3 also at 6)."""
    violated = []
    for seed in range(1, 11):
        config = dict(schema=1, kind="classical", readout=LOW, runs=20_000, seed=seed,
                      max_lag=12,
                      classical={"alpha": ALPHA, "theta_step": PHI, "measurements_per_run": 25})
        _, lg, summary = _report(tmp_path, config)
        if summary["violations"]:
            violated.append((seed, lg[lg[:, 3] == 1, 0].tolist()))
    assert not violated, violated


@_defect(24, "report's strength fit and LG verdict miss the exact model")
def test_item_24_report_recovers_the_readme_verdict(tmp_path):
    """The README config at 20,000 runs, seeds 1-10: every alpha_fit within
    3 SE of 0.5655, LG(1) within 3 SE of exact and LG(tau), taus 2-12, within
    4 SE, a violation at tau 1 alone, and the strength fit's residual /
    (n_points - 1) below 2.  Measured: seed 10 reads alpha z = -4.18, 7 of 10
    seeds show no violation, and chi^2/dof runs from 0.71 to 9.90."""
    x = unit_start_x(ALPHA, PHI, 24)
    exact = 2.0 * x[:12] - x[1::2]  # LG(tau) = 2 x_tau - x_2tau, taus 1-12
    rows = []
    for seed in range(1, 11):
        _, lg, summary = _report(tmp_path, dict(_quantum(README), seed=seed))
        fit = json.loads((tmp_path / "out" / "fit.json").read_text())["alpha"]
        assert lg[:, 0].tolist() == list(range(1, 13))
        z = ((lg[:, 1] - exact) / lg[:, 2]).tolist()
        rows.append((seed, round((summary["alpha_fit"] - ALPHA) / summary["alpha_stderr"], 2),
                     round(z[0], 2), round(max(map(abs, z[1:])), 2), summary["violated_taus"],
                     round(fit["residual"] / (fit["n_points"] - 1), 2)))
    assert all(abs(alpha_z) <= 3 and abs(lg1_z) <= 3 and lg_z <= 4 and taus == [1] and chi2 < 2
               for _, alpha_z, lg1_z, lg_z, taus, chi2 in rows), rows
