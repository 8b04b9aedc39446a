import csv
import json

import numpy as np
import pytest

from spintrack.errors import InvalidArgumentError
from spintrack.protocol import ProtocolConfig
from spintrack.readout import (
    ChargeModel,
    PhotonTrace,
    ReadoutModel,
    modulation_trace,
    run_classical_experiment,
    run_quantum_experiment,
    sweep_fraction,
)

MODEL = ReadoutModel(n_a=1200.0, n_b=600.0, phi_0=0.02, repetitions=200)


def test_readout_model_properties():
    assert MODEL.n_av == pytest.approx(900.0)
    assert MODEL.contrast == pytest.approx(600.0)
    m = ReadoutModel(n_a=100.0, n_b=40.0)
    # modulation sweep: bottom of the fringe at 0 deg, top at 180 deg
    assert m.n_av + 0.5 * m.contrast * sweep_fraction(0.0, m.phi_0) == pytest.approx(70.0)
    assert m.n_av + 0.5 * m.contrast * sweep_fraction(180.0, m.phi_0) == pytest.approx(100.0)
    assert 0.0 < sweep_fraction(90.0, m.phi_0) < 1.0
    assert np.array_equal(sweep_fraction(np.array([0.0, 90.0, 180.0]), 0.02),
                          [sweep_fraction(a, 0.02) for a in (0, 90, 180)])


def test_readout_model_validation():
    with pytest.raises(InvalidArgumentError):
        ReadoutModel(n_a=100.0, n_b=-1.0)
    with pytest.raises(InvalidArgumentError):
        ReadoutModel(n_a=50.0, n_b=100.0)
    for n_a, n_b, phi_0 in ((np.nan, 600.0, 0.0), (np.inf, 600.0, 0.0),
                            (np.inf, np.inf, 0.0), (1200.0, 600.0, np.nan)):
        with pytest.raises(InvalidArgumentError):
            ReadoutModel(n_a=n_a, n_b=n_b, phi_0=phi_0)
    # equal levels are constructible (zero contrast is a runtime error
    # only where contrast is actually divided by)
    ReadoutModel(n_a=80.0, n_b=80.0)


def test_charge_model_validation():
    ChargeModel(p_minus=0.7)
    with pytest.raises(InvalidArgumentError):
        ChargeModel(p_minus=1.2)
    for p_minus, nv0_mean in ((0.7, -3.0), (0.5, np.inf), (np.nan, None), (0.5, np.nan)):
        with pytest.raises(InvalidArgumentError):
            ChargeModel(p_minus=p_minus, nv0_mean=nv0_mean)


def test_photon_trace_accessors():
    counts = np.arange(12, dtype=np.int64).reshape(3, 4)
    trace = PhotonTrace(counts=counts, kind="quantum", first_lag=0, meta={"seed": 1})
    assert trace.runs == 3
    assert trace.length == 4


def test_photon_trace_csv_roundtrip(tmp_path):
    counts = np.array([[10, 0, 733], [5, 61, 2]], dtype=np.int64)
    trace = PhotonTrace(counts=counts, kind="quantum", first_lag=1, meta={"seed": 9, "note": "x"})
    path = tmp_path / "trace.csv"
    trace.to_csv(path)

    header = path.read_text().splitlines()[0]
    assert header.startswith("# ")
    assert json.loads(header[2:])["kind"] == "quantum"

    back = PhotonTrace.from_csv(path)
    assert np.array_equal(back.counts, counts)
    assert back.first_lag == 1
    assert back.kind == "quantum"
    assert back.meta["seed"] == 9


def _csv_writer_reference(trace, path):
    """The row-by-row csv.writer layout the block writer must reproduce."""
    header = {"kind": trace.kind, "runs": trace.runs, "length": trace.length,
              "first_lag": trace.first_lag, "meta": trace.meta}
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(["index", "count"])
        for i, cval in enumerate(trace.counts.ravel()):
            w.writerow([i, int(cval)])


@pytest.mark.parametrize("shape", [(1, 1), (1, 4095), (1, 4096), (1, 4097), (3, 5), (2, 8193)])
def test_photon_trace_csv_matches_csv_writer(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    counts = rng.integers(0, 5000, size=shape, dtype=np.int64)
    counts.flat[0] = 0
    counts.flat[-1] = 2**40
    trace = PhotonTrace(counts=counts, kind="quantum", first_lag=1, meta={"seed": 3})
    trace.to_csv(tmp_path / "block.csv")
    _csv_writer_reference(trace, tmp_path / "reference.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = PhotonTrace.from_csv(tmp_path / "block.csv")
    assert back.counts.dtype == np.int64
    assert np.array_equal(back.counts, counts)
    assert (back.kind, back.first_lag, back.meta) == ("quantum", 1, {"seed": 3})


def test_modulation_trace_matches_fringe_model(rng):
    # six pooled sweeps: 300 samples per angle
    sweeps = [modulation_trace(MODEL, rng) for _ in range(6)]
    angles = np.concatenate([t.angles_deg for t in sweeps])
    counts = np.concatenate([t.counts for t in sweeps])
    for ang in np.unique(angles):
        sel = angles == ang
        expected = MODEL.n_av + 0.5 * MODEL.contrast * sweep_fraction(ang, MODEL.phi_0)
        se = counts[sel].std(ddof=1) / np.sqrt(sel.sum())
        assert abs(counts[sel].mean() - expected) < 5 * se + 1e-9


def test_modulation_trace_anchor_oversampling(rng):
    trace = modulation_trace(MODEL, rng)
    angles, counts = np.unique(trace.angles_deg, return_counts=True)
    # the anchor angle gets extra statistics, everything else is uniform
    assert counts.max() == counts[angles == 90.0]
    assert counts[angles != 90.0].std() == 0.0


def test_repetition_averaging_shrinks_variance(rng):
    few = ReadoutModel(n_a=1200.0, n_b=600.0, repetitions=1)
    many = ReadoutModel(n_a=1200.0, n_b=600.0, repetitions=400)
    t_few = modulation_trace(few, rng)
    t_many = modulation_trace(many, rng)
    # the 500 anchor samples at 90 deg: single-shot readout is dominated by
    # the bright/dark mixture spread; averaging over repetitions leaves
    # roughly shot noise only
    at_90 = t_few.angles_deg == 90.0
    assert at_90.sum() == 500
    assert t_few.counts[at_90].std() > 4 * t_many.counts[t_many.angles_deg == 90.0].std()


def test_run_quantum_experiment_shape_and_meta():
    cfg = ProtocolConfig(alpha=0.4, phi=0.6, cycles=6)
    trace = run_quantum_experiment(cfg, MODEL, runs=40, seed=77, workers=3)
    assert trace.kind == "quantum"
    assert trace.runs == 40
    assert trace.length == 7  # polarising measurement + cycles
    assert trace.first_lag == 0
    assert trace.meta["protocol"]["alpha"] == 0.4
    assert trace.meta["readout"]["n_a"] == 1200.0
    again = run_quantum_experiment(cfg, MODEL, runs=40, seed=77)
    assert np.array_equal(trace.counts, again.counts)


def test_run_quantum_experiment_with_charge():
    cfg = ProtocolConfig(alpha=0.4, phi=0.6, cycles=6)
    charge = ChargeModel(p_minus=0.7, nv0_mean=30.0)
    trace = run_quantum_experiment(cfg, MODEL, runs=60, seed=5, charge=charge)
    assert trace.meta["charge"]["p_minus"] == 0.7
    assert trace.counts.min() >= 0


def test_run_classical_experiment_kinds():
    plain = run_classical_experiment(0.3, 0.5, 30, MODEL, runs=20, seed=3)
    assert plain.kind == "classical"
    assert plain.length == 30
    mod = run_classical_experiment(0.3, 0.5, 30, MODEL, runs=20, seed=3, modulated=True)
    assert mod.kind == "classical-modulated"
