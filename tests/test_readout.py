import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spintrack.errors import InvalidArgumentError
from spintrack.protocol import ProtocolConfig
from spintrack.readout import (
    _CSV_BLOCK_ROWS,
    _CSV_HEADER_MAX,
    _CSV_READ_BYTES,
    _digits,
    _index_digits,
    ChargeModel,
    PhotonTrace,
    ReadoutModel,
    ANCHOR_ANGLE,
    ANCHOR_SAMPLES,
    SAMPLES_PER_ANGLE,
    SWEEP_ANGLES_DEG,
    SWEEP_SAMPLES,
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
                            (np.inf, np.inf, 0.0), (1200.0, 600.0, np.nan),
                            (10**400, 600.0, 0.0), (1200.0, 600.0, 10**400)):
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


@pytest.mark.parametrize("shape", [
    (1, 1), (1, 4095), (1, 4096), (1, 4097), (3, 5), (2, 8193),
    # across the encoder's block size, then where the index gains a digit
    (1, _CSV_BLOCK_ROWS - 1), (1, _CSV_BLOCK_ROWS), (1, _CSV_BLOCK_ROWS + 1),
    (1, 10), (1, 11), (11, 9091), (101, 9901),
])
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


#: counts where the digit count, or the number of base-10^4 limbs, changes
EDGE_COUNTS = [0, 9, 10, 9999, 10000, 2**63 - 1]


@pytest.mark.parametrize("value", EDGE_COUNTS)
def test_photon_trace_csv_edge_counts(tmp_path, value):
    """A whole block of `value`, then a block that mixes every edge count."""
    counts = np.full(_CSV_BLOCK_ROWS + 4 * len(EDGE_COUNTS), value, dtype=np.int64)
    counts[_CSV_BLOCK_ROWS:] = EDGE_COUNTS * 4
    trace = PhotonTrace(counts=counts[None, :], kind="classical", meta={})
    trace.to_csv(tmp_path / "block.csv")
    _csv_writer_reference(trace, tmp_path / "reference.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert np.array_equal(PhotonTrace.from_csv(tmp_path / "block.csv").counts, trace.counts)


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 40)),
              elements=st.integers(0, 2**63 - 1)))
def test_photon_trace_csv_property(tmp_path_factory, counts):
    path = tmp_path_factory.mktemp("property")
    trace = PhotonTrace(counts=counts, kind="quantum", first_lag=0, meta={"seed": 1})
    trace.to_csv(path / "block.csv")
    _csv_writer_reference(trace, path / "reference.csv")
    assert (path / "block.csv").read_bytes() == (path / "reference.csv").read_bytes()
    assert np.array_equal(PhotonTrace.from_csv(path / "block.csv").counts, counts)


def test_photon_trace_csv_rejects_negative_counts(tmp_path):
    trace = PhotonTrace(counts=np.array([[3, -1]]), kind="quantum")
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        trace.to_csv(tmp_path / "trace.csv")


def test_photon_trace_to_csv_streams_in_blocks(tmp_path):
    """Encoding the whole 2e6-count record as one block traces about 67 MB;
    block by block, the peak stays near 1 MiB whatever the record's size."""
    counts = np.random.default_rng(7).poisson(900.0, size=(80_000, 25)).astype(np.int64)
    trace = PhotonTrace(counts=counts, kind="quantum", first_lag=0, meta={"seed": 7})
    tracemalloc.start()
    try:
        trace.to_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_photon_trace_from_csv_allocates_little_beside_the_counts(tmp_path):
    """The reader decodes into the counts array it returns, a block of bytes
    at a time: its traced peak stays within 1.5x the counts' own bytes."""
    counts = np.random.default_rng(11).poisson(900.0, size=(25_000, 25)).astype(np.int64)
    PhotonTrace(counts=counts, kind="quantum", meta={"seed": 11}).to_csv(tmp_path / "trace.csv")
    tracemalloc.start()
    try:
        back = PhotonTrace.from_csv(tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.counts, counts)
    assert peak < 1.5 * back.counts.nbytes, peak


def test_photon_trace_from_csv_bounds_the_header_read(tmp_path):
    """A 30 MiB file without a LF is refused after _CSV_HEADER_MAX bytes,
    not read whole (it traced a 90 MiB peak when the header read had no bound)."""
    path = tmp_path / "no_lf.csv"
    path.write_bytes(b"#" + b"x" * (30 * 2**20 - 1))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="header line longer than") as exc:
            PhotonTrace.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(exc.value)
    assert peak < 4 * _CSV_HEADER_MAX, peak


def test_photon_trace_header_bound_is_shared(tmp_path):
    """`to_csv` writes a header line of exactly _CSV_HEADER_MAX bytes, which
    reads back, and refuses one a byte longer without creating the file."""
    trace = PhotonTrace(counts=np.array([[3, 1]]), kind="quantum", meta={"note": ""})
    trace.to_csv(tmp_path / "probe.csv")
    pad = _CSV_HEADER_MAX - (tmp_path / "probe.csv").read_bytes().index(b"\n") - 1
    trace.meta["note"] = "x" * pad
    trace.to_csv(tmp_path / "longest.csv")
    assert PhotonTrace.from_csv(tmp_path / "longest.csv").meta == trace.meta
    trace.meta["note"] += "x"
    with pytest.raises(InvalidArgumentError, match=f"above the {_CSV_HEADER_MAX}"):
        trace.to_csv(tmp_path / "longer.csv")
    assert not (tmp_path / "longer.csv").exists()


def test_photon_trace_rows_straddle_read_blocks(tmp_path):
    """Four-digit counts give the rows around the first block boundary one
    length; the first count's width moves them by one byte a case, so the
    boundary falls at each byte of such a row once."""
    offsets, lengths = set(), set()
    for shift in range(12):
        counts = np.random.default_rng(shift).integers(1000, 10000, size=(3, 12_000))
        counts[0, 0] = 10**shift
        PhotonTrace(counts=counts, kind="classical", meta={}).to_csv(tmp_path / "trace.csv")
        data = (tmp_path / "trace.csv").read_bytes()
        body = data[data.index(b"index,count\r\n") + len(b"index,count\r\n"):]
        assert len(body) > 2 * _CSV_READ_BYTES
        start = body.rindex(b"\n", 0, _CSV_READ_BYTES) + 1
        offsets.add(_CSV_READ_BYTES - start)
        lengths.add(body.index(b"\n", start) + 1 - start)
        assert np.array_equal(PhotonTrace.from_csv(tmp_path / "trace.csv").counts, counts)
    assert len(lengths) == 1 and offsets == set(range(lengths.pop()))


#: bytes an edit writes: the trace's own characters, or any byte
_EDIT_BYTES = st.one_of(st.sampled_from(b"0123456789,\r\n#{} "), st.integers(0, 255))


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_photon_trace_reader_fuzz(tmp_path_factory, runs, length, seed, data):
    """A trace with one to three random edits of its rows (insert, delete or
    substitute a byte, or insert CR LF) either fails to read with an
    InvalidArgumentError naming the file or reads back to counts that
    `to_csv` writes as exactly the edited bytes."""
    path = tmp_path_factory.getbasetemp() / "fuzz"
    path.mkdir(exist_ok=True)
    # counts of 1 to 7 digits, zeros among them
    counts = 10 ** np.random.default_rng(seed).uniform(0, 7, size=(runs, length))
    counts = counts.astype(np.int64) - 1
    PhotonTrace(counts=counts, kind="quantum", meta={"seed": 2}).to_csv(path / "trace.csv")
    edited = bytearray((path / "trace.csv").read_bytes())
    body = edited.index(b"index,count\r\n") + len(b"index,count\r\n")
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["insert", "delete", "substitute", "crlf"]))
        last = len(edited) - (op in ("delete", "substitute"))
        if last < body:
            continue
        at = data.draw(st.integers(body, last))
        if op == "crlf":
            edited[at:at] = b"\r\n"
        elif op == "delete":
            del edited[at]
        else:
            edited[at:at + (op == "substitute")] = bytes([data.draw(_EDIT_BYTES)])
    (path / "edited.csv").write_bytes(edited)
    try:
        back = PhotonTrace.from_csv(path / "edited.csv")
    except InvalidArgumentError as exc:
        assert str(path / "edited.csv") in str(exc)
        return
    back.to_csv(path / "again.csv")
    assert (path / "again.csv").read_bytes() == bytes(edited)


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
    # the sweep size the config's MAX_MEASUREMENTS check counts
    assert trace.counts.size == SWEEP_SAMPLES == 1100


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


def test_modulation_trace_bounds_its_working_memory():
    """At 9,090 repetitions, each angle's whole matrices of uniforms, Poisson
    means and counts traced a 74 MiB peak; drawn a block of rows at a time,
    they stay near 12 MiB whatever the repetitions."""
    model = ReadoutModel(n_a=1200.0, n_b=600.0, phi_0=0.02, repetitions=9090)
    tracemalloc.start()
    try:
        modulation_trace(model, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_modulation_trace_blocks_keep_the_streams():
    """The anchor angle's 500 rows take three blocks at 3,001 repetitions;
    the counts are those of drawing each angle's matrices whole."""
    model = ReadoutModel(n_a=1200.0, n_b=600.0, phi_0=0.02, repetitions=3001)
    rng, whole = np.random.default_rng(9), []
    for ang in SWEEP_ANGLES_DEG:
        n = ANCHOR_SAMPLES if ang == ANCHOR_ANGLE else SAMPLES_PER_ANGLE
        p_bright = 0.5 * (1.0 + sweep_fraction(ang, model.phi_0))
        bright = rng.random((n, 3001)) < p_bright
        whole.append(rng.poisson(np.where(bright, 1200.0 / 3001, 600.0 / 3001)).sum(axis=1))
    blocked = modulation_trace(model, np.random.default_rng(9))
    assert np.array_equal(blocked.counts, np.concatenate(whole))


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


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 12345, 100_000,
                               625_001])
def test_index_digit_total_matches_digits(n):
    assert _index_digits(n) == int(_digits(np.arange(n)).sum())
