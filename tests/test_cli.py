import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import spintrack
from spintrack import cli
from spintrack.calibrate import fit_alpha
from spintrack.cli import main
from spintrack.errors import (
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
)
from spintrack.engine import Sampler
from spintrack.protocol import ProtocolConfig
from spintrack.readout import (
    PhotonTrace,
    ReadoutModel,
    run_classical_experiment,
    run_quantum_experiment,
)

from oracles import corr_Sz
from test_golden import CONFIGS, GOLDEN

ALPHA = 0.18 * np.pi
PHI = np.pi / 3


def quantum_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "kind": "quantum",
        "protocol": {"alpha": ALPHA, "phi": PHI, "cycles": 12},
        "readout": {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 200},
        "runs": 400,
        "seed": 123,
        "max_lag": 12,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def classical_config(tmp_path, **classical_overrides):
    cfg = {
        "schema": 1,
        "kind": "classical",
        "classical": {"alpha": 0.3, "theta_step": np.pi / 6, "measurements_per_run": 600},
        "readout": {"n_a": 1200.0, "n_b": 600.0, "repetitions": 200},
        "runs": 30,
        "seed": 5,
        "max_lag": 18,
    }
    cfg["classical"].update(classical_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_trace_and_summary(tmp_path):
    cfg = quantum_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "quantum"
    assert summary["runs"] == 400
    assert summary["artifacts"] == ["trace.csv"]


def _trace_command(tmp_path, kind, **overrides):
    """The trace command of the `test_golden` config `kind`, run with
    `overrides`; returns the bytes of the trace.csv it wrote."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(dict(CONFIGS[kind], **overrides)))
    out = tmp_path / f"{kind}-out"
    command = "simulate" if kind == "quantum" else "classical"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return (out / "trace.csv").read_bytes()


def _sampler(kind) -> Sampler:
    cfg = CONFIGS[kind]
    if kind == "quantum":
        return Sampler.quantum(ProtocolConfig(**cfg["protocol"]))
    c = cfg["classical"]
    return Sampler.classical(c["alpha"], c["theta_step"], c["measurements_per_run"],
                             kind == "classical-modulated", c.get("phi_s", 1.0))


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_trace_commands_stream_the_golden_trace(tmp_path, kind):
    """`simulate` and `classical` write each block of counts as it is drawn,
    and their trace.csv has the sha256 of `report`'s.  At three sampler
    blocks and 17 runs, across the seams of the sampler's blocks and of
    the encoder's `_CSV_BLOCK_ROWS`, it is the bytes of the
    `run_*_experiment` trace's `to_csv`."""
    streamed = _trace_command(tmp_path, kind)
    assert hashlib.sha256(streamed).hexdigest() == GOLDEN[kind]["trace.csv"]
    cfg, runs = CONFIGS[kind], 3 * _sampler(kind).block + 17
    model = ReadoutModel(**cfg["readout"])
    if kind == "quantum":
        trace = run_quantum_experiment(ProtocolConfig(**cfg["protocol"]), model, runs, cfg["seed"])
    else:
        trace = run_classical_experiment(**cfg["classical"], model=model, runs=runs,
                                         seed=cfg["seed"], modulated=kind == "classical-modulated")
    assert trace.counts.size > 3 * cli.ro._CSV_BLOCK_ROWS
    trace.to_csv(tmp_path / "held.csv")
    assert _trace_command(tmp_path, kind, runs=runs) == (tmp_path / "held.csv").read_bytes()


def test_simulate_holds_no_record(tmp_path):
    """`simulate` holds one block of the sampler and of the encoder, not the
    record: its traced peak at 12 sampler blocks stays within 1.1x that at
    3, and below the int16 record of 12 blocks (about 0.68 MB against
    0.77 MB at 25 measurements a run; holding the record, the peak grows
    with it)."""
    protocol = ProtocolConfig(alpha=ALPHA, phi=PHI, cycles=24)
    block = Sampler.quantum(protocol).block
    cfg = quantum_config(tmp_path, protocol={"alpha": ALPHA, "phi": PHI, "cycles": 24})
    peaks = []
    for blocks in (3, 12):
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / f"b{blocks}"),
                         "--runs", str(blocks * block)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    record = 2 * 12 * block * (protocol.cycles + 1)
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < record, (peaks, record)


def test_a_failure_mid_stream_publishes_nothing(tmp_path, capsys, monkeypatch):
    """An error while `simulate` streams trace.csv, after its header and
    first block are written, exits 2 and leaves --out as it was: no
    trace.csv, no summary.json and no staging directory."""
    encode, calls = cli.ro._encode_rows, []

    def failing(counts):
        calls.append(counts.size)
        if len(calls) == 2:
            raise OSError("probe write")
        return encode(counts)

    monkeypatch.setattr(cli.ro, "_encode_rows", failing)
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    assert main(["simulate", "--config", quantum_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error[OSError]: probe write\n"
    assert len(calls) == 2
    assert sorted(_digests(out)) == ["kept.txt"] and _partials(tmp_path) == []


def test_calibrate_writes_fit(tmp_path):
    cfg = quantum_config(tmp_path)
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["params"]["n_a"] == pytest.approx(1200.0, rel=0.05)
    assert fit["params"]["n_b"] == pytest.approx(600.0, rel=0.05)
    assert (out / "modulation.csv").exists()


def test_correlate_and_lgtest_chain(tmp_path):
    cfg = quantum_config(tmp_path, runs=800)
    out = tmp_path / "chain"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "corr_sz.csv").exists()
    # the LG stage runs on the target-spin series; point it at the
    # readout correlation explicitly for this smoke chain
    assert (
        main(
            ["lgtest", "--config", cfg, "--out", str(out),
             "--corr", str(out / "corr_sz.csv")]
        )
        == 0
    )
    assert (out / "lg.csv").exists()


def test_report_produces_all_artifacts(tmp_path):
    cfg = quantum_config(tmp_path, runs=600)
    out = tmp_path / "rep"
    assert main(["report", "--config", cfg, "--out", str(out), "--undo-decay"]) == 0
    for name in ("trace.csv", "modulation.csv", "corr_sz.csv", "corr_ix.csv",
                 "lg.csv", "fit.json", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    for key in ("alpha_fit", "alpha_stderr", "max_lg", "violations", "n_a", "n_b"):
        assert key in summary, key
    fit = json.loads((out / "fit.json").read_text())
    assert set(fit) == {"calibration", "alpha"}


def test_report_classical(tmp_path):
    cfg = classical_config(tmp_path)
    out = tmp_path / "cls"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "classical"
    assert summary["violations"] == 0


def test_report_modulated_stops_before_lg(tmp_path):
    cfg_path = tmp_path / "mod.json"
    cfg_path.write_text(json.dumps({
        "schema": 1,
        "kind": "classical-modulated",
        "classical": {"alpha": 0.35, "theta_step": 0.5,
                      "measurements_per_run": 64, "phi_s": 1.0},
        "readout": {"n_a": 1200.0, "n_b": 600.0, "repetitions": 200},
        "runs": 200,
        "seed": 31,
        "max_lag": 32,
    }))
    out = tmp_path / "mod"
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "classical-modulated"
    # no LG stage for the joint-calibration record
    assert not (out / "lg.csv").exists()
    fit = json.loads((out / "fit.json").read_text())
    assert fit["modulated"]["params"]["alpha"] == pytest.approx(0.35, rel=0.2)


def test_flag_overrides_beat_config(tmp_path):
    cfg = quantum_config(tmp_path)
    out = tmp_path / "ovr"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--runs", "37",
                 "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 37
    assert summary["seed"] == 9


def test_identical_output_across_invocations_and_workers(tmp_path):
    cfg = quantum_config(tmp_path, runs=600)
    outs = [tmp_path / f"d{i}" for i in range(3)]
    assert main(["report", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["report", "--config", cfg, "--out", str(outs[1])]) == 0
    assert main(["report", "--config", cfg, "--out", str(outs[2]), "--workers", "3"]) == 0
    for name in ("trace.csv", "modulation.csv", "corr_sz.csv", "corr_ix.csv",
                 "lg.csv", "fit.json", "summary.json"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, name
        assert (outs[2] / name).read_bytes() == ref, name


def test_trace_commands_check_the_kind(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["classical", "--config", quantum_config(tmp_path), "--out", out]) == 2
    assert main(["simulate", "--config", classical_config(tmp_path), "--out", out]) == 2
    assert capsys.readouterr().err.count("error[InvalidArgumentError]") == 2


def test_truncated_trace_exits_2(tmp_path, capsys):
    cfg = quantum_config(tmp_path, runs=50, protocol={"alpha": ALPHA, "phi": PHI, "cycles": 24})
    out = tmp_path / "cut"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace.csv"
    lines = trace.read_bytes().splitlines(keepends=True)
    trace.write_bytes(b"".join(lines[:-3]))
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert str(trace) in err and "1250" in err and "1247" in err


def _corrupt_count(lines):
    lines[12] = b"12x\r\n"


def _corrupt_columns(lines):
    lines[1] = b"counts\r\n"


def _corrupt_last_row(lines):
    lines[-1] = lines[-1][:-3]


def _drop_every_row(lines):
    del lines[2:]


def _header_spacing(lines):
    lines[0] = lines[0].replace(b'": ', b'":  ')


def _header(**changes):
    """Rewrite the header line with `changes`; None drops a key."""
    def corrupt(lines):
        header = json.loads(lines[0][2:])
        header.update(changes)
        header = {k: v for k, v in header.items() if v is not None}
        lines[0] = b"# " + json.dumps(header, sort_keys=True).encode() + b"\n"
    corrupt.__name__ = "_header_" + "_".join(f"{k}_{v!r}" for k, v in changes.items())
    return corrupt


def _header_nested(lines):
    # 60,003 bytes, inside the 64 KiB header bound
    lines[0] = b"# " + b"[" * 30000 + b"]" * 30000 + b"\n"


def _header_without_hash(lines):
    lines[0] = lines[0][1:]


def _long_row_without_lf(lines):
    # more bytes than the longest row can hold and no LF, in a body as long
    # as the header's rows need
    lines[2:] = [b"1" * sum(map(len, lines[2:])) + b"\r"]


def _negative_count(lines):
    lines[2] = b"-3\r\n"


def _space_before_count(lines):
    lines[2] = b" " + lines[2]


def _plus_sign(lines):
    lines[2] = b"+" + lines[2]


def _leading_zero(lines):
    lines[2] = b"0" + lines[2]


def _row_ends_in_lf(lines):
    lines[5] = lines[5].replace(b"\r\n", b"\n")


def _columns_end_in_lf(lines):
    lines[1] = b"count\n"


def _blank_line(lines):
    lines.insert(6, b"\r\n")


def _blank_line_for_last_line_end(lines):
    # same size and CRLF count as the written file
    lines.insert(6, b"\r\n")
    lines[-1] = lines[-1][:-2]


@pytest.mark.parametrize("corrupt", [_corrupt_count, _corrupt_columns, _corrupt_last_row,
                                     _drop_every_row, _negative_count,
                                     _space_before_count, _plus_sign, _leading_zero,
                                     _row_ends_in_lf, _columns_end_in_lf, _blank_line,
                                     _blank_line_for_last_line_end, _header_spacing,
                                     _header(first_lag=None, meta=None), _header(kind="bogus"),
                                     _header(first_lag=7), _header(first_lag=True),
                                     _header(runs=20.0), _header(runs="20"),
                                     _header(meta=[1]), _header(extra=1), _header_nested,
                                     _header_without_hash, _long_row_without_lf])
def test_malformed_trace_exits_2(tmp_path, capsys, corrupt):
    cfg = quantum_config(tmp_path, runs=20)
    out = tmp_path / "bad"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace.csv"
    lines = trace.read_bytes().splitlines(keepends=True)
    corrupt(lines)
    trace.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert str(trace) in err


def test_correlate_fit_needs_the_levels(tmp_path, capsys):
    """A fit.json of the right layout without n_a/n_b, as `fit_alpha` writes it."""
    cfg = quantum_config(tmp_path, runs=20)
    out = tmp_path / "lv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    fit = tmp_path / "alpha.json"
    alpha_fit = fit_alpha(corr_Sz(0.5, 1.0, 10), 1.0)
    for params, named in ((alpha_fit.params, "'n_a', 'n_b'"), ({"n_a": "abc", "n_b": 6}, "'n_a'"),
                          ({"n_a": 1200.0, "n_b": 600.0, "phi_0": None}, "'phi_0'")):
        alpha_fit.params = params
        alpha_fit.to_json(fit)
        capsys.readouterr()
        assert main(["correlate", "--config", cfg, "--out", str(out), "--fit", str(fit)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
        assert str(fit) in err and named in err


#: rows the reader must refuse, most of them in place of the first
READER_EDGES = {
    "count_2_pow_63": lambda lines: lines.__setitem__(2, b"9223372036854775808\r\n"),
    "count_20_digits": lambda lines: lines.__setitem__(2, b"12345678901234567890\r\n"),
    "count_1e3": lambda lines: lines.__setitem__(2, b"1e3\r\n"),
    "count_9_0": lambda lines: lines.__setitem__(2, b"9.0\r\n"),
    "count_1_0_underscore": lambda lines: lines.__setitem__(2, b"1_0\r\n"),
    "nul_byte": lambda lines: lines.__setitem__(2, b"1\x002\r\n"),
    "ff_byte": lambda lines: lines.__setitem__(2, b"\xff12\r\n"),
    "empty_count": lambda lines: lines.__setitem__(2, b"\r\n"),
    "three_fields": lambda lines: lines.__setitem__(2, b"4,5,6\r\n"),
    "last_row_ends_in_cr": lambda lines: lines.__setitem__(-1, lines[-1][:-1]),
    "bytes_after_last_row": lambda lines: lines.append(b"7"),
    # only the header's row count tells these from a written trace
    "split_row": lambda lines: lines.__setitem__(2, lines[2][:1] + b"\r\n" + lines[2][1:]),
    "joined_rows": lambda lines: lines.__setitem__(slice(2, 4), [lines[2][:-2] + lines[3]]),
}
#: the reason an edge must name, where the edge alone decides it
READER_REASONS = {"count_2_pow_63": "at most 2^63 - 1", "split_row": "found more rows",
                  "joined_rows": "found 259 rows"}


@pytest.mark.parametrize("name", READER_EDGES)
def test_reader_edge_case_exits_2(tmp_path, capsys, name):
    cfg = quantum_config(tmp_path, runs=20)
    out = tmp_path / "edge"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace.csv"
    lines = trace.read_bytes().splitlines(keepends=True)
    READER_EDGES[name](lines)
    trace.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert str(trace) in err and READER_REASONS.get(name, "") in err, err


def test_correlate_leaves_no_out_on_bad_inputs(tmp_path, capsys):
    """A missing or malformed trace, a max_lag above the record, a
    levels-free fit.json, one nested too deep for the JSON parser and one
    with a level beyond float range each make `correlate` exit 2 with no
    output directory left behind."""
    cfg = quantum_config(tmp_path, runs=20)
    made = tmp_path / "made"
    assert main(["simulate", "--config", cfg, "--out", str(made)]) == 0
    malformed = tmp_path / "malformed.csv"
    malformed.write_bytes(
        (made / "trace.csv").read_bytes().replace(b"\ncount\r\n", b"\ncount\r\nx", 1))
    alpha_fit = fit_alpha(corr_Sz(0.5, 1.0, 10), 1.0)
    no_levels = tmp_path / "alpha.json"
    alpha_fit.to_json(no_levels)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    huge = []  # a level written out as an integer beyond float range
    for name in ("n_a", "phi_0"):
        alpha_fit.params = dict({"n_a": 1200.0, "n_b": 600.0}, **{name: 10**400})
        huge.append(tmp_path / f"huge_{name}.json")
        alpha_fit.to_json(huge[-1])
    trace = str(made / "trace.csv")
    for flags, named in ((["--trace", str(tmp_path / "absent.csv")], "absent.csv"),
                         (["--trace", str(malformed)], str(malformed)),
                         (["--trace", trace, "--max-lag", "1000"], "max_lag must be in [1, 12]"),
                         (["--trace", trace, "--fit", str(no_levels)], str(no_levels)),
                         (["--trace", trace, "--fit", str(nested)],
                          f"error[InvalidArgumentError]: {nested}"),
                         *((["--trace", trace, "--fit", str(path)],
                            "error[InvalidArgumentError]: n_a, n_b, phi_0 must be finite")
                           for path in huge)):
        fresh = tmp_path / "fresh"
        assert main(["correlate", "--config", cfg, "--out", str(fresh), *flags]) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1 and named in err, err
        assert not fresh.exists(), flags
    assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "fresh"),
                 "--trace", trace]) == 0


def test_stage_chain_matches_report(tmp_path):
    """simulate -> calibrate -> correlate --fit reads the trace back and
    must land on the bytes `report` writes at the same seed."""
    cfg = quantum_config(tmp_path)
    stages = tmp_path / "stages"
    report = tmp_path / "report"
    assert main(["simulate", "--config", cfg, "--out", str(stages)]) == 0
    assert main(["calibrate", "--config", cfg, "--out", str(stages)]) == 0
    assert main(["correlate", "--config", cfg, "--out", str(stages),
                 "--fit", str(stages / "fit.json")]) == 0
    assert main(["report", "--config", cfg, "--out", str(report)]) == 0
    for name in ("trace.csv", "modulation.csv", "corr_sz.csv"):
        assert (stages / name).read_bytes() == (report / name).read_bytes(), name


def test_correlate_on_counts_near_4e9_does_not_wrap(tmp_path):
    """A hand-written trace whose lag products pass 2^63: `correlate` reads
    the int64 counts without a float copy and must still write the bytes of
    float products, pinned here from the float-copy version."""
    counts = [4_000_000_000, 4_000_000_123, 3_999_999_877, 4_000_000_042,
              3_999_999_990, 4_000_000_456, 4_000_000_021, 3_999_999_999,
              4_000_000_007, 3_999_999_950, 4_000_000_300, 4_000_000_100]
    trace = tmp_path / "trace.csv"
    trace.write_bytes(
        b'# {"first_lag": 0, "kind": "quantum", "length": 4, "meta": {}, "runs": 3}\n'
        b"count\r\n" + b"".join(b"%d\r\n" % c for c in counts))
    cfg = quantum_config(tmp_path, runs=3, max_lag=3,
                         readout={"n_a": 4.1e9, "n_b": 3.9e9, "phi_0": 0.0, "repetitions": 200})
    assert main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "corr_sz.csv").read_bytes() == (
        b"lag,value,stderr,kind\r\n"
        b"1,7.01333331968e-05,5.7426745479167656e-05,Sz-reconstructed\r\n"
        b"2,2.6e-05,5.081312172993849e-05,Sz-reconstructed\r\n"
        b"3,1.84000002048e-05,1.3648931582117825e-05,Sz-reconstructed\r\n")


def test_single_product_lag_has_inf_stderr(tmp_path):
    """One 20-measurement classical run: lag 19 has a single product, so
    its standard error is inf in both series, with no numpy warning."""
    cfg = classical_config(tmp_path, measurements_per_run=20)
    with open(cfg) as fh:
        one_run = dict(json.load(fh), runs=1, max_lag=19)
    with open(cfg, "w") as fh:
        json.dump(one_run, fh)
    out = tmp_path / "one"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        # `lgtest` reads an inf stderr back
        assert main(["lgtest", "--config", cfg, "--out", str(tmp_path / "lg"),
                     "--corr", str(out / "corr_ix.csv")]) == 0
    for name in ("corr_sz.csv", "corr_ix.csv"):
        last = (out / name).read_text().splitlines()[-1].split(",")
        assert last[0] == "19" and last[2] == "inf", name
        assert "nan" not in (out / name).read_text(), name


def test_config_keys_match_report_flags(tmp_path):
    flags = tmp_path / "flags"
    keys = tmp_path / "keys"
    assert main(["report", "--config", quantum_config(tmp_path), "--out", str(flags),
                 "--undo-decay", "--boxcar", "0.3"]) == 0
    cfg = quantum_config(tmp_path, undo_decay=True, boxcar=0.3)
    assert main(["report", "--config", cfg, "--out", str(keys)]) == 0
    for name in ("corr_ix.csv", "lg.csv", "fit.json", "summary.json"):
        assert (keys / name).read_bytes() == (flags / name).read_bytes(), name


def test_bad_schema_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "kind": "quantum"}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "InvalidArgumentError" in capsys.readouterr().err


def test_unknown_kind_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "kind": "hydrodynamic"}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    for body in (b"{not json", b'{"schema": 1, "kind": "\xff"}'):
        path.write_bytes(body)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_tiny_alpha_normalisation_exits_3(tmp_path, capsys):
    """The classical normalisation's gain 1/alpha^2 obeys MAX_GAIN: at alpha
    0.01 (gain 1e4) `report` exits 3 and leaves --out as it was."""
    for alpha in (1e-5, 0.01):
        cfg = classical_config(tmp_path, alpha=alpha)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "o")]) == 3, alpha
        err = capsys.readouterr().err
        assert "AmplificationError" in err and "exceeds MAX_GAIN" in err
        assert not (tmp_path / "o").exists()


def test_degenerate_contrast_exits_4(tmp_path, capsys):
    cfg = quantum_config(tmp_path, readout={"n_a": 800.0, "n_b": 800.0, "repetitions": 100})
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "DegenerateContrastError" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (InvalidArgumentError, 2), (FitFailureError, 3),
    (AmplificationError, 3), (DegenerateContrastError, 4)])
def test_each_error_class_owns_its_exit_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(args, settings):
        raise error("probe")

    monkeypatch.setattr(cli, "cmd_lgtest", fail)
    cfg = quantum_config(tmp_path)
    assert main(["lgtest", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error[{error.__name__}]: probe\n"


def test_nan_correlation_series_exits_3(tmp_path, capsys, monkeypatch):
    def nan_series(trace, model, max_lag):
        series = corr_Sz(ALPHA, PHI, max_lag)
        series.values[:] = np.nan
        return series

    monkeypatch.setattr(cli.cal, "reconstruct_Sz_corr", nan_series)
    cfg = quantum_config(tmp_path, runs=50)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[FitFailureError]: alpha search failed") and err.count("\n") == 1


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --config is required
    assert exc.value.code == 2


def test_console_script_entry_point(tmp_path):
    cfg = quantum_config(tmp_path, runs=50)
    out = tmp_path / "script"
    # the child imports the package this suite imports, installed or not
    src = os.path.dirname(os.path.dirname(spintrack.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spintrack.cli", "simulate", "--config", cfg,
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trace.csv").exists()


def _series_lines(tmp_path):
    from spintrack.correlation import CorrelationSeries
    path = tmp_path / "corr.csv"
    CorrelationSeries(np.arange(1, 7), np.linspace(0.5, -0.5, 6), np.full(6, 0.01),
                      kind="Ix").to_csv(path)
    return path, path.read_text().splitlines(keepends=True)


#: corruptions of a six-row series and the line each error names (the
#: header is line 1, the rows are lines 2-7)
CORRUPT = {
    "value_abc": (lambda lines: lines.__setitem__(3, "3,abc,0.01,Ix\r\n"), 4),
    "header_val": (lambda lines: lines.__setitem__(0, "lag,val,stderr,kind\r\n"), 1),
    "row_without_kind": (lambda lines: lines.__setitem__(2, lines[2].rsplit(",", 1)[0] + "\r\n"),
                         3),
    "float_lag": (lambda lines: lines.__setitem__(4, "1.5" + lines[4][1:]), 5),
    "fifth_field": (lambda lines: lines.__setitem__(5, lines[5].rstrip() + ",extra\r\n"), 6),
    "stderr_nope": (lambda lines: lines.__setitem__(6, "7,0.1,nope,Ix\r\n"), 7),
    "blank_line": (lambda lines: lines.insert(3, "\r\n"), 4),
    "empty_file": (lambda lines: lines.clear(), 0),
    "duplicated_lag": (lambda lines: lines.__setitem__(3, "2" + lines[3][1:]), 4),
    "decreasing_lags": (lambda lines: lines.__setitem__(slice(1, None), lines[:0:-1]), 3),
    "lag_0": (lambda lines: lines.insert(1, "0,0.9,0.01,Ix\r\n"), 2),
    "nan_value": (lambda lines: lines.__setitem__(2, "2,nan,0.01,Ix\r\n"), 3),
    "inf_value": (lambda lines: lines.__setitem__(2, "2,-inf,0.01,Ix\r\n"), 3),
    "nan_stderr": (lambda lines: lines.__setitem__(2, "2,0.3,nan,Ix\r\n"), 3),
    "negative_stderr": (lambda lines: lines.__setitem__(2, "2,0.3,-0.01,Ix\r\n"), 3),
    "kind_changes": (lambda lines: lines.__setitem__(4, "4,0.1,0.01,Sz\r\n"), 5),
    "empty_body": (lambda lines: lines.__delitem__(slice(1, None)), 1),
    "lag_20_digits": (lambda lines: lines.__setitem__(6, "9" * 20 + ",0.1,0.01,Ix\r\n"), 7),
    # these named the last line, where the series was built, not their own
    "lag_20_digits_line_3": (lambda lines: lines.__setitem__(2, "9" * 20 + ",0.1,0.01,Ix\r\n"),
                             3),
    "lag_down_line_3": (lambda lines: lines.__setitem__(1, "5" + lines[1][1:]), 3),
}


@pytest.mark.parametrize("name", CORRUPT)
def test_malformed_correlation_exits_2(tmp_path, capsys, name):
    corrupt, line = CORRUPT[name]
    path, lines = _series_lines(tmp_path)
    cfg = quantum_config(tmp_path)
    out = str(tmp_path / "lg")
    assert main(["lgtest", "--config", cfg, "--out", out, "--corr", str(path)]) == 0
    corrupt(lines)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["lgtest", "--config", cfg, "--out", out, "--corr", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert f"{path} line {line}: " in err, err


def test_overflowing_lg_exits_2_and_writes_nothing(tmp_path, capsys):
    """Finite values 1e308 and -1e308 at lags 1 and 2 overflow LG(1): one
    error line, and neither lg.csv nor a summary.json holding Infinity."""
    path = tmp_path / "corr.csv"
    path.write_text("lag,value,stderr,kind\r\n1,1e+308,0.01,Ix\r\n2,-1e+308,0.01,Ix\r\n")
    out = tmp_path / "lg"
    cfg = quantum_config(tmp_path)
    assert main(["lgtest", "--config", cfg, "--out", str(out), "--corr", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert "tau = 1" in err
    assert not out.exists()


def test_correlate_rejects_a_report_fit(tmp_path, capsys):
    """`correlate --fit` takes `calibrate`'s fit.json; `report`'s is another layout."""
    cfg = quantum_config(tmp_path)
    out = tmp_path / "rep"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    fit = out / "fit.json"
    assert main(["correlate", "--config", cfg, "--out", str(out), "--fit", str(fit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1
    assert str(fit) in err and "'params'" in err and "'calibration'" in err


def _digests(path):
    """sha256 of every file in the directory `path`, hidden ones included."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in path.iterdir()}


def _partials(path):
    return [p.name for p in path.iterdir() if p.name.startswith(".partial-")]


def test_a_failing_command_leaves_out_as_it_was(tmp_path, capsys):
    """Each failure, after sampling or before, leaves a fresh --out absent and
    an --out holding an earlier `report` byte for byte as it was."""
    cfg = quantum_config(tmp_path, runs=50)
    done = tmp_path / "done"
    assert main(["report", "--config", cfg, "--out", str(done)]) == 0
    assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 0
    lag1 = tmp_path / "lag1.csv"
    trace = PhotonTrace.from_csv(done / "trace.csv")
    PhotonTrace(trace.counts, trace.kind, first_lag=1, meta=trace.meta).to_csv(lag1)
    flat = tmp_path / "flat.json"
    fit = json.loads((tmp_path / "cal" / "fit.json").read_text())
    fit["params"]["n_b"] = fit["params"]["n_a"]
    flat.write_text(json.dumps(fit))
    equal_levels = quantum_config(tmp_path / "cal", runs=50,
                                  readout={"n_a": 900.0, "n_b": 900.0, "repetitions": 100})
    cases = [
        (["report", "--config", equal_levels], 4, "DegenerateContrastError"),
        (["lgtest", "--config", cfg, "--corr", str(tmp_path / "absent.csv")], 2, "absent.csv"),
        (["correlate", "--config", cfg, "--trace", str(lag1)], 2, "reference measurement"),
        (["correlate", "--config", cfg, "--trace", str(done / "trace.csv"), "--fit", str(flat)],
         4, "DegenerateContrastError"),
    ]
    before = _digests(done)
    for i, (argv, code, named) in enumerate(cases):
        old = tmp_path / f"old{i}"
        shutil.copytree(done, old)
        for out in (tmp_path / f"fresh{i}", old):
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == code, (argv, out)
            err = capsys.readouterr().err
            assert err.startswith("error[") and err.count("\n") == 1 and named in err, err
        assert not (tmp_path / f"fresh{i}").exists(), argv
        assert _digests(old) == before, argv
    assert _partials(tmp_path) == []


def test_a_successful_command_leaves_no_staging_directory(tmp_path, monkeypatch):
    """The staging directory goes after a success too, whether --out existed,
    is new with new parents, or is the working directory."""
    cfg = quantum_config(tmp_path, runs=20)
    nested = tmp_path / "a" / "b" / "c"
    for _ in range(2):
        assert main(["simulate", "--config", cfg, "--out", str(nested)]) == 0
    assert sorted(_digests(nested)) == ["summary.json", "trace.csv"]
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    assert main(["simulate", "--config", cfg, "--out", "."]) == 0
    assert sorted(_digests(here)) == ["summary.json", "trace.csv"]
    assert (here / "trace.csv").read_bytes() == (nested / "trace.csv").read_bytes()
    assert _partials(tmp_path) == _partials(tmp_path / "a") == []


def _raising(error, ran):
    """A stand-in stage that appends its error's message to the list `ran`,
    then raises `error`."""
    def stage(*args, **kwargs):
        ran.append(str(error))
        raise error
    return stage


def test_a_failing_sweep_exits_3(tmp_path, capsys, monkeypatch):
    """A fit failure of the sweep is exit 3, and nothing is published."""
    monkeypatch.setattr(cli.cal, "fit_na_nb", _raising(FitFailureError("probe"), []))
    out = tmp_path / "o"
    assert main(["report", "--config", classical_config(tmp_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error[FitFailureError]: probe\n"
    assert not out.exists() and _partials(tmp_path) == []


@pytest.mark.parametrize("stage", ["sampler", "write"])
def test_a_failing_early_stage_stops_report(tmp_path, capsys, monkeypatch, stage):
    """`report` samples the record and writes trace.csv before the sweep and
    the analysis: the first of the two to fail exits 2 with its own message
    and no later stage runs, so a trace write and an analysis that would
    both fail report the write's error."""
    ran = []
    target, name, error = {
        "sampler": (cli.ro._Experiment, "trace", InvalidArgumentError("probe sampler")),
        "write": (cli.ro.PhotonTrace, "to_csv", OSError("probe write")),
    }[stage]
    monkeypatch.setattr(target, name, _raising(error, ran))
    monkeypatch.setattr(cli.ro, "modulation_trace", _raising(FitFailureError("probe sweep"), ran))
    monkeypatch.setattr(cli.cal, "reconstruct_Sz_corr",
                        _raising(FitFailureError("probe analysis"), ran))
    out = tmp_path / "o"
    assert main(["report", "--config", classical_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error[{type(error).__name__}]: {error}\n"
    assert ran == [str(error)] and not out.exists() and _partials(tmp_path) == []


def test_a_failing_analysis_after_the_trace_write_publishes_nothing(tmp_path, capsys,
                                                                   monkeypatch):
    """An analysis stage that fails once trace.csv and modulation.csv are
    staged exits 3, leaves --out as it was and no staging directory."""
    cfg = classical_config(tmp_path)
    done = tmp_path / "done"
    assert main(["report", "--config", cfg, "--out", str(done)]) == 0
    before, staged = _digests(done), []

    def failing_analysis(trace, model, max_lag=None):
        staging, = tmp_path.glob("**/.partial-*")
        staged.append(sorted(os.listdir(staging)))
        raise FitFailureError("probe analysis")

    monkeypatch.setattr(cli.cal, "reconstruct_Sz_corr", failing_analysis)
    for out in (tmp_path / "fresh", done):
        assert main(["report", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error[FitFailureError]: probe analysis\n"
    assert not (tmp_path / "fresh").exists() and _digests(done) == before
    assert staged == [["modulation.csv", "trace.csv"]] * 2
    assert _partials(tmp_path) == []
