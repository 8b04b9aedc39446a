import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spintrack
from spintrack import cli
from spintrack.calibrate import fit_alpha
from spintrack.cli import main
from spintrack.correlation import corr_Sz
from spintrack.errors import (
    AmplificationError,
    DegenerateContrastError,
    FitFailureError,
    InvalidArgumentError,
    UnsupportedStateError,
)
from spintrack.readout import PhotonTrace

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
    lines[12] = b"10,12x\r\n"


def _corrupt_columns(lines):
    lines[1] = b"index,counts\r\n"


def _corrupt_index(lines):
    lines[7] = b"6" + lines[7][1:]


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


def _negative_count(lines):
    lines[2] = b"0,-3\r\n"


def _space_before_count(lines):
    lines[2] = lines[2].replace(b",", b", ")


def _plus_sign(lines):
    lines[2] = lines[2].replace(b",", b",+")


def _leading_zero(lines):
    lines[2] = lines[2].replace(b",", b",0")


def _row_ends_in_lf(lines):
    lines[5] = lines[5].replace(b"\r\n", b"\n")


def _columns_end_in_lf(lines):
    lines[1] = b"index,count\n"


def _blank_line(lines):
    lines.insert(6, b"\r\n")


def _blank_line_for_last_line_end(lines):
    # same size and CRLF count as the written file
    lines.insert(6, b"\r\n")
    lines[-1] = lines[-1][:-2]


@pytest.mark.parametrize("corrupt", [_corrupt_count, _corrupt_columns, _corrupt_index,
                                     _corrupt_last_row, _drop_every_row, _negative_count,
                                     _space_before_count, _plus_sign, _leading_zero,
                                     _row_ends_in_lf, _columns_end_in_lf, _blank_line,
                                     _blank_line_for_last_line_end, _header_spacing,
                                     _header(first_lag=None, meta=None), _header(kind="bogus"),
                                     _header(first_lag=7), _header(first_lag=True),
                                     _header(runs=20.0), _header(runs="20"),
                                     _header(meta=[1]), _header(extra=1), _header_nested])
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


#: rows the reader must refuse, most of them in place of the first (index 0)
READER_EDGES = {
    "count_2_pow_63": lambda lines: lines.__setitem__(2, b"0,9223372036854775808\r\n"),
    "count_20_digits": lambda lines: lines.__setitem__(2, b"0,12345678901234567890\r\n"),
    "count_1e3": lambda lines: lines.__setitem__(2, b"0,1e3\r\n"),
    "count_9_0": lambda lines: lines.__setitem__(2, b"0,9.0\r\n"),
    "count_1_0_underscore": lambda lines: lines.__setitem__(2, b"0,1_0\r\n"),
    "nul_byte": lambda lines: lines.__setitem__(2, b"0,1\x002\r\n"),
    "ff_byte": lambda lines: lines.__setitem__(2, b"0,\xff12\r\n"),
    "empty_count": lambda lines: lines.__setitem__(2, b"0,\r\n"),
    "three_fields": lambda lines: lines.__setitem__(2, b"0,5,6\r\n"),
    "last_row_ends_in_cr": lambda lines: lines.__setitem__(-1, lines[-1][:-1]),
    "bytes_after_last_row": lambda lines: lines.append(b"7"),
}


@pytest.mark.parametrize("corrupt", READER_EDGES.values(), ids=READER_EDGES)
def test_reader_edge_case_exits_2(tmp_path, capsys, corrupt):
    cfg = quantum_config(tmp_path, runs=20)
    out = tmp_path / "edge"
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


def test_correlate_leaves_no_out_on_bad_inputs(tmp_path, capsys):
    """A missing or malformed trace, a max_lag above the record, a
    levels-free fit.json, one nested too deep for the JSON parser and one
    with a level beyond float range each make `correlate` exit 2 with no
    output directory left behind."""
    cfg = quantum_config(tmp_path, runs=20)
    made = tmp_path / "made"
    assert main(["simulate", "--config", cfg, "--out", str(made)]) == 0
    malformed = tmp_path / "malformed.csv"
    malformed.write_bytes((made / "trace.csv").read_bytes().replace(b"\r\n1,", b"\r\n1,x", 1))
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
    (InvalidArgumentError, 2), (UnsupportedStateError, 2), (FitFailureError, 3),
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


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines.__setitem__(3, "3,abc,0.01,Ix\r\n"),
    lambda lines: lines.__setitem__(0, "lag,val,stderr,kind\r\n"),
    lambda lines: lines.__setitem__(2, lines[2].rsplit(",", 1)[0] + "\r\n"),
    lambda lines: lines.__setitem__(4, "1.5" + lines[4][1:]),
    lambda lines: lines.__setitem__(5, lines[5].rstrip() + ",extra\r\n"),
    lambda lines: lines.__setitem__(6, "7,0.1,nope,Ix\r\n"),
    lambda lines: lines.insert(3, "\r\n"),
    lambda lines: lines.clear(),
    lambda lines: lines.__setitem__(3, "2" + lines[3][1:]),
    lambda lines: lines.__setitem__(slice(1, None), lines[:0:-1]),
    lambda lines: lines.insert(1, "0,0.9,0.01,Ix\r\n"),
    lambda lines: lines.__setitem__(2, "2,nan,0.01,Ix\r\n"),
    lambda lines: lines.__setitem__(2, "2,-inf,0.01,Ix\r\n"),
    lambda lines: lines.__setitem__(2, "2,0.3,nan,Ix\r\n"),
    lambda lines: lines.__setitem__(2, "2,0.3,-0.01,Ix\r\n"),
    lambda lines: lines.__setitem__(4, "4,0.1,0.01,Sz\r\n"),
    lambda lines: lines.__delitem__(slice(1, None)),
    lambda lines: lines.__setitem__(6, "9" * 20 + ",0.1,0.01,Ix\r\n"),
], ids=["value_abc", "header_val", "row_without_kind", "float_lag", "fifth_field",
        "stderr_nope", "blank_line", "empty_file", "duplicated_lag", "decreasing_lags",
        "lag_0", "nan_value", "inf_value", "nan_stderr", "negative_stderr", "kind_changes",
        "empty_body", "lag_20_digits"])
def test_malformed_correlation_exits_2(tmp_path, capsys, corrupt):
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
    assert str(path) in err


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
