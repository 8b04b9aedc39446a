"""Config gate: every malformed config ends in exit 2, 3 or 4 with one
`error[...]` line, never a traceback.

Each key of `cli.CONFIG_KEYS` is dropped, nulled and set to a run of
wrong or edge values in a small valid config of each kind, and `report`
runs in-process on the result.
"""

import argparse
import copy
import json

import numpy as np
import pytest

from spintrack.cli import CONFIG_KEYS, MAX_MEASUREMENTS, REQUIRED, main, read_config
from spintrack.errors import InvalidArgumentError

READOUT = {"n_a": 120.0, "n_b": 60.0, "phi_0": 0.02, "repetitions": 10}
TOP = {"schema": 1, "runs": 20, "seed": 3, "workers": 1, "undo_decay": False, "boxcar": 0.5}
CLASSICAL = {"alpha": 0.3, "theta_step": 0.5, "measurements_per_run": 16, "phi_s": 1.0}

#: a small valid config of each kind that sets every key of the table
BASE = {
    "quantum": dict(TOP, kind="quantum", max_lag=4, readout=READOUT,
                    protocol={"alpha": 0.5, "phi": 1.0, "cycles": 5},
                    charge={"p_minus": 0.9, "nv0_mean": 50.0}),
    "classical": dict(TOP, kind="classical", max_lag=6, readout=READOUT, classical=CLASSICAL),
    "classical-modulated": dict(TOP, kind="classical-modulated", max_lag=6, readout=READOUT,
                                classical=CLASSICAL),
}

DROP = object()
MUTATIONS = [DROP, None, "abc", True, [1], 1.5, -1, 0, float("nan"), float("inf")]


def _keys(table, prefix=()):
    """(path, type, default) of every key in a table, blocks included."""
    for key, (kind, default) in table.items():
        yield prefix + (key,), kind, default
        if isinstance(kind, dict):
            yield from _keys(kind, prefix + (key,))


def _must_exit_2(kind, default, value):
    """Mutations the table itself rules out, whatever the ranges."""
    if value is DROP or value is None:
        return default is REQUIRED
    if isinstance(value, (str, list)) or (isinstance(value, float) and not np.isfinite(value)):
        return True
    if value is True:
        return kind is not bool
    return kind in (bool, str) or isinstance(kind, dict) or (kind is int and value == 1.5)


def _set(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    block = cfg
    for key in path[:-1]:
        block = block[key]
    if value is DROP:
        del block[path[-1]]
    else:
        block[path[-1]] = value
    return cfg


def _run(tmp_path, capsys, cfg, *flags, command="report", out="out"):
    """Run `command` on the config `cfg`, a JSON value or the file's text."""
    path = tmp_path / "config.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    capsys.readouterr()
    code = main([command, "--config", str(path), "--out", str(tmp_path / out), *flags])
    return code, capsys.readouterr().err


def _check(code, err):
    """None if (code, err) is an allowed ending, else what is wrong with it."""
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if code and not (err.startswith("error[") and err.count("\n") == 1
                     and err.count("error[") == 1):
        return f"exit {code} with stderr {err!r}"
    return None


def test_every_key_of_the_table_is_in_the_base_configs():
    for kind, table in CONFIG_KEYS.items():
        for path, _, _ in _keys(table):
            block = BASE[kind]
            for key in path:
                assert key in block, (kind, path)
                block = block[key]


@pytest.mark.parametrize("kind", sorted(CONFIG_KEYS))
def test_config_gate(tmp_path, capsys, kind):
    base = BASE[kind]
    assert _run(tmp_path, capsys, base) == (0, "")
    bad = []
    cases = [(path, t, d, value) for path, t, d in _keys(CONFIG_KEYS[kind])
             for value in MUTATIONS]
    blocks = [()] + [path for path, t, _ in _keys(CONFIG_KEYS[kind]) if isinstance(t, dict)]
    cases += [(path + ("surplus",), None, None, 1) for path in blocks]
    for i, (path, t, default, value) in enumerate(cases):
        out = f"out{i}"
        try:
            code, err = _run(tmp_path, capsys, _set(base, path, value), out=out)
        except Exception as exc:  # the gate itself: nothing may escape main
            bad.append((path, value, f"{type(exc).__name__}: {exc}"))
            continue
        problem = _check(code, err)
        # every config error ends before anything is written
        if problem is None and code == 2 and (tmp_path / out).exists():
            problem = f"exit 2 left --out behind: {err!r}"
        if problem is None and path[-1] == "surplus" and code != 2:
            problem = f"unknown key accepted with exit {code}"
        if problem is None and t is not None and _must_exit_2(t, default, value) and code != 2:
            problem = f"exit {code}, expected 2"
        if problem is None and code == 2 and not err.startswith("error[InvalidArgumentError]"):
            problem = f"exit 2 with {err!r}"
        if problem:
            bad.append((path, "drop" if value is DROP else value, problem))
    assert not bad, "\n".join(map(str, bad))


#: the README config, at fewer runs
README = {
    "schema": 1, "kind": "quantum",
    "protocol": {"alpha": 0.5655, "phi": 1.0472, "cycles": 24},
    "readout": {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 200},
    "runs": 200, "seed": 123, "max_lag": 24,
}


def _readme(path, value, *flags):
    return _set(README, path, value), flags


#: the probes that ended in a traceback, or in exit 0 on a misread value:
#: (config, flags, what the error names); `report` runs them, except the
#: ones named simulate_*, calibrate_* or correlate_*, which that subcommand runs
COMMAND_PROBES = ("simulate_", "calibrate_", "correlate_")
PROBES = {
    "prepolarised_spelling": (*_readme(("protocol", "prepolarised"), True),
                              "'protocol.prepolarised'"),
    "undo_decay_no": (*_readme(("undo_decay",), "no"), "'undo_decay'"),
    "runs_1_5": (*_readme(("runs",), 1.5), "'runs'"),
    "alpha_missing": (*_readme(("protocol", "alpha"), DROP), "'protocol.alpha'"),
    "alpha_abc": (*_readme(("protocol", "alpha"), "abc"), "'protocol.alpha'"),
    "boxcar_abc": (*_readme(("boxcar",), "abc"), "'boxcar'"),
    "seed_minus_1": (*_readme(("seed",), -1), "'seed'"),
    "n_a_nan": (*_readme(("readout", "n_a"), float("nan")), "'readout.n_a'"),
    "readout_list": (*_readme(("readout",), [1]), "'readout'"),
    "top_level_list": ([1, 2], (), "JSON object"),
    # text on which the JSON parser raised a RecursionError or a bare ValueError
    "nested_200000": ("[" * 200000 + "]" * 200000, (), "config.json"),
    "int_5000_digits": ('{"schema": 1, "runs": 1' + "0" * 5000 + "}", (), "config.json"),
    "flag_boxcar_nan": (README, ("--boxcar", "nan"), "'boxcar'"),
    "flag_seed_minus_1": (README, ("--seed", "-1"), "'seed'"),
    "boxcar_0": (*_readme(("boxcar",), 0), "boxcar_fraction"),
    "boxcar_minus_1": (*_readme(("boxcar",), -1), "boxcar_fraction"),
    "boxcar_2": (*_readme(("boxcar",), 2), "boxcar_fraction"),
    "flag_boxcar_0": (README, ("--boxcar", "0"), "boxcar_fraction"),
    "flag_boxcar_minus_1": (README, ("--boxcar", "-1"), "boxcar_fraction"),
    "flag_boxcar_2": (README, ("--boxcar", "2"), "boxcar_fraction"),
    # a prepolarised record cannot be analysed, so the key is not in the table;
    # `simulate` wrote such a trace with exit 0, `report` failed after writing it
    "prepolarized_true": (*_readme(("protocol", "prepolarized"), True),
                          "'protocol.prepolarized'"),
    "prepolarized_false": (*_readme(("protocol", "prepolarized"), False),
                           "'protocol.prepolarized'"),
    "simulate_prepolarized_true": (*_readme(("protocol", "prepolarized"), True),
                                   "'protocol.prepolarized'"),
    "simulate_prepolarized_false": (*_readme(("protocol", "prepolarized"), False),
                                    "'protocol.prepolarized'"),
    # a bad model or record value ended only after the output directory was made
    "p_minus_1_5": (*_readme(("charge",), {"p_minus": 1.5}), "p_minus"),
    "n_b_above_n_a": (*_readme(("readout", "n_b"), 1300.0), "n_a >= n_b"),
    "protocol_alpha_4": (*_readme(("protocol", "alpha"), 4.0), "alpha must lie in"),
    "cycles_minus_1": (*_readme(("protocol", "cycles"), -1), "cycles must be >= 1"),
    # a classical strength of 1e200 overflowed `report`'s gain check (exit 1);
    # one outside protocol.alpha's range [0, pi] was sampled
    **{f"{kind}_alpha_{value}": (_set(BASE[kind], ("classical", "alpha"), value), (),
                                 "'classical.alpha' must lie in [0, pi]")
       for kind in ("classical", "classical-modulated") for value in (1e200, -0.1)},
    "measurements_per_run_0": (_set(BASE["classical"], ("classical", "measurements_per_run"), 0),
                               (), "'classical.measurements_per_run'"),
    # levels above numpy's Poisson limit ended in "lam value too large", exit 1;
    # `calibrate` samples no charge states, so it reads no nv0_mean
    **{f"{command}{name}": (*_readme(path, value), "Poisson limit")
       for name, path, value, commands in (
           ("n_a_1e160", ("readout", "n_a"), 1e160, ("", "simulate_", "calibrate_")),
           ("n_a_n_b_1e160", ("readout",), {"n_a": 1e160, "n_b": 1e159},
            ("", "simulate_", "calibrate_")),
           ("nv0_mean_1e160", ("charge",), {"p_minus": 0.9, "nv0_mean": 1e160},
            ("", "simulate_")))
       for command in commands},
    # the estimator stages rejected these only after trace.csv was written
    "quantum_runs_1": (*_readme(("runs",), 1), "at least 2 runs for an ensemble estimate"),
    "modulated_runs_1": (_set(BASE["classical-modulated"], ("runs",), 1), (),
                         "at least 2 runs to estimate the mean path"),
    # a modulated record of 1 position ended in a LinAlgError traceback (exit 1),
    # one of 2 or 3 fitted 3 parameters to as many means or fewer (exit 0)
    **{f"modulated_measurements_per_run_{m}": (
        _set(_set(BASE["classical-modulated"], ("classical", "measurements_per_run"), m),
             ("max_lag",), DROP), (), "at least 4 positions per run to fit 3 parameters")
       for m in (1, 2, 3)},
    "max_lag_0": (*_readme(("max_lag",), 0), "max_lag must be in [1, 24], got 0"),
    "max_lag_minus_1": (*_readme(("max_lag",), -1), "max_lag must be in [1, 24], got -1"),
    "flag_max_lag_25": (README, ("--max-lag", "25"), "max_lag must be in [1, 24], got 25"),
    "classical_max_lag_0": (_set(BASE["classical"], ("max_lag",), 0), (),
                            "max_lag must be in [1, 15], got 0"),
    "measurements_per_run_1": (_set(_set(BASE["classical"], ("classical", "measurements_per_run"),
                                         1), ("max_lag",), DROP), (),
                               "max_lag must be in [1, 0], got 0"),
    "correlate_max_lag_0": (*_readme(("max_lag",), 0), "max_lag must be in [1, length - 1]"),
    # no stage of the modulated kind reads max_lag, and it went unchecked there
    **{f"modulated_max_lag_{value}": (_set(BASE["classical-modulated"], ("max_lag",), value), (),
                                      f"max_lag must be in [1, 15], got {value}")
       for value in (-1, 0, 1000)},
    # `simulate` and `classical` rejected the other kinds after making --out
    "simulate_kind_classical": (BASE["classical"], (), "`simulate` needs kind in"),
    # a phase beyond float range at the record's last measurement gave NaN
    # zetas (exit 0) or a failed fit (exit 3), after overflow warnings
    "theta_step_1e308": (_set(BASE["classical"], ("classical", "theta_step"), 1e308), (),
                         "'classical.theta_step' overflows"),
    "phi_s_1e308": (_set(BASE["classical-modulated"], ("classical", "phi_s"), 1e308), (),
                    "'classical.phi_s' overflows"),
    "phi_1e308": (*_readme(("protocol", "phi"), 1e308), "'protocol.phi' overflows"),
    # the sweep of 1,100 samples x 1e12 readouts ended in an _ArrayMemoryError, exit 1
    **{f"{command}repetitions_1e12": (*_readme(("readout", "repetitions"), 10**12),
                                      "'readout.repetitions'")
       for command in ("", "calibrate_")},
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_config_probe_exits_2(tmp_path, capsys, name):
    cfg, flags, names = PROBES[name]
    command = name.split("_")[0] if name.startswith(COMMAND_PROBES) else "report"
    code, err = _run(tmp_path, capsys, cfg, *flags, command=command)
    assert code == 2, err
    assert err.startswith("error[InvalidArgumentError]") and err.count("\n") == 1, err
    assert names in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value,code", [
    ("runs", 600.0, 0), ("runs", True, 2), ("runs", "600", 2), ("undo_decay", "yes", 2),
    ("boxcar", 10**400, 2), ("seed", 10**400, 0),
])
def test_integral_floats_pass_and_lookalikes_do_not(tmp_path, capsys, field, value, code):
    cfg = dict(README, runs=20, max_lag=6)
    assert _run(tmp_path, capsys, dict(cfg, **{field: value}))[0] == code


# far above the cap: if the check let it through, sampling would not end
@pytest.mark.parametrize("cfg,flags", [(dict(README, runs=10**12), ()),
                                       (README, ("--runs", str(10**12)))])
def test_record_above_the_cap_exits_2_before_sampling(tmp_path, capsys, cfg, flags):
    code, err = _run(tmp_path, capsys, cfg, *flags)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error[InvalidArgumentError]: config key 'runs'")
    assert f"MAX_MEASUREMENTS = {MAX_MEASUREMENTS}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg,length", [(README, 25), (BASE["classical"], 16),
                                        (BASE["classical-modulated"], 16)])
def test_the_cap_counts_runs_times_record_length(tmp_path, cfg, length):
    """The record length is cycles + 1 for quantum and measurements_per_run
    for the classical kinds; read_config samples nothing."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    runs = MAX_MEASUREMENTS // length
    assert read_config(argparse.Namespace(config=str(path), runs=runs))["runs"] == runs
    with pytest.raises(InvalidArgumentError, match="MAX_MEASUREMENTS"):
        read_config(argparse.Namespace(config=str(path), runs=runs + 1))


@pytest.mark.parametrize("cfg,key,length_key", [
    (README, ("protocol", "phi"), ("protocol", "cycles")),
    (BASE["classical"], ("classical", "theta_step"), ("classical", "measurements_per_run")),
    (BASE["classical-modulated"], ("classical", "phi_s"), ("classical", "measurements_per_run"))])
def test_the_phase_is_checked_at_the_records_last_measurement(tmp_path, cfg, key, length_key):
    """2e307 rad a step leaves the phase of measurement 1 finite and
    overflows that of the base record's last measurement."""
    path = tmp_path / "config.json"
    cfg = _set(cfg, key, 2e307)
    path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidArgumentError, match=f"'{'.'.join(key)}' overflows"):
        read_config(argparse.Namespace(config=str(path)))
    path.write_text(json.dumps(_set(cfg, length_key, 1 if length_key[-1] == "cycles" else 2)))
    assert read_config(argparse.Namespace(config=str(path)))["seed"] == cfg["seed"]
