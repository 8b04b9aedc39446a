"""Start-up: which modules `spintrack.cli` loads at import and which a run adds.

Every module a subcommand needs is loaded by `import spintrack.cli`, so its
cost counts as start-up and none falls inside the timed `cli.main`; scipy
is not among them, and the subcommands run where it cannot be imported.
Each case runs in a fresh interpreter, because this suite's own process
has loaded scipy long before.  The last test parses, without importing,
which package modules each pipeline module imports: never `composite`.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import spintrack

#: imports the CLI, runs it on argv, prints the exit code and the modules
#: that the run loaded, as JSON
_CHILD = """\
import json, sys
import spintrack.cli as cli
before = set(sys.modules)
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code, "before": sorted(before),
                  "loaded": sorted(set(sys.modules) - before)}))
"""

READOUT = {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 50}
CONFIGS = {
    "quantum": {"protocol": {"alpha": 0.5655, "phi": 1.0472, "cycles": 12}, "runs": 300},
    "classical": {"classical": {"alpha": 0.5655, "theta_step": 1.0472,
                                "measurements_per_run": 200}, "runs": 10},
    "classical-modulated": {"classical": {"alpha": 0.35, "theta_step": 0.5,
                                          "measurements_per_run": 64}, "runs": 50},
}


def _run(*argv, child: str = _CHILD) -> dict:
    src = os.path.dirname(os.path.dirname(spintrack.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _config(tmp_path, kind: str) -> str:
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(dict(schema=1, kind=kind, seed=3, readout=READOUT,
                                    **CONFIGS[kind])))
    return str(path)


def test_import_loads_no_scipy_and_every_lazy_numpy_module():
    before = _run()["before"]
    assert [m for m in before if m.split(".")[0] == "scipy"] == []
    for name in ("numpy.random", "numpy.fft", "locale"):
        assert name in before, name


def test_stage_subcommands_load_no_module_inside_main(tmp_path):
    cfg, out = _config(tmp_path, "quantum"), str(tmp_path / "out")
    for step in (["simulate", "--workers", "2"], ["calibrate"],
                 ["correlate", "--fit", f"{out}/fit.json"],
                 ["lgtest", "--corr", f"{out}/corr_sz.csv"]):
        run = _run(step[0], "--config", cfg, "--out", out, *step[1:])
        assert (run["code"], run["loaded"]) == (0, []), step[0]


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_report_loads_no_module_inside_main(tmp_path, kind):
    run = _run("report", "--config", _config(tmp_path, kind), "--out", str(tmp_path / "out"))
    assert (run["code"], run["loaded"]) == (0, [])


#: the same with scipy unimportable: `import scipy` raises ImportError, then
#: the CLI runs on argv and `fit_decay` on an exact damped cosine
_NO_SCIPY = """\
import json, sys
sys.modules["scipy"] = None
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was importable")
import numpy as np
import spintrack.cli as cli
from spintrack.calibrate import fit_decay
code = cli.main(sys.argv[1:])
n = np.arange(1.0, 40.0)
fit = fit_decay(n, 0.3 * np.cos(0.5 * n) * np.exp(-0.02 * (n - 1)), 0.5)
print(json.dumps({"code": code, "params": fit.params}))
"""


def test_the_modulated_report_and_fit_decay_run_without_scipy(tmp_path):
    cfg = _config(tmp_path, "classical-modulated")
    run = _run("report", "--config", cfg, "--out", str(tmp_path / "out"), child=_NO_SCIPY)
    assert run["code"] == 0
    assert run["params"] == pytest.approx({"amplitude": 0.3, "gamma": 0.02}, abs=1e-9)
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["alpha_fit"] > 0


#: the modules the pipeline runs; `composite`, the exact 4x4 route their
#: Bloch maps are checked against, is not among them
PIPELINE = ("calibrate", "cli", "correlation", "engine", "errors", "lg", "protocol", "readout")


@pytest.mark.parametrize("name", PIPELINE)
def test_pipeline_modules_import_only_pipeline_modules(name):
    """Parsed, not imported: the package's own imports of each pipeline module."""
    path = os.path.join(os.path.dirname(spintrack.__file__), f"{name}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    own, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            own |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {a.name for a in node.names}
    assert [m for m in absolute if m.split(".")[0] == "spintrack"] == []
    assert "composite" not in own
    assert own <= set(PIPELINE), own - set(PIPELINE)
