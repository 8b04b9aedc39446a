"""The benchmark's traced replica, `perfbench/replica.py`, runs on tiny
configs of the `classical-report` and `quantum-stages` workloads.

The replica calls the package's public names one by one and must write
the artifacts the CLI writes, byte for byte; a change that breaks either
would otherwise show only in a traced benchmark run.  The files under
`perfbench/` are read and run as they are, without writing bytecode there.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys

import pytest

import spintrack
from spintrack.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
WORKLOADS = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))


def _classical(seed):
    cfg = WORKLOADS["classical_config"](seed)
    return dict(cfg, runs=4, classical=dict(cfg["classical"], measurements_per_run=300))


#: each workload's config, shrunk to run in about a second
TINY = {
    "classical-report": _classical,
    "quantum-stages": lambda seed: dict(WORKLOADS["stages_config"](seed), runs=400),
}


def _digests(out, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("name", sorted(TINY))
def test_replica_writes_what_the_cli_writes(tmp_path, name):
    workload = WORKLOADS["WORKLOADS"][name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY[name](123)))
    cli_out, replica_out, spans = tmp_path / "cli", tmp_path / "replica", tmp_path / "spans.json"
    for step in workload["steps"]:
        assert main(WORKLOADS["step_argv"](step, str(config), str(cli_out))) == 0, step
    replica_out.mkdir()
    src = os.path.dirname(os.path.dirname(spintrack.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "replica.py"), name,
                           str(config), str(replica_out), str(spans)],
                          capture_output=True, text=True, env=env)
    result = json.loads(spans.read_text())
    assert result["missing"] == [], proc.stderr
    assert result["error"] is None, proc.stderr
    assert result["finished"]
    assert (_digests(replica_out, workload["artifacts"])
            == _digests(cli_out, workload["artifacts"]))
