"""Golden sha256 digests of every `report` artifact for three small configs,
and of the engine's raw streams for five sampler setups, each also at a
size that spans several of the engine's blocks.

The refactors this package goes through must keep every artifact byte-
identical for a fixed seed; this pins the bytes themselves, not only
their repeatability.  The stream digests reach what the artifacts do
not: the charge and prepolarised paths, `zetas` and `signs`.  A digest
here changes only together with a CHANGES.md entry that says which
artifact moved and why.

`python tests/test_golden.py` prints the current digests in the layout
of `GOLDEN` and `STREAMS` below, ready to paste after a deliberate change.
"""

import hashlib
import json

import numpy as np
import pytest

from spintrack.cli import main
from spintrack.engine import CHUNK_SIZE, Sampler, classical_runs, simulate_runs
from spintrack.protocol import ProtocolConfig

READOUT = {"n_a": 1200.0, "n_b": 600.0, "phi_0": 0.02, "repetitions": 200}

CONFIGS = {
    # acceptance check 11's config
    "quantum": {
        "schema": 1, "kind": "quantum",
        "protocol": {"alpha": 0.18 * np.pi, "phi": np.pi / 3.0, "cycles": 12},
        "readout": READOUT, "runs": 600, "seed": 123, "max_lag": 12,
    },
    "classical": {
        "schema": 1, "kind": "classical",
        "classical": {"alpha": 0.3, "theta_step": np.pi / 6, "measurements_per_run": 600},
        "readout": {"n_a": 1200.0, "n_b": 600.0, "repetitions": 200},
        "runs": 30, "seed": 5, "max_lag": 18,
    },
    "classical-modulated": {
        "schema": 1, "kind": "classical-modulated",
        "classical": {"alpha": 0.35, "theta_step": 0.5, "measurements_per_run": 64,
                      "phi_s": 1.0},
        "readout": {"n_a": 1200.0, "n_b": 600.0, "repetitions": 200},
        "runs": 200, "seed": 31, "max_lag": 32,
    },
}

GOLDEN = {
    "quantum": {
        "corr_ix.csv": "1809f00e11e380fce0f626fe953e2b4df074e1e53d3ec6e2a8a533e2928e93aa",
        "corr_sz.csv": "205f45aa20d92fea53627650120c7e854fa7b00440338cc07157e4918e580527",
        "fit.json": "80996eedcc6c920b41c5a976de479b388a7550440fdbd09cb3f042db8792d8d4",
        "lg.csv": "35b70ee5426f69901a20cfcf2921ac6ee686ca2ec9ca9e4382604f65428bb611",
        "modulation.csv": "23fdeb3758f4e54473d10e80977cf70c2378812553657db8989a968e90423c2b",
        "summary.json": "ac5f58d769c821d3ff90af4e613ec74e79253ba83788cf3f51761bb5ec3947b7",
        "trace.csv": "347a9600ed3658b1b5c9bbd9d6d70a299bf369c13011182cbd74552a0d5e8a69",
    },
    "classical": {
        "corr_ix.csv": "2dde0b80434cc950e6073c0a6c738feb3d9cec58b2e220dcc31d4823cbdc285c",
        "corr_sz.csv": "0f03a67f7b604ce38c04871d99ca0828b96527d710ba7212bf3dc80ea89ec0e5",
        "fit.json": "967b432e9646c2d5dacba8e854e3766b98563ca65d4176e27f08eb6ee9f0e0ef",
        "lg.csv": "3c07d731f4f7c318c66b647e6d5be6a95bd917c9f9c15260587f51503e9b58f3",
        "modulation.csv": "1ddd2550d5bde3506d4f9bfb64bd931fe6ca627e83960df405d5ccc946241b84",
        "summary.json": "4c40516be48c88d7f6f5e391cb3169bf25be7782ef7f59294be1850dd02286eb",
        "trace.csv": "b8ceb1c0a04ba0c81950f39d19a490b783d2964ba006ed638eccdf97f484a261",
    },
    "classical-modulated": {
        "fit.json": "f753959bfe576ed606085c2e81da49b4b6e922bd1718a498b4aa7ea08e25b9da",
        "modulation.csv": "e676a3d8fb5fabdeea5c160567c2bfb660298693c78c779d9883e22e1316829d",
        "summary.json": "c16fbd060e767cd21831ccfb232c9e75be3a03ced246aaf33e75d405aef7e5f7",
        "trace.csv": "34a23a37c24ccacff8e5f524b72b23bbee99f8e49aed3c3d0790dd24067e790b",
    },
}

# three full chunks and a partial one, so chunk seeding and stacking count
STREAM_RUNS = 3 * CHUNK_SIZE + 17
_QUANTUM = {"alpha": 0.18 * np.pi, "phi": np.deg2rad(27.0), "cycles": 10}
PHOTONS = {"bright": 90.0, "dark": 30.0}
# about 2.5 blocks of whole chunks and 17 runs at 11 measurements a run
BLOCK_RUNS = 7057
# long classical runs: blocks of 32 runs inside each of two chunks and a
# 17-run one
LONG_LENGTH, LONG_RUNS = 600, 2 * CHUNK_SIZE + 17

SETUPS = {
    "self-polarised": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM), STREAM_RUNS, seed=7, **PHOTONS),
    "prepolarised": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM, prepolarized=True), STREAM_RUNS, seed=8, **PHOTONS),
    "charge": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM), STREAM_RUNS, seed=9, p_minus=0.7, nv0_mean=5.0,
        **PHOTONS),
    "classical": lambda: classical_runs(
        0.3, 0.5, length=40, runs=STREAM_RUNS, seed=12, **PHOTONS),
    "classical-modulated": lambda: classical_runs(
        0.35, 0.5, length=40, runs=STREAM_RUNS, seed=13, modulated=True, **PHOTONS),
    "self-polarised-blocks": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM), BLOCK_RUNS, seed=7, **PHOTONS),
    "prepolarised-blocks": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM, prepolarized=True), BLOCK_RUNS, seed=8, **PHOTONS),
    "charge-blocks": lambda: simulate_runs(
        ProtocolConfig(**_QUANTUM), BLOCK_RUNS, seed=9, p_minus=0.7, nv0_mean=5.0, **PHOTONS),
    "classical-blocks": lambda: classical_runs(
        0.3, 0.5, length=LONG_LENGTH, runs=LONG_RUNS, seed=12, **PHOTONS),
    "classical-modulated-blocks": lambda: classical_runs(
        0.35, 0.5, length=LONG_LENGTH, runs=LONG_RUNS, seed=13, modulated=True, **PHOTONS),
}

STREAMS = {
    "self-polarised": {
        "counts": "859dadb01aee63f58bd14fbbaa5901fcc85b194c7fb8a1e5453f61d920b4ddea",
        "outcomes": "840dd1e5c1d44648bd28a1512560eb6187f7dc7b60860f876d076d0875d0d504",
        "signs": "57b7ba8e3872d57e7224a548abe3f85d690fa9693c21f232b8803af2ab9e1e37",
        "zetas": "282f73fc6dce9f00df1f697d291a9d081d8dbb0387127df896562e3e3b64b818",
    },
    "prepolarised": {
        "counts": "c6955b5f16e07e2515e9a05c583fcbd686ffa866a4ec0feb81e339fd4ce1bcf3",
        "outcomes": "403293143c6e5e8a17553f8b335a1d0b22d55f0dff47b596b0bf141eb0452229",
        "signs": "4b64b4d0a73d364d1543cd58c9b386e2f40e59e46677ba666df31af82d40a874",
        "zetas": "90b6cd0ee56c2254f8835776bac6a401a448251cf04139559650a6a0e000814e",
    },
    "charge": {
        "counts": "ed0e81e548ac13899b3a30725414ee1a55dce1ed6edcde08ec5b050c072338a2",
        "outcomes": "3b469d96bc9b0a2d255c672c9cdcc23002e1e2cba2a66239043a26d5d79b2a92",
        "signs": "2ef416945b1be3282d8fa17d2d315f7d70113a2cbb00c942c438feedefa7bc35",
        "zetas": "256269a8703edc1aeb9667d5d76169789413142b351d5033329f1a0d6b784e19",
    },
    "classical": {
        "counts": "ca156b7e63392b9b9409a843eef95796f991776733d3bcbfe4a1871f4d33e6c6",
        "outcomes": "9050587b7f2680809c37a881ad033fea04cc04cf0a45d1f8d76025bb907ed9d0",
        "signs": "4b64b4d0a73d364d1543cd58c9b386e2f40e59e46677ba666df31af82d40a874",
        "zetas": "43d440feb62616d80ca28fcb19c95a420e6f97d47c4c6b470b4df7ab229bee16",
    },
    "classical-modulated": {
        "counts": "d4ebf545110d1a63d17be0aa7c3ec6ac8de29e4ea9b3d05f2c79a3d37ba1ee9d",
        "outcomes": "f621b8d30c3195942f90b355a5ddff8b183d1b54ff58884d375b3af4dadc25a0",
        "signs": "4b64b4d0a73d364d1543cd58c9b386e2f40e59e46677ba666df31af82d40a874",
        "zetas": "b32e3ebc41ca58c5fc292435e54fbf1e068fb6631b2bb0e29054cd91b478d870",
    },
    "self-polarised-blocks": {
        "counts": "61b5aacca18e83d07058be92345828e079e9e21e510fd370e6b8368a5d6f0ef5",
        "outcomes": "4fdd86dee18966fa5cee086393347ca556a5871e610e7ad893c1a8ebd5d87835",
        "signs": "d29b609a272b973763f8e4e2ed4a80dcb4cc705070ca06cc46f775586bc68674",
        "zetas": "56c684ed2548dc363b3c5cbaa8758e043e32188f72eaa283a386fb4983613394",
    },
    "prepolarised-blocks": {
        "counts": "31f5e49d948583335634ccdccf4648b5e3bf9dbc82c2a01f633102cffbac292b",
        "outcomes": "92019094ca922d8b2cceaf89e8961e40f95b2c5f187139f23cbf5344be3f16d6",
        "signs": "aa4e1c298f79b6493160fb55a7681b6d470eec0059458e2592c5914ef9fbcd2a",
        "zetas": "726adc85844bdf75b954c93d5cf17716cb3ce119030981ad5c100931b9473515",
    },
    "charge-blocks": {
        "counts": "ee9f706443b05789245dfc571080fa36ae50ecc76fb0f4d72f6b65411c11cb4d",
        "outcomes": "86e59dae3a68e2bc4565d9f6635b644fdf7d2abd1bd545f4316e364cc7644829",
        "signs": "ee5b0dac898ccc496619a3b0bd121ff3d35d3c9238fd3bd5c82abfa25d73529b",
        "zetas": "9ab698221d4bb204efb18e31aa0fbaa5ad1c02aa32f1518b9f1e392d316e1751",
    },
    "classical-blocks": {
        "counts": "b955c7145c6ace78cf28d8946bc907e3ac2a71e13dd01bc336a5ea6bc883eb47",
        "outcomes": "e26695cac3448eee396393bd4c04da617881bace393d4da39f8f78a201369ead",
        "signs": "dc07de5ede0cf9c6965b9e65f69f5e77e5a2953bf1f9a4dc9e8b53d7fa63f333",
        "zetas": "9beed7305f5cb2955997a0d286ec72101d93dd99f0c73304c9e5c3fd0f4e1364",
    },
    "classical-modulated-blocks": {
        "counts": "5be0152063cd180bd528220c886b799f00b17ddd6f93bb9bb8a5313fc1d24885",
        "outcomes": "1329353a9afe780973b85aac6fd0e87eff3bfd024e84f880564c9ab89a4798e3",
        "signs": "dc07de5ede0cf9c6965b9e65f69f5e77e5a2953bf1f9a4dc9e8b53d7fa63f333",
        "zetas": "0266dbebb2dd62cc62b2ed68088ee25cf043f25201ee85e5662d827a3142b2f8",
    },
}


def report_digests(kind, out) -> dict:
    """Run `report` for CONFIGS[kind] into the directory `out`; digest each file."""
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[kind]))
    art = out / "out"
    assert main(["report", "--config", str(cfg_path), "--out", str(art)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in art.iterdir()}


def stream_digests(setup) -> dict:
    """Digest of each RunBatch array: dtype, shape and bytes."""
    batch = SETUPS[setup]()
    got = {}
    for name in ("outcomes", "zetas", "counts", "signs"):
        a = np.ascontiguousarray(getattr(batch, name))
        h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        got[name] = h.hexdigest()
    return got


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_report_artifact_digests(kind, tmp_path):
    assert report_digests(kind, tmp_path) == GOLDEN[kind]


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_engine_stream_digests(setup):
    assert stream_digests(setup) == STREAMS[setup]


def test_block_setups_span_several_blocks():
    """The `-blocks` setups cross the engine's block boundaries: quantum
    blocks of whole chunks, and classical blocks inside a chunk."""
    for prepolarized in (False, True):
        block = Sampler.quantum(ProtocolConfig(**_QUANTUM, prepolarized=prepolarized)).block
        assert block % CHUNK_SIZE == 0 and BLOCK_RUNS > 2 * block and BLOCK_RUNS % block
    for modulated in (False, True):
        block = Sampler.classical(0.3, 0.5, LONG_LENGTH, modulated).block
        assert CHUNK_SIZE % block == 0 and block < CHUNK_SIZE < LONG_RUNS


def _layout(name: str, table: dict) -> str:
    lines = [f"{name} = {{"]
    for key, digests in table.items():
        lines.append(f'    "{key}": {{')
        lines += [f'        "{k}": "{v}",' for k, v in sorted(digests.items())]
        lines.append("    },")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report = {kind: report_digests(kind, pathlib.Path(tmp, kind)) for kind in CONFIGS}
    print(_layout("GOLDEN", report))
    print()
    print(_layout("STREAMS", {setup: stream_digests(setup) for setup in SETUPS}))
