"""Golden sha256 digests of every `report` artifact for three small configs.

The refactors this package goes through must keep every artifact byte-
identical for a fixed seed; this pins the bytes themselves, not only
their repeatability.  A digest here changes only together with a
CHANGES.md entry that says which artifact moved and why.
"""

import hashlib
import json

import numpy as np
import pytest

from spintrack.cli import main

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
        "corr_ix.csv": "36002d53b127f19ae2cf61c3c0217b3af4ad8273ba1dddad820f6519b56f9794",
        "corr_sz.csv": "5cd0a506fbdd9b1074cb2ce9180149a935c470cafe53db0afd50737a60307a4d",
        "fit.json": "b7794d0bc76b9ed3a60317955292de8886e5ea78648b6a339ff9e3d545578de6",
        "lg.csv": "6156be6bca539331910c2187fd2e03ddabb3fb1630301f109f3ebc7253893eca",
        "modulation.csv": "fd1d367645e44e0bdc58c227b5a238b64e724bb5cca8c78c9012041a254f6d69",
        "summary.json": "ba28a3c4332883e0868339160bc1b1e3134f8af37a166e957292a601535e3c86",
        "trace.csv": "58f1d1c76bc4c74562a4fc7710fefe339c62a19a22c50bb9fa9ef8efae5ba67e",
    },
    "classical": {
        "corr_ix.csv": "9101c101840a57f2b02013467a7b822a8f208cfa02707f5ef3dd26d3e4dc0d2f",
        "corr_sz.csv": "6b38cfb6fa0019ef25aac700c4d6677811286b33ac1329df66a67aa101108d42",
        "fit.json": "fb3cd6bcf85f72cfbb98793cafe190f84fca11aefacd291069457fcfdffb3192",
        "lg.csv": "bc6743ea7c5b555bbf83373d8a22ff0a5a85a3d3ecdec18972ab4bccaa6c8787",
        "modulation.csv": "ae71a6a4645a5cf559683ae0884f2bf63b1e094aed6e312c7d608fb23e39a0e3",
        "summary.json": "5d95f565d8dfe1a5100bc9408d11c05d5acf58aa58847423082726eb1787ef57",
        "trace.csv": "5f1acc1051a3c6baddb544a48b8e9a6412dfd2ae8d0dfb492f869bb945ed7fda",
    },
    "classical-modulated": {
        "fit.json": "af8ed36792e102f1a7af583fef359a5a80c7f404afea87586eb221f737a79501",
        "modulation.csv": "b094a3bf8785b060c4dffa4dafb6afb89a26c3d040c71221b2b7d10d1105d468",
        "summary.json": "cf5b738740d5d49e56f59ad89b7c604df1cfe626b71e7fc0768801e884cb5d5c",
        "trace.csv": "fe8c16630415dc8dbe128cba0edcf850f47939a69dd32ec3245d8d7e9fd79198",
    },
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_report_artifact_digests(kind, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[kind]))
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[kind]
