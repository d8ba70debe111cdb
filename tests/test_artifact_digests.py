"""Byte pins on every artifact the CLI writes, for a fixed set of configs.

The digests were taken with the per-cell CSV writers that the row-wise
writers replaced, so a passing run shows the rewrite kept every byte. They
also pin the floating-point results of the numeric stack they were taken on
(numpy 2.4, scipy 1.17, x86-64); after an intended change to either, print
the new table with `PYTHONPATH=src python tests/test_artifact_digests.py`
and check the writers against `tests/test_serialize.py` before pasting it.
"""

import hashlib
import json

import numpy as np
import pytest

from potkernels.cli import main


def _floats(values):
    return [float(v) for v in values]


N_LIMSUP = 100_000
N_LIMSUP_F = 20_000

CASES = {
    "invert-min-300": {
        "command": "invert",
        "spec": {"family": "min", "s": _floats(np.arange(1, 331) ** 1.5)},
        "window": {"l": 0, "n": 300},
    },
    "invert-ar1-300": {
        "command": "invert",
        "spec": {"family": "ar1", "x": _floats(np.linspace(0.3, 0.8, 330))},
        "window": {"l": 7, "n": 300},
    },
    "simulate-exp-1e4x40": {
        "command": "simulate",
        "spec": {"family": "exp", "v": _floats(0.5 * np.arange(1, 51))},
        "n": 40, "k_half": 1, "trials": 10_000, "seed": 11,
    },
    "simulate-ar1-f-1e4x40": {
        "command": "simulate",
        "spec": {"family": "ar1", "x": [0.5] * 50},
        "n": 40, "k_half": 2, "trials": 10_000, "seed": 12,
        "f": {"density": [0.3, 0.2, 0.1, 0.4], "start": 1},
    },
    "phi-simple-1e5": {"command": "phi", "p": [0.5, 0.25], "n_terms": 100_000},
    # sum(p) = 1, so phi.csv carries the psi column
    "phi-drift-2e4": {"command": "phi", "p": [1 / 3, 5 / 9, 1 / 9], "n_terms": 20_000},
    "phi-complex-2e3": {"command": "phi", "p": [0.25, 0.125, 0.5], "n_terms": 2_000},
    "limsup-exp-1e5": {
        "command": "limsup",
        "spec": {"family": "exp", "v": _floats(1.0 + np.arange(N_LIMSUP))},
        "alpha": 0.5,
        "hypotheses": {"f_class": "zero", "alpha": 0.5, "gaps": "separated"},
        "checkpoints": [1_000, 10_000, N_LIMSUP], "trials": 21, "seed": 5,
    },
    # the only pinned run with an f: it adds sqrt(f) xi to every path
    "limsup-exp-f-2e4": {
        "command": "limsup",
        "spec": {"family": "exp", "v": _floats(1.0 + np.arange(N_LIMSUP_F))},
        "alpha": 1.5,
        "hypotheses": {"f_class": "c0", "alpha": 1.5, "gaps": "separated"},
        "f": {"values": _floats(0.5 / np.sqrt(np.arange(1, N_LIMSUP_F + 1)))},
        "checkpoints": [200, 2_000, N_LIMSUP_F], "trials": 4, "seed": 6,
    },
    "validate-min-f": {
        "command": "validate",
        "spec": {"family": "min", "s": _floats(np.arange(1, 41))},
        "window": {"l": 0, "n": 30},
        "f": {"values": [1.0] * 30},
    },
    "validate-killed-walk": {
        "command": "validate",
        "spec": {"family": "killed_walk", "step_rates": {"-1": 0.4, "1": 0.6},
                 "beta": 0.3, "radius": 20},
        "window": {"l": 0, "n": 41},
    },
    "symmetrize-min": {
        "command": "symmetrize",
        "spec": {"family": "min", "s": [1.0, 2.0, 3.0, 4.0, 5.0]},
        "window": {"l": 1, "n": 3},
        "f": {"values": [1.0, 1.0, 1.0]},
        "alpha": 0.5,
    },
    "cstar-simple": {"command": "cstar", "p": [0.5, 0.25]},
    "cstar-complex": {"command": "cstar", "p": [0.25, 0.125, 0.5]},
    "predict-ar1": {
        "command": "predict",
        "spec": {"family": "ar1", "x": [0.5] * 20},
        "hypotheses": {"f_class": "zero", "alpha": 1.0, "x_limit": 0.5},
    },
    "predict-ark": {
        "command": "predict",
        "spec": {"family": "ark", "p": [0.5, 0.25]},
        "hypotheses": {"f_class": "c0", "alpha": 0.5},
    },
}

DIGESTS = {
    "cstar-complex": {
        "cstar.json": "6eee5deacb4c322c9ed6fcd1f8f606f890e3ae00a41eb7401b545e88e178272b",
    },
    "cstar-simple": {
        "cstar.json": "d12a892441bdbe95597dc1ca51a15bf8146a59fbecfa1c9acfff7b7c3e779aeb",
    },
    "invert-ar1-300": {
        "inverse.csv": "86b5e6720e0d1fb633a4fba64bed221b53c1b021f07ca133de55d41894e128b1",
        "invert.json": "94d6ba48cf70640474fd2e2a9f06df911d387a348da1e388c16f799abbba6583",
    },
    "invert-min-300": {
        "inverse.csv": "00a6f4500897a818cf68189cd8058b093054e7cfd7cc1584ca448dda9626f219",
        "invert.json": "c079ed4fe3168095f3959fc29c147508e1e8f5f5138d6bb6e2c0109d3eeaea02",
    },
    "limsup-exp-1e5": {
        "limsup.json": "9fa596e0f7b51afc403c02ac2f5eec5a37b35d4fa4a74fc6f2578d3360d88f4a",
        "trend.csv": "f4cfcb068e5b98e77088384e99e971e3f613c74e86e4e8b0cf82ccb28c33d6f9",
    },
    "limsup-exp-f-2e4": {
        "limsup.json": "db19811d9607336791452bd24aa17b0f8de9796314c73e293b9a7d394894c4f1",
        "trend.csv": "81542055692cc9bd27ae6f13053ec97a0a1c1ab4d4fdc40ab3ff552441357f57",
    },
    "phi-complex-2e3": {
        "phi.csv": "a782fb528352589df96ce926c2390575a75f47332813622ad212e7dce8d86b77",
        "phi.json": "08f432a23136b03c838da459ae9b27b285bc9dea82d34abe886075508abe3684",
    },
    "phi-drift-2e4": {
        "phi.csv": "f3add7c7020952502da55d68f9e70c969c04ac12c910850b20c9eeb62645b27c",
        "phi.json": "b8be09cdafd265804339846e6eb1d5debbf9ec487c37cbe6e25aaf6f7fde617a",
    },
    "phi-simple-1e5": {
        "phi.csv": "996721561717033f70143631f02b54e23de44eba6b8cc782820448c4e54e0d9b",
        "phi.json": "9d80ebd1b21f6b063969b61a1c45243f0115cbe907dd11051afa0e34bb3d22ae",
    },
    "predict-ar1": {
        "predict.json": "cfac85e00ba5ecc5330c9bbb2a016e39087ef1f32328e61b74074943c1ea8475",
    },
    "predict-ark": {
        "predict.json": "103f28f2e65d87b032fc1116598e3be55471bb1c46372a0de2d60c2b35f6b175",
    },
    "simulate-ar1-f-1e4x40": {
        "marginals.csv": "4f2600743fa68225592daaa9f4eb4463e4f738e69e8d4ac5cb852260a46d6b92",
        "samples.csv": "1e797e38f5ce56cfa30a155604f1419cf10f3fc8be0e7d6cbfe3c9748116855f",
        "simulate.json": "23629261b7442205dd58a036eb83403249b9492fcce3e86901823ccb1d6d7218",
    },
    "simulate-exp-1e4x40": {
        "marginals.csv": "ebcc14f71116c0e6c857078191d495dc13f925275aa6a37bb7d216332997b9d8",
        "samples.csv": "c213bce7b6f75e556ada0f250de3ef8b95b93c5b882235ec97043acef20baf7b",
        "simulate.json": "04046a9526793b7f06b7aa5e895a38ae4512cbb7f82d773ee0c5b76d0d7e5a6d",
    },
    "symmetrize-min": {
        "a_vector.csv": "af94018bb446831e9f18f1d6b1a6d6920d38cbe76f4a8daaf7478848c005a4b1",
        "symmetrize.json": "8385f711218757c50fa0e39f79d5d7c5a17db65f2e37090440f201226ca58bb5",
    },
    "validate-killed-walk": {
        "validate.json": "41bbd7c00186ec9f1c0f835d880a305b5e84409963c3c9ad1bec2a6e208ba5d5",
    },
    "validate-min-f": {
        "validate.json": "8d1451fa202b161b2361656367e787f25b2190c35c0e62f8f6bb39679870e74c",
    },
}


def artifacts(cfg, workdir):
    """Run one config through the CLI; {file name: bytes} of what it wrote."""
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    outdir = workdir / "out"
    assert main(["--config", str(path), "--out", str(outdir), "--quiet"]) == 0
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_are_pinned(case, tmp_path):
    written = artifacts(CASES[case], tmp_path)
    for data in written.values():
        assert b"np." not in data
    got = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
    assert got == DIGESTS[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            written = artifacts(CASES[case], Path(tmp))
        print(f'    "{case}": {{')
        for name, data in written.items():
            print(f'        "{name}": "{hashlib.sha256(data).hexdigest()}",')
        print("    },")
