"""Byte-equality of every CLI scenario's artifact against committed golden files.

The golden files under tests/golden/ pin the exact bytes each scenario
writes, in csv and json.  A refactor of any layer below the CLI must leave
them unchanged.  To regenerate them after an intended change of output,
run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
from pathlib import Path

import pytest

from onticsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
CHANNEL = GOLDEN / "cnot_channel.json"

# name -> (scenario, config text, extra flags)
CASES = {
    "measure": (
        "measure",
        "scenario = measure\nsubject_dim = 2\n"
        "psi = 0.8366600265340756, 0.5477225575051661\n"
        "n_a = 10\nn_e = 10\ndt = 0.5\n",
        [],
    ),
    "sweep": ("sweep", "", []),
    "semigroup": ("semigroup", "", []),
    "trajectories": ("trajectories", "", []),
    "trajectories_sample": ("trajectories", "mode = sample\n", ["--seed", "7"]),
    "helix": ("helix", "", []),
    "nonlinear": ("nonlinear", "", []),
    "verify": ("verify", f"channel_path = {CHANNEL}\n", []),
}

ARTIFACTS = [(name, fmt) for name in CASES for fmt in ("csv", "json")]


def run_case(name: str, fmt: str, workdir: Path) -> bytes:
    scenario, config, flags = CASES[name]
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(config)
    out = workdir / f"{name}.{fmt}"
    argv = [scenario, "--config", str(cfg), "--format", fmt, "--out", str(out), *flags]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name,fmt", ARTIFACTS)
def test_artifact_matches_golden(name, fmt, tmp_path):
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert run_case(name, fmt, tmp_path) == expected


if __name__ == "__main__":
    import json
    import tempfile

    from onticsim import CNOT, HilbertSpace, UnitaryOperator, channel_to_json, unitary_channel

    GOLDEN.mkdir(exist_ok=True)
    space = HilbertSpace.of(("s", 2), ("e", 2))
    payload = channel_to_json(unitary_channel(UnitaryOperator(space, CNOT)))
    CHANNEL.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for name, fmt in ARTIFACTS:
            (GOLDEN / f"{name}.{fmt}").write_bytes(run_case(name, fmt, Path(tmp)))
