"""Regenerate cli_reference.json, the stored reference the cli_mix checks use.

    python3 perfbench/make_cli_reference.py

Runs each cli_mix scenario once, in JSON form, and stores its numbers.
For trajectories it stores the 14 kernels instead of the 16384 path
probabilities (the check rebuilds them as products); for helix it stores
only the parameters (the check evaluates the closed form).  Regenerate
only when a scenario's expected output changes on purpose.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import onticsim as ot  # noqa: E402
from onticsim import cli  # noqa: E402
from workloads import CLI_REFERENCE, CLI_SCENARIOS, cli_inputs, parse_artifact  # noqa: E402


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-ref-", dir=HERE.parent))
    try:
        configs = cli_inputs(workdir)
        reference = {}
        for scenario in CLI_SCENARIOS:
            out = workdir / f"{scenario}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([scenario, "--config", str(configs[scenario]), "--out", str(out), "--format", "json"])
            if code != 0:
                raise SystemExit(f"{scenario} exited with {code}")
            got = parse_artifact(scenario, "json", out.read_bytes())
            params = cli.parse_config(configs[scenario].read_text()).params
            if scenario in ("measure", "sweep"):
                reference[scenario] = {"rows": got["rows"].tolist()}
            elif scenario in ("semigroup", "nonlinear", "verify"):
                reference[scenario] = got
            elif scenario == "trajectories":
                rho_s0 = ot.DensityMatrix(
                    ot.HilbertSpace.of(("s", 2)), np.diag([params["p0"], 1.0 - params["p0"]])
                )
                env = ot.basis_state(ot.HilbertSpace.of(("e", 2)), 0).density_matrix()
                chain = ot.markov_chain_from_repeated_interaction(
                    params["rate"] * ot.SWAP, env, rho_s0, params["step"], params["steps"]
                )
                reference[scenario] = {
                    "times": list(chain.times),
                    "kernels": [k.values.tolist() for k in chain.kernels],
                }
            elif scenario == "helix":
                reference[scenario] = {k: params[k] for k in ("omega", "points", "t_max")}
        CLI_REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
