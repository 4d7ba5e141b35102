"""onticsim benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload tables_d48 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports onticsim from src/.
Each workload runs in fresh processes (see worker.py): with --trace 0,
SETUP_SAMPLES[workload] - 1 set-up-only processes and one process that
sets up and then times ops for --seconds; setup_s is the median over all
of them.  With --trace 1, one process traces set-up and runs each op
untraced and traced.  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is a
JSON record of the run's context (seed, versions, BLAS, the median op
latency, the tail percentile, the first errors).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("tables_d48", "measure_d128", "chains_q2", "cli_mix")
# set-up processes per --trace 0 run; tables_d48 sets up for about 5 s
SETUP_SAMPLES = {"tables_d48": 3, "measure_d128": 5, "chains_q2": 5, "cli_mix": 5}
# BLAS threads in every worker: at d <= 128 a second thread made tables_d48
# ops slower (124 ms against 112 ms on a 2-core x86-64 VM) and no steadier
BLAS_THREADS = 1
# every run must end within this, set-up processes included
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mib", "MiB"),
)


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ONTIC_SIM_TOLERANCE_SCALE", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", str(workdir),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onticsim" / "__init__.py").is_file():
        print(f"no onticsim sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            result = run_worker(args, "trace", workdir, deadline)
            metrics = result["metrics"]
            setup_samples = [result["setup_s"]]
        else:
            setup_samples = [
                run_worker(args, "setup", workdir, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES[args.workload] - 1)
            ]
            result = run_worker(args, "run", workdir, deadline)
            setup_samples.append(result["setup_s"])
            result["setup_s"] = statistics.median(setup_samples)
            metrics = {name: (result[name], unit) for name, unit in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "setup_samples_s": setup_samples,
        "error_rate": result["failed"] / result["attempted"],
        "errors": result["errors"],
    }
    for key in ("op_ms_p50", "tail_percentile", "tail_n", "mismatched"):
        if key in result:
            context[key] = result[key]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
