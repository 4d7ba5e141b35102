"""One fresh benchmark process: cold import of onticsim, set-up, timed ops.

Run by ``run.py``; prints one JSON object as its last line of output.

  --mode setup   import and set up, report setup_s, exit
  --mode run     then run untraced ops for --seconds (end-to-end metrics)
  --mode trace   trace set-up, then run every op twice, untraced and traced
                 in alternating order, and require identical outputs
                 (per-layer metrics)
"""

from time import perf_counter

T0 = perf_counter()  # before onticsim (and numpy) are imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TAIL_BEYOND = 10
# fewest ops a run measures, whatever --seconds says, so that the tail
# percentile exists
MIN_OPS = 20


def tail(samples) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n).  The value is the (TAIL_BEYOND + 1)-th
    largest sample; the percentile is the share of samples at or below it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond any percentile")
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def _blas() -> str:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def _done(i: int, start: float, seconds: float, cycle: int) -> bool:
    return i >= MIN_OPS and i % cycle == 0 and perf_counter() - start >= seconds


def _timed(wl, inp):
    t = perf_counter()
    out = wl.op(inp)
    return out, perf_counter() - t


def run_ops(wl, seconds: float) -> dict:
    latencies, errors = [], []
    attempted = failed = 0
    start = perf_counter()
    while not _done(attempted, start, seconds, wl.cycle):
        inp = wl.make_input(attempted)
        attempted += 1
        try:
            out, dt = _timed(wl, inp)
            latencies.append(dt)
            wl.check(inp, out)
        except Exception as err:  # a failing op is counted and the run goes on
            failed += 1
            errors.append(f"op {attempted - 1}: {type(err).__name__}: {err}")
    if len(latencies) <= TAIL_BEYOND:
        raise RuntimeError(f"only {len(latencies)} ops completed; errors: {errors[:3]}")
    tail_s, pct, n = tail(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "tail_percentile": pct,
        "tail_n": n,
    }


def trace_ops(wl, tracer, seconds: float) -> dict:
    from tracer import COUNTER_NAMES, SPAN_NAMES, TARGETS, self_times

    plain, traced = [], []
    own: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    counts: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0.0)
    covered = 0.0
    errors = []
    attempted = failed = mismatched = 0
    start = perf_counter()
    while not _done(attempted, start, seconds, wl.cycle):
        inp = wl.make_input(attempted)
        attempted += 1
        digests = {}
        try:
            for with_trace in (False, True) if attempted % 2 else (True, False):
                if with_trace:
                    tracer.install()
                try:
                    out, dt = _timed(wl, inp)
                finally:
                    tracer.uninstall()
                (traced if with_trace else plain).append(dt)
                digests[with_trace] = wl.digest(inp, out)
            spans, op_counts = tracer.take()
            wl.check(inp, out)
        except Exception as err:  # a failing op is counted and the run goes on
            tracer.take()
            failed += 1
            errors.append(f"op {attempted - 1}: {type(err).__name__}: {err}")
            continue
        if digests[True] != digests[False]:
            failed += 1
            mismatched += 1
            errors.append(f"op {attempted - 1}: traced output differs from untraced")
        op_own, op_calls, op_top = self_times(spans)
        for name in op_own:
            own[name] += op_own[name]
            calls[name] += op_calls[name]
        for name, value in op_counts.items():
            counts[name] += value
        covered += op_top

    n = len(traced)
    if n == 0:
        raise RuntimeError(f"no traced op completed; errors: {errors[:3]}")
    wall = sum(traced)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n, "count")
        metrics[f"{name}.self_ms"] = (1e3 * own[name] / n, "ms")
    for module, names in TARGETS.items():
        module_own = sum(own[f"{module}.{name}"] for name in names)
        metrics[f"{module}.self_ms"] = (1e3 * module_own / n, "ms")
        metrics[f"{module}.share"] = (module_own / wall, "fraction")
    for name in COUNTER_NAMES:
        metrics[name] = (counts[name] / n, "count")
    metrics["trace.overhead_ms"] = (1e3 * (statistics.median(traced) - statistics.median(plain)), "ms")
    metrics["trace.top_span_share"] = (covered / wall, "fraction")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "errors": errors[:5],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from tracer import Tracer, inclusive
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()
    wl.setup()
    setup_s = perf_counter() - T0
    tracer.uninstall()
    setup_spans, _ = tracer.take()

    result = {"setup_s": setup_s}
    if args.mode == "run":
        result.update(run_ops(wl, args.seconds))
    elif args.mode == "trace":
        result.update(trace_ops(wl, tracer, args.seconds))
        share = inclusive(setup_spans, "channels.QuantumChannel") / setup_s
        result["metrics"]["setup.channels.QuantumChannel.share"] = (share, "fraction")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas"] = _blas()
    import numpy

    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
