"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import onticsim  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from worker import TAIL_BEYOND, tail  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def _fingerprint(x) -> bytes:
    """Bytes of a generated input, recursing into the library objects it holds."""
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, (tuple, list)):
        return b"|".join(_fingerprint(v) for v in x)
    for attr in ("matrix", "amplitudes"):
        if hasattr(x, attr):
            return _fingerprint(getattr(x, attr))
    if dataclasses.is_dataclass(x):
        return repr(dataclasses.astuple(x)).encode()
    if isinstance(x, Path) and x.is_file():
        return x.read_bytes()
    return repr(x).encode()


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """One set-up instance of each workload, seed 3."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(3, tmp_path_factory.mktemp(name))
        wl.setup()
        out[name] = wl
    return out


@pytest.fixture(scope="module")
def outputs(workloads):
    """Input and untraced output of op 0 of each workload."""
    out = {}
    for name, wl in workloads.items():
        inp = wl.make_input(0)
        result = wl.op(inp)
        wl.check(inp, result)
        out[name] = (inp, result)
    return out


@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 1000])
def test_tail_leaves_ten_samples_beyond_and_reports_n(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, pct, count = tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(TAIL_BEYOND))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, workloads):
    first = workloads[name]
    again = WORKLOADS[name](3, first.workdir)
    other = WORKLOADS[name](4, first.workdir)
    if name == "cli_mix":
        again.setup()
        other.setup()
    for i in range(3):
        assert _fingerprint(first.make_input(i)) == _fingerprint(again.make_input(i))
    if name != "cli_mix":  # cli_mix inputs are fixed; the seed rotates the cycle start
        assert _fingerprint(first.make_input(0)) != _fingerprint(other.make_input(0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(name, workloads, outputs):
    wl = workloads[name]
    inp, plain = outputs[name]
    plain_digest = wl.digest(inp, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.op(inp)
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert wl.digest(inp, traced) == plain_digest
    own, calls, top = self_times(spans)
    assert sum(calls.values()) == len(spans) > 0
    assert top > 0.0


def test_uninstall_restores_every_binding():
    import onticsim.channels as channels
    import onticsim.ontic as ontic

    before = (onticsim.apply, channels.apply, ontic.apply, onticsim.DensityMatrix.__init__)
    tracer = Tracer()
    tracer.install()
    assert onticsim.apply is not before[0] and ontic.apply is onticsim.apply
    tracer.uninstall()
    assert (onticsim.apply, channels.apply, ontic.apply, onticsim.DensityMatrix.__init__) == before


def _moved(values: np.ndarray, index, by: float) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[index] += by
    return out


def _with(obj, **fields):
    """Copy of a frozen library object with fields replaced, skipping its checks."""
    copy = object.__new__(type(obj))
    copy.__dict__.update(obj.__dict__)
    copy.__dict__.update(fields)
    return copy


def test_tables_check_rejects_a_cell_moved_by_1e_6(workloads, outputs):
    wl = workloads["tables_d48"]
    rho, (table, gap, system) = outputs["tables_d48"]
    for bad in (
        (_with(table, values=_moved(table.values, (17, 5), 1e-6)), gap, system),
        (table, 1e-6, system),
        (table, gap, _with(system, values=_moved(system.values, (3, 2), -1e-6))),
    ):
        with pytest.raises(CheckFailed):
            wl.check(rho, bad)


def test_measure_check_rejects_a_deviation_moved_by_1e_6(workloads, outputs):
    wl = workloads["measure_d128"]
    inp, (report, born_check) = outputs["measure_d128"]
    moved = dataclasses.replace(report, max_born_deviation=report.max_born_deviation + 1e-6)
    for bad in ((moved, born_check), (report, born_check + 1e-6)):
        with pytest.raises(CheckFailed):
            wl.check(inp, bad)


def test_chains_check_rejects_lost_mass_and_impossible_paths(workloads, outputs):
    wl = workloads["chains_q2"]
    inp, (chain, paths, measure) = outputs["chains_q2"]
    first = next(iter(measure))
    lost = {**measure, first: measure[first] - 1e-6}
    with pytest.raises(CheckFailed):
        wl.check(inp, (chain, paths, lost))
    broken = list(paths)
    broken[7] = _with(paths[7], indices=paths[7].indices[:-1] + (2,))
    with pytest.raises(CheckFailed):
        wl.check(inp, (chain, broken, measure))
    zero = [_with(k, values=np.zeros_like(k.values)) for k in chain.kernels]
    with pytest.raises(CheckFailed):
        wl.check(inp, (_with(chain, kernels=tuple(zero)), paths, measure))


@pytest.mark.parametrize("scenario,fmt", [("measure", "json"), ("trajectories", "csv"), ("helix", "csv")])
def test_cli_check_rejects_a_number_moved_by_1e_6_relative(workloads, scenario, fmt):
    wl = workloads["cli_mix"]
    i = next(i for i in range(wl.cycle) if wl.make_input(i)[:2] == (scenario, fmt))
    inp = wl.make_input(i)
    code = wl.op(inp)
    wl.check(inp, code)
    path = inp[2]
    clean = path.read_text()
    if fmt == "json":
        record = json.loads(clean)
        record["max_offdiag"] *= 1 + 1e-6
        path.write_text(json.dumps(record))
    else:
        lines = clean.splitlines()
        col = -1 if scenario == "trajectories" else 2  # a path probability, a helix theta
        row = next(r for r in range(1, len(lines)) if float(lines[r].split(",")[col]) != 0.0)
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * (1 + 1e-6))
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        wl.check(inp, code)
    path.write_text(clean[: len(clean) // 2])
    with pytest.raises(CheckFailed):
        wl.check(inp, code)
    path.write_text(clean)
    with pytest.raises(CheckFailed):
        wl.check(inp, 3)
