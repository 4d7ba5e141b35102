"""Outside-in layer trace: spans around calls into onticsim's public functions.

Nothing in the library is edited.  ``install`` replaces each listed
function by a wrapper in every ``onticsim`` module that holds it (the
defining module, the package namespace, and each module that imported the
name), and wraps the ``__init__`` of each listed class.  A wrapper records
a span (name, start, end, parent) and, for some names, a work count read
from the arguments or the return value.  ``uninstall`` restores every
binding, so traced and untraced calls can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

# module -> public names whose calls are traced; classes are traced through
# their constructor
TARGETS = {
    "qcore": ("DensityMatrix", "PureState", "partial_trace", "permute_factors", "tensor", "trace_distance"),
    "channels": (
        "QuantumChannel", "dilation_channel", "apply", "compose", "verify_cptp", "choi_matrix",
        "semigroup_defect",
    ),
    "ontic": (
        "ontic_decomposition", "conditional_probabilities", "single_system_conditional",
        "bayesian_propagation_check", "ConditionalProbabilityTable",
    ),
    "opendyn": ("parent_conditioned_probabilities", "nonlinearity_witness"),
    "measurement": ("simulate_measurement", "born_conditional_check", "decoherence_scaling_sweep"),
    "trajectories": (
        "markov_chain_from_repeated_interaction", "sample_trajectories", "sample_trajectory",
        "enumerate_trajectory_measure", "measure_to_json", "trajectory_to_csv", "bloch_helix",
    ),
    "cli": ("parse_config", "run"),
}

SPAN_NAMES = tuple(f"{m}.{n}" for m, names in TARGETS.items() for n in names)


def _artifact_bytes(args, result):
    return os.path.getsize(args[0].resolved_output_path())


# span name -> (counter name, count from (args, result)); constructors see
# the built object as args[0]
COUNTERS = {
    "channels.QuantumChannel": ("channels.kraus_out", lambda a, r: len(a[0].kraus)),
    "ontic.ConditionalProbabilityTable": ("ontic.table_cells", lambda a, r: a[0].values.size),
    "ontic.ontic_decomposition": ("ontic.decomp_dim", lambda a, r: a[0].space.total_dim),
    "qcore.DensityMatrix": ("qcore.density_elements", lambda a, r: a[0].space.total_dim ** 2),
    "trajectories.sample_trajectory": ("trajectories.steps_sampled", lambda a, r: len(r.indices) - 1),
    "trajectories.enumerate_trajectory_measure": ("trajectories.paths_enumerated", lambda a, r: len(r)),
    "cli.run": ("cli.artifact_bytes", _artifact_bytes),
}

COUNTER_NAMES = tuple(name for name, _ in COUNTERS.values())


class Tracer:
    """Spans and counts in memory; ``take`` hands them over and starts afresh."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module(f"onticsim.{m}") for m in TARGETS}
        modules = [m for n, m in list(sys.modules.items()) if n == "onticsim" or n.startswith("onticsim.")]
        for module_name, names in TARGETS.items():
            home = homes[module_name]
            for name in names:
                original = getattr(home, name)
                span_name = f"{module_name}.{name}"
                if isinstance(original, type):
                    self._undo.append((original, "__init__", original.__init__))
                    original.__init__ = self._wrap(span_name, original.__init__)
                    continue
                traced = self._wrap(span_name, original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take(self) -> tuple[list[list], dict[str, float]]:
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self seconds and call counts, plus the time top-level spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    top = 0.0
    for k, (name, start, end, parent) in enumerate(spans):
        own[name] += end - start - child[k]
        calls[name] += 1
        if parent < 0:
            top += end - start
    return own, calls, top


def inclusive(spans: list[list], name: str) -> float:
    """Seconds inside outermost spans of one name (nested calls counted once)."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
