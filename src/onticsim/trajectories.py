"""Trajectories of configurations over discrete time grids.

A chain of single-system conditional tables defines a product measure
over index sequences: the probability of a trajectory is the product of
its per-step conditional probabilities.  The measure can be enumerated
exhaustively (small chains), sampled (trajectory k draws its uniforms
from default_rng((seed, k)) in one random(steps) call, equal to steps
sequential scalar draws), or generated physically by repeatedly coupling
the system to a fresh environment factor, which is the regime where
per-step reduced channels compose exactly.  That builder makes one
stacked pass: it evolves every state first, then admits and decomposes
the whole stack at once, and only the kernel contraction runs per step.

Two claims about the obstruction to a trajectory measure are kept
apart.  The first holds, and the tests pin it: the kernels compose only
while the states stay diagonal in one fixed basis; otherwise ch(P_w) is
not diagonal in the next state's eigenbasis, and the product measure
misses the multi-time tables.  The second, that no measure on index
sequences, Markov or not, reproduces those tables, is open.

For a qubit the two configurations of a generic mixed state under a
rotation trace an antipodal double helix on the Bloch sphere;
bloch_helix returns that curve in (theta, phi) coordinates with theta
measured from +z and phi from +x, the rotation axis held in the x-z
plane.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import UnitaryFamily, _apply_kraus, dilation_channel
from .errors import (
    BadInterval,
    GridMismatch,
    SpaceMismatch,
    ToleranceBreach,
    TooManyTrajectories,
)
from .ontic import ConditionalProbabilityTable, _kernel_table, _spectra
from .qcore import DensityMatrix, _admit, _csv_text, _integral

__all__ = [
    "OnticTrajectory",
    "MarkovKernelChain",
    "enumerate_trajectory_measure",
    "sample_trajectory",
    "sample_trajectories",
    "markov_chain_from_repeated_interaction",
    "bloch_helix",
    "kernel_from_matrix",
    "trajectory_to_csv",
    "measure_to_json",
    "ENUMERATION_GUARD",
]

ENUMERATION_GUARD = 1_000_000

# most steps a repeated-interaction chain builds; the CLI caps its config with it
_MAX_STEPS = 10**4


def _check_times(times: tuple[float, ...]) -> None:
    """Raise BadInterval unless every time is finite and the grid strictly increases."""
    # map keeps the loops in C: a sampler builds one grid per trajectory
    if not all(map(math.isfinite, times)) or not all(map(operator.lt, times, times[1:])):
        raise BadInterval(f"times must be finite and strictly increase, got {times}")


@dataclass(frozen=True, eq=False)
class OnticTrajectory:
    """One configuration index per grid time."""

    times: tuple[float, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        times = tuple(map(float, self.times))
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "indices", indices)
        if len(times) != len(indices):
            raise GridMismatch(f"{len(times)} times but {len(indices)} indices")
        _check_times(times)
        if indices and min(indices) < 0:
            raise GridMismatch("indices must be non-negative")


@dataclass(frozen=True, eq=False)
class MarkovKernelChain:
    """Kernel k carries configurations at times[k] to configurations at times[k+1]."""

    times: tuple[float, ...]
    kernels: tuple[ConditionalProbabilityTable, ...]

    def __post_init__(self) -> None:
        times = tuple(map(float, self.times))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise GridMismatch("a chain needs at least one kernel")
        if len(times) != len(self.kernels) + 1:
            raise GridMismatch(
                f"{len(times)} grid times need {len(times) - 1} kernels, got {len(self.kernels)}"
            )
        _check_times(times)
        for k, kern in enumerate(self.kernels):
            if any(len(c) != 1 for c in kern.column_indices):
                raise GridMismatch(f"kernel {k} is not a single-system table")
        for k in range(len(self.kernels) - 1):
            cols = len(self.kernels[k].column_indices)
            rows = len(self.kernels[k + 1].parent_indices)
            if cols != rows:
                raise GridMismatch(f"kernel {k} emits {cols} states, kernel {k + 1} takes {rows}")

    @property
    def state_counts(self) -> tuple[int, ...]:
        counts = [len(self.kernels[0].parent_indices)]
        counts.extend(len(k.column_indices) for k in self.kernels)
        return tuple(counts)


def kernel_from_matrix(matrix) -> ConditionalProbabilityTable:
    """Wrap a plain row-stochastic matrix as a single-system kernel."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or not arr.size:
        raise SpaceMismatch(f"kernel matrix has shape {arr.shape}, need a non-empty 2-D array")
    return ConditionalProbabilityTable(
        parent_indices=tuple(range(arr.shape[0])),
        column_indices=tuple((j,) for j in range(arr.shape[1])),
        values=arr,
    )


def enumerate_trajectory_measure(
    chain: MarkovKernelChain, n_states: int, initial_index: int
) -> dict[tuple[int, ...], float]:
    """Probability of every index sequence starting from the given configuration.

    Exhaustive: n_states ** len(kernels) sequences, guarded at one million.
    """
    counts = chain.state_counts
    if any(c != n_states for c in counts):
        raise GridMismatch(f"chain carries {counts} states, expected all {n_states}")
    if not 0 <= initial_index < n_states:
        raise GridMismatch(f"initial index {initial_index} out of range")
    steps = len(chain.kernels)
    total = n_states**steps
    if total > ENUMERATION_GUARD:
        raise TooManyTrajectories(f"{total} trajectories exceed guard {ENUMERATION_GUARD}")
    # In lexicographic order path m ends in m % n_states; children append a row.
    p = chain.kernels[0].values[initial_index]
    for kern in chain.kernels[1:]:
        p = (p[:, None] * kern.values[np.arange(p.size) % n_states]).ravel()
    paths = product((initial_index,), *[range(n_states)] * steps)
    measure = dict(zip(paths, p.tolist()))
    mass = math.fsum(measure.values())
    tol.check(abs(mass - 1.0), tol.ROW_SUM, ToleranceBreach, "trajectory measure sum defect")
    return measure


def _sample(chain: MarkovKernelChain, initial_index: int, seeds: list) -> list[OnticTrajectory]:
    # One pass per step over all paths.  Table rows are clipped non-negative, so
    # each CDF row is nondecreasing and the count is searchsorted(side="right").
    if not 0 <= initial_index < chain.state_counts[0]:
        raise GridMismatch(f"initial index {initial_index} out of range")
    steps = len(chain.kernels)
    u = np.reshape([np.random.default_rng(s).random(steps) for s in seeds], (len(seeds), steps))
    idx = np.full((len(seeds), steps + 1), initial_index)
    for k, kern in enumerate(chain.kernels):
        cdf = np.cumsum(kern.values, axis=1)
        rows = cdf[idx[:, k]]
        drawn = np.count_nonzero(rows <= u[:, k, None] * rows[:, -1:], axis=1)
        idx[:, k + 1] = np.minimum(drawn, cdf.shape[1] - 1)
    return [OnticTrajectory(chain.times, path) for path in idx.tolist()]


def sample_trajectory(
    chain: MarkovKernelChain, initial_index: int, rng_seed
) -> OnticTrajectory:
    """One trajectory by sequential categorical draws from the kernel rows.

    rng_seed is any seed accepted by numpy's default generator; pass
    (seed, trajectory_id) tuples to give concurrent draws independent,
    reproducible streams.
    """
    return _sample(chain, initial_index, [rng_seed])[0]


def sample_trajectories(
    chain: MarkovKernelChain, initial_index: int, seed: int, count: int
) -> list[OnticTrajectory]:
    """Independent trajectories on streams derived from (seed, trajectory id).

    Stream k draws its uniforms in one default_rng((seed, k)).random(steps)
    call, equal to steps sequential scalar draws.
    """
    return _sample(chain, initial_index, [(seed, k) for k in range(count)])


def markov_chain_from_repeated_interaction(
    h_int: np.ndarray,
    rho_e_fresh: DensityMatrix,
    rho_s0: DensityMatrix,
    step: float,
    steps: int,
    delta_deg: float = tol.DEGENERACY_GAP,
) -> MarkovKernelChain:
    """Kernel chain from coupling the system to a fresh environment each step.

    h_int is a Hermitian generator on the system factors followed by the
    fresh environment factor.  Because every step meets an uncorrelated
    environment, the per-step reduced channels compose exactly, but the
    product measure over the kernels reproduces the multi-time tables only
    while the states stay diagonal in one fixed basis.  Whether some other
    measure reproduces them otherwise is open.

    The build is one stacked pass.  All steps + 1 states are evolved first,
    as raw arrays, by the Kraus product of `channels.apply`.  The evolved
    states are then admitted together, each `DensityMatrix` check run once
    over the whole stack, and every state is decomposed by one stacked
    eigh, each `OnticDecomposition` check run once over the stack.  State
    k's eigenvectors are the row side of kernel k and the column side of
    kernel k - 1.  delta_deg only groups near-degenerate configurations,
    which no kernel reads.  More than _MAX_STEPS steps are refused before
    anything is built.
    """
    count = _integral(steps)
    if not 0 < step < math.inf or count is None or not 1 <= count <= _MAX_STEPS:
        raise BadInterval(
            f"need finite positive step and a whole number of steps in [1, {_MAX_STEPS}], "
            f"got {step}, {steps!r}"
        )
    combined = rho_s0.space.tensor(rho_e_fresh.space)
    family = UnitaryFamily(combined, h_int)
    u_step = family.at(step)
    ch = dilation_channel(
        u_step, rho_e_fresh, (list(rho_s0.space.labels), list(rho_e_fresh.space.labels))
    )
    states = np.empty((count + 1, *rho_s0.matrix.shape), dtype=np.complex128)
    states[0] = rho_s0.matrix
    for k in range(count):
        states[k + 1] = _apply_kraus(ch.kraus, states[k])
    _admit(states[1:])
    vecs = _spectra(states)[1]
    del states
    labels = rho_s0.space.labels
    kernels = tuple(
        _kernel_table(ch, vecs[k], [(labels, vecs[k + 1])], [labels]) for k in range(count)
    )
    times = tuple(k * step for k in range(count + 1))
    return MarkovKernelChain(times, kernels)


# ---------------------------------------------------------------------------
# qubit geometry
# ---------------------------------------------------------------------------

def bloch_helix(omega: float, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Antipodal configuration strands of a qubit rotating in the x-z plane.

    Strand one starts on the +x axis and turns toward +z at rate omega;
    strand two is its antipode.  Both are returned as arrays of
    (theta, phi) rows.  phi stays in {0, pi}: it flips when a strand
    crosses a pole, and a sample landing exactly on a pole is emitted in
    the phi = 0 chart.
    """
    t = np.asarray(list(times), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, refused on output
        nx = np.cos(omega * t)
        nz = np.sin(omega * t)
    theta1 = np.arccos(np.clip(nz, -1.0, 1.0))
    phi1 = np.where(nx >= 0.0, 0.0, math.pi)
    strand1 = np.column_stack([theta1, phi1])
    strand2 = np.column_stack([math.pi - theta1, (phi1 + math.pi) % (2.0 * math.pi)])
    return strand1, strand2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: OnticTrajectory) -> str:
    """Rows of `t,index`, one line per grid time."""
    return _csv_text(("t", "index"), zip(traj.times, traj.indices))


def measure_to_json(
    chain: MarkovKernelChain, measure: dict[tuple[int, ...], float]
) -> dict:
    """Times plus every trajectory with its probability, in index order."""
    return {
        "times": [float(t) for t in chain.times],
        "trajectories": [
            {"indices": list(path), "p": float(p)}
            for path, p in sorted(measure.items())
        ],
    }
