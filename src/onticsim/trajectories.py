"""Trajectories of configurations over discrete time grids.

A chain of single-system conditional tables defines a product measure
over index sequences: the probability of a trajectory is the product of
its per-step conditional probabilities.  The measure can be enumerated
exhaustively (small chains), sampled (trajectory k draws its uniforms
from default_rng((seed, k)) in one random(steps) call, equal to steps
sequential scalar draws), or generated physically by repeatedly coupling
the system to a fresh environment factor, which is the regime where
per-step reduced channels compose exactly.  The kernels compose only
while the states stay diagonal in one fixed basis: otherwise ch(P_w) is
not diagonal in the next state's eigenbasis, and the product measure
misses the multi-time tables, the obstruction to a trajectory measure.

Closed systems are the degenerate case: the single occupied
configuration follows the unitary flow and never jumps, so the
trajectory has constant index and carries the evolving eigenframes
instead.  For a qubit the two configurations of a generic mixed state
trace an antipodal double helix on the Bloch sphere; bloch_helix returns
that curve in (theta, phi) coordinates with theta measured from +z and
phi from +x, the rotation axis held in the x-z plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import QuantumChannel, UnitaryFamily, apply, dilation_channel
from .errors import (
    BadInterval,
    GridMismatch,
    SpaceMismatch,
    ToleranceBreach,
    TooManyTrajectories,
)
from .ontic import ConditionalProbabilityTable, _kernel_table, ontic_decomposition
from .qcore import DensityMatrix, HilbertSpace, PureState, _csv_text

__all__ = [
    "OnticTrajectory",
    "MarkovKernelChain",
    "trajectory_probability",
    "enumerate_trajectory_measure",
    "sample_trajectory",
    "sample_trajectories",
    "markov_chain_from_repeated_interaction",
    "bloch_helix",
    "bloch_state",
    "closed_system_trajectory",
    "kernel_from_matrix",
    "trajectory_to_csv",
    "measure_to_json",
    "ENUMERATION_GUARD",
]

ENUMERATION_GUARD = 1_000_000


@dataclass(frozen=True, eq=False)
class OnticTrajectory:
    """One index per grid time, optionally with basis-frame snapshots."""

    times: tuple[float, ...]
    indices: tuple[int, ...]
    frames: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "indices", indices)
        if len(times) != len(indices):
            raise GridMismatch(f"{len(times)} times but {len(indices)} indices")
        if any(not (b > a) for a, b in zip(times, times[1:])):
            raise BadInterval(f"times must strictly increase, got {times}")
        if any(i < 0 for i in indices):
            raise GridMismatch("indices must be non-negative")
        if self.frames is not None:
            frames = tuple(np.asarray(f, dtype=np.complex128) for f in self.frames)
            if len(frames) != len(times):
                raise GridMismatch(f"{len(frames)} frames for {len(times)} times")
            for f in frames:
                gram = f.conjugate().T @ f
                defect = np.max(np.abs(gram - np.eye(f.shape[1])))
                if not (defect <= tol.DERIVED):
                    raise ToleranceBreach(f"frame orthonormality defect {defect}")
            object.__setattr__(self, "frames", frames)


@dataclass(frozen=True, eq=False)
class MarkovKernelChain:
    """Kernel k carries configurations at times[k] to configurations at times[k+1]."""

    times: tuple[float, ...]
    kernels: tuple[ConditionalProbabilityTable, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(times) != len(self.kernels) + 1:
            raise GridMismatch(
                f"{len(times)} grid times need {len(times) - 1} kernels, got {len(self.kernels)}"
            )
        if any(not (b > a) for a, b in zip(times, times[1:])):
            raise BadInterval(f"times must strictly increase, got {times}")
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
    return ConditionalProbabilityTable(
        parent_indices=tuple(range(arr.shape[0])),
        column_indices=tuple((j,) for j in range(arr.shape[1])),
        values=arr,
    )


def trajectory_probability(traj: OnticTrajectory, chain: MarkovKernelChain) -> float:
    """Product of per-step conditional probabilities along the trajectory."""
    if traj.times != chain.times:
        raise GridMismatch(
            f"trajectory grid {traj.times} does not match chain grid {chain.times}"
        )
    counts = chain.state_counts
    for k, i in enumerate(traj.indices):
        if i >= counts[k]:
            raise GridMismatch(f"index {i} out of range at step {k} ({counts[k]} states)")
    p = 1.0
    for k, kern in enumerate(chain.kernels):
        p *= float(kern.values[traj.indices[k], traj.indices[k + 1]])
    return p


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
    paths = ((initial_index,) + tail for tail in product(range(n_states), repeat=steps))
    measure = dict(zip(paths, p.tolist()))
    mass = math.fsum(measure.values())
    if not (abs(mass - 1.0) <= tol.ROW_SUM):
        raise ToleranceBreach(f"trajectory measure sums to {mass}")
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
    environment, the per-step reduced channels compose exactly; the product
    measure over the kernels reproduces the multi-time tables only while
    the states stay diagonal in one fixed basis.  Each state is evolved and
    decomposed once: its decomposition is the column side of one kernel
    and the row side of the next.
    """
    if not 0 < step < math.inf or steps < 1:
        raise BadInterval(f"need finite positive step and at least one step, got {step}, {steps}")
    combined = rho_s0.space.tensor(rho_e_fresh.space)
    family = UnitaryFamily(combined, h_int)
    u_step = family.at(step)
    ch = dilation_channel(
        u_step, rho_e_fresh, (list(rho_s0.space.labels), list(rho_e_fresh.space.labels))
    )
    labels = rho_s0.space.labels
    kernels = []
    rho, dec = rho_s0, ontic_decomposition(rho_s0, delta_deg)
    for _ in range(steps):
        rho = apply(ch, rho)
        parent, dec = dec, ontic_decomposition(rho, delta_deg)
        kernels.append(_kernel_table(ch, parent, [(labels, dec.vectors)], [labels]))
    times = tuple(k * step for k in range(steps + 1))
    return MarkovKernelChain(times, tuple(kernels))


# ---------------------------------------------------------------------------
# qubit geometry
# ---------------------------------------------------------------------------

def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Amplitudes of the qubit state at Bloch angles (theta, phi)."""
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )


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


def _complete_frame(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis starting with v, completed from the standard basis.

    Deterministic: candidate basis vectors are taken in index order and a
    second orthogonalization pass keeps the frame orthonormal to rounding.
    """
    d = len(v)
    cols = [v / np.linalg.norm(v)]
    for j in range(d):
        if len(cols) == d:
            break
        w = np.zeros(d, dtype=np.complex128)
        w[j] = 1.0
        for _ in range(2):
            for c in cols:
                w = w - c * (c.conjugate() @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            cols.append(w / norm)
    return np.column_stack(cols)


def closed_system_trajectory(
    u_family, psi0: PureState, times: Sequence[float]
) -> OnticTrajectory:
    """Unitary flow of a pure state: constant index, evolving frames.

    The occupied configuration at each time is u_family(t) applied to
    psi0, placed in the first frame column; the conditional probability
    of staying in it is exactly one, so the index never moves.
    """
    times = tuple(float(t) for t in times)
    if not times:
        raise BadInterval("need at least one time")
    frames = []
    for t in times:
        u = u_family(t)
        if u.space.total_dim != psi0.space.total_dim:
            raise SpaceMismatch("family and state dimensions differ")
        frames.append(_complete_frame(u.matrix @ psi0.amplitudes))
    return OnticTrajectory(times, (0,) * len(times), tuple(frames))


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
