"""Trajectories of configurations over discrete time grids.

A chain of single-system conditional tables defines a product measure
over index sequences: the probability of a trajectory is the product of
its per-step conditional probabilities.  The measure can be enumerated
exhaustively (small chains), sampled (trajectory k draws its uniforms
from default_rng((seed, k)) in one random(steps) call, equal to steps
sequential scalar draws), or generated physically by repeatedly coupling
the system to a fresh environment factor, which is the regime where
per-step reduced channels compose exactly.  That builder makes one
stacked pass per block of states: it evolves the block, then admits,
decomposes (positivity off that eigh) and tabulates the whole block at once.

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
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
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
from .qcore import _BLOCK_ENTRIES, DensityMatrix, _admit, _csv_text, _integral

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


def _grid(raw) -> tuple[float, ...]:
    """`raw` as a tuple of floats; BadInterval unless every time is a finite
    real number and the grid strictly increases."""
    raw = tuple(raw)
    if not all(isinstance(t, numbers.Real) for t in raw):
        raise BadInterval(f"times must be real numbers, got {raw!r}")
    times = tuple(map(float, raw))
    if not all(map(math.isfinite, times)) or not all(map(operator.lt, times, times[1:])):
        raise BadInterval(f"times must be finite and strictly increase, got {times}")
    return times


@dataclass(frozen=True, eq=False)
class OnticTrajectory:
    """One configuration index per grid time."""

    times: tuple[float, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        times = _grid(self.times)
        indices = tuple(map(_integral, self.indices))
        if len(times) != len(indices):
            raise GridMismatch(f"{len(times)} times but {len(indices)} indices")
        if any(i is None or i < 0 for i in indices):
            raise GridMismatch(f"indices must be non-negative whole numbers, got {self.indices!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "indices", indices)


@dataclass(frozen=True, eq=False)
class MarkovKernelChain:
    """Kernel k carries configurations at times[k] to configurations at times[k+1]."""

    times: tuple[float, ...]
    kernels: tuple[ConditionalProbabilityTable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise GridMismatch("a chain needs at least one kernel")
        times = _grid(self.times)
        object.__setattr__(self, "times", times)
        if len(times) != len(self.kernels) + 1:
            raise GridMismatch(
                f"{len(times)} grid times need {len(times) - 1} kernels, got {len(self.kernels)}"
            )
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
    Every call returns a new dict, but its keys are immutable tuples shared
    with every call of the same shape (initial_index, n_states, steps): one
    shape's keys are built once and stay alive after the dict is dropped,
    until a call of another shape replaces them.  By tracemalloc they hold
    0.6 MiB at 4096 paths, 104 MiB at n_states = 2 and 19 steps, and
    69 MiB at n_states = 1000 and 2 steps.
    """
    p = _path_probabilities(chain, n_states, initial_index)
    keys = _path_keys(_integral(initial_index), _integral(n_states), len(chain.kernels))
    return dict(zip(keys, p.tolist()))


@lru_cache(maxsize=1)
def _path_keys(start: int, n: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """The enumeration's paths in lexicographic order, built once per shape, so
    repeated calls allocate no key tuples for the cyclic collector to scan."""
    return tuple(product((start,), *[range(n)] * steps))


def _path_probabilities(chain: MarkovKernelChain, n_states: int, initial_index: int) -> np.ndarray:
    """enumerate_trajectory_measure's probabilities as one array, with its checks.

    The paths are in lexicographic order: path m starts at initial_index
    and then steps through the base-n_states digits of m.
    """
    counts = chain.state_counts
    n = _integral(n_states)
    if n is None or any(c != n for c in counts):
        raise GridMismatch(f"chain carries {counts} states, expected all {n_states!r}")
    start = _initial_index(chain, initial_index)
    steps = len(chain.kernels)
    total = n**steps
    if total > ENUMERATION_GUARD:
        raise TooManyTrajectories(f"{total} trajectories exceed guard {ENUMERATION_GUARD}")
    # In lexicographic order path m ends in m % n; children append a row.
    p = chain.kernels[0].values[start]
    for kern in chain.kernels[1:]:
        p = (p[:, None] * kern.values[np.arange(p.size) % n]).ravel()
    mass = math.fsum(p.tolist())
    tol.check(abs(mass - 1.0), tol.ROW_SUM, ToleranceBreach, "trajectory measure sum defect")
    return p


def _measure_array(chain: MarkovKernelChain, n_states: int, initial_index: int) -> np.ndarray:
    """enumerate_trajectory_measure as a structured array, one row per path.

    Row m holds the path's `indices`, initial_index and then the
    base-n_states digits of m, and its probability `p`, in the same order.
    """
    p = _path_probabilities(chain, n_states, initial_index)
    steps, n = len(chain.kernels), _integral(n_states)
    paths = np.empty(p.size, [("indices", np.int64, steps + 1), ("p", float)])
    paths["indices"][:, 0] = _integral(initial_index)
    paths["indices"][:, 1:] = np.transpose(np.unravel_index(np.arange(p.size), (n,) * steps))
    paths["p"] = p
    return paths


def _initial_index(chain: MarkovKernelChain, raw) -> int:
    index = _integral(raw)
    if index is None or not 0 <= index < chain.state_counts[0]:
        raise GridMismatch(f"initial index {raw!r} out of range")
    return index


def _generator_uniforms(seeds: list, steps: int) -> np.ndarray:
    """Row r is default_rng(seeds[r]).random(steps): the reference, one generator per stream."""
    return np.reshape([np.random.default_rng(s).random(steps) for s in seeds], (len(seeds), steps))


# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_BLOCK_CELLS = 2**14  # (stream, step) cells generated at once: each temporary is 128 KiB


def _hashmix(v, consts: list[int], n: int):
    """SeedSequence's n-th hash of the uint32 words v."""
    v = (v ^ consts[n]) * consts[n + 1]
    return v ^ v >> 16


def _mul_mod_2_128(hi, lo, table):
    """(hi, lo) times the table's (hi, lo) modulo 2**128, in uint64 halves."""
    t_hi, t_lo = table
    a0, a1, b0, b1 = lo & _MASK32, lo >> 32, t_lo & _MASK32, t_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # lo * t_lo >> 64
    return high + lo * t_hi + hi * t_lo, lo * t_lo


def _uniforms(seed, count: int, steps: int) -> np.ndarray:
    """Row k is default_rng((seed, k)).random(steps), for k < count, bit for bit.

    An integer seed in [0, 2**96) and k < 2**32 fill at most the 4-word
    entropy pool of SeedSequence, so all rows are generated together, in
    blocks of streams: the pool's hashmix and mix steps, generate_state,
    PCG64's seeding, the LCG jumped ahead to every step at once, then the
    XSL-RR output and random()'s 53-bit double.  Any other seed takes one
    generator per stream.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**96 or count > 2**32:
        return _generator_uniforms([(seed, k) for k in range(count)], steps)
    seed = int(seed)
    # the entropy of (seed, k): seed's 32-bit words, then k's one word; the pool's
    # missing words hash as 0, the same as the zeros padded on below
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = [_INIT_A * pow(_MULT_A, n, 2**32) & _MASK32 for n in range(17)]
    hash_b = [_INIT_B * pow(_MULT_B, n, 2**32) & _MASK32 for n in range(9)]
    mixes = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    # Output j reads the state A_(j+1) x + C_(j+2) inc, where x and inc come from
    # generate_state, A_m = MULT**m and C_m = 1 + MULT + ... + MULT**(m-1).
    powers, sums = [1], [0]
    for _ in range(steps + 2):
        sums.append(sums[-1] + powers[-1] & _MASK128)
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
    jump_x, jump_inc = (
        np.array([divmod(v, 2**64) for v in table], np.uint64).T
        for table in (powers[2 : steps + 2], sums[3 : steps + 3])
    )
    out = np.empty((count, steps))
    block = max(1, _BLOCK_CELLS // steps)
    for first in range(0, count, block):
        k = np.arange(first, min(first + block, count), dtype=np.uint32)
        pool = [np.full_like(k, w) for w in words] + [k]
        pool += [np.zeros_like(k)] * (4 - len(pool))
        pool = [_hashmix(v, hash_a, n) for n, v in enumerate(pool)]
        for n, (src, dst) in enumerate(mixes, 4):
            v = pool[dst] * _MIX_L - _hashmix(pool[src], hash_a, n) * _MIX_R
            pool[dst] = v ^ v >> 16
        state = [_hashmix(pool[n % 4], hash_b, n).astype(np.uint64) for n in range(8)]
        x_hi, x_lo, q_hi, q_lo = (state[n] | state[n + 1] << 32 for n in range(0, 8, 2))
        inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        hi1, lo1 = _mul_mod_2_128(x_hi[:, None], x_lo[:, None], jump_x)
        hi2, lo2 = _mul_mod_2_128(inc_hi[:, None], inc_lo[:, None], jump_inc)
        lo = lo1 + lo2
        hi = hi1 + hi2 + (lo < lo1)
        rot = hi >> 58
        v = hi ^ lo
        v = v >> rot | v << (64 - rot & 63)
        out[first : first + len(k)] = (v >> 11) * 2.0**-53
    return out


def _sample(chain: MarkovKernelChain, initial_index: int, u: np.ndarray) -> list[OnticTrajectory]:
    # One pass per step over all paths.  Table rows are clipped non-negative, so
    # each CDF row is nondecreasing and the count is searchsorted(side="right").
    steps = len(chain.kernels)
    idx = np.full((len(u), steps + 1), initial_index)
    for k, kern in enumerate(chain.kernels):
        cdf = np.cumsum(kern.values, axis=1)
        rows = cdf[idx[:, k]]
        drawn = np.count_nonzero(rows <= u[:, k, None] * rows[:, -1:], axis=1)
        idx[:, k + 1] = np.minimum(drawn, cdf.shape[1] - 1)
    # The chain's grid is already checked and every index is a non-negative
    # count, so the trajectories skip OnticTrajectory's per-path checks.
    trajs, times = [], chain.times
    for path in zip(*idx.T.tolist()):
        traj = object.__new__(OnticTrajectory)
        object.__setattr__(traj, "times", times)
        object.__setattr__(traj, "indices", path)
        trajs.append(traj)
    return trajs


def sample_trajectory(
    chain: MarkovKernelChain, initial_index: int, rng_seed
) -> OnticTrajectory:
    """One trajectory by sequential categorical draws from the kernel rows.

    rng_seed is any seed accepted by numpy's default generator; pass
    (seed, trajectory_id) tuples to give concurrent draws independent,
    reproducible streams.
    """
    start = _initial_index(chain, initial_index)
    return _sample(chain, start, _generator_uniforms([rng_seed], len(chain.kernels)))[0]


def sample_trajectories(
    chain: MarkovKernelChain, initial_index: int, seed: int, count: int
) -> list[OnticTrajectory]:
    """Independent trajectories on streams derived from (seed, trajectory id).

    Stream k draws its uniforms in one default_rng((seed, k)).random(steps)
    call, equal to steps sequential scalar draws.
    """
    start = _initial_index(chain, initial_index)
    n = _integral(count)
    if n is None or n < 0:
        raise GridMismatch(f"count must be a non-negative whole number, got {count!r}")
    return _sample(chain, start, _uniforms(seed, n, len(chain.kernels)))


def markov_chain_from_repeated_interaction(
    h_int: np.ndarray,
    rho_e_fresh: DensityMatrix,
    rho_s0: DensityMatrix,
    step: float,
    steps: int,
) -> MarkovKernelChain:
    """Kernel chain from coupling the system to a fresh environment each step.

    h_int is a Hermitian generator on the system factors followed by the
    fresh environment factor.  Because every step meets an uncorrelated
    environment, the per-step reduced channels compose exactly, but the
    product measure over the kernels reproduces the multi-time tables only
    while the states stay diagonal in one fixed basis.  Whether some other
    measure reproduces them otherwise is open.

    The build is one stacked pass per block of states, whose n_k Kraus
    amplitudes K_k W hold _BLOCK_ENTRIES entries, so its memory beyond the
    kernels does not grow with `steps`.  A block's states are evolved as raw
    arrays by `channels.apply`'s Kraus product, each divided by its trace so
    the trace stays 1 over any number of steps, then admitted (Hermiticity
    and trace) and decomposed together, each check run once over the block:
    the decomposing eigh gives each state's positivity verdict.  One stacked
    `ontic._kernel_table` call tabulates the block's kernels: state k's
    eigenvectors are the row side of kernel k and the column side of kernel
    k - 1, and the block's last state and eigenvectors start the next block.
    More than _MAX_STEPS steps are refused before anything is built.
    """
    count = _integral(steps)
    finite_step = isinstance(step, numbers.Real) and 0 < step < math.inf
    if not finite_step or count is None or not 1 <= count <= _MAX_STEPS:
        raise BadInterval(
            f"need finite positive real step and a whole number of steps in [1, {_MAX_STEPS}], "
            f"got {step!r}, {steps!r}"
        )
    u_step = UnitaryFamily(rho_s0.space.tensor(rho_e_fresh.space), h_int).at(step)
    split = (list(rho_s0.space.labels), list(rho_e_fresh.space.labels))
    ch = dilation_channel(u_step, rho_e_fresh, split)
    labels, d = rho_s0.space.labels, rho_s0.space.total_dim
    block = max(1, _BLOCK_ENTRIES // (len(ch.kraus) * d**2))
    kernels, last = [], rho_s0.matrix
    for first in range(0, count, block):
        states = np.empty((min(block, count - first) + 1, d, d), dtype=np.complex128)
        states[0] = last
        for k in range(1, len(states)):
            evolved = _apply_kraus(ch.kraus, states[k - 1])
            # unit trace restored each step: rounding would otherwise drift it linearly
            states[k] = evolved / evolved.trace().real
        _admit(states[1:])
        vecs = _spectra(states[1:] if first else states)[1]
        if first:
            vecs = np.concatenate((last_vecs[None], vecs))
        # copies, so no block outlives its pass
        last, last_vecs = states[-1].copy(), vecs[-1].copy()
        del states
        # K_k W goes in unnamed, so the kernel frees it once contracted
        kernels += _kernel_table(
            ch.out_space, ch.kraus[None] @ vecs[:-1][:, None], [(labels, vecs[1:])], [labels]
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
    the phi = 0 chart.  Times that are not 1-D are refused.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise BadInterval(f"times must be 1-D, got shape {t.shape}")
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
    return _csv_text(("t", "index"), (traj.times, traj.indices))


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
