"""Tests for kernel chains, trajectory measures, sampling, and qubit strands."""
import math

import numpy as np
import pytest

from onticsim import (
    SWAP,
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    OnticTrajectory,
    UnitaryFamily,
    basis_state,
    bloch_helix,
    bloch_state,
    closed_system_trajectory,
    enumerate_trajectory_measure,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    measure_to_json,
    sample_trajectories,
    sample_trajectory,
    trajectory_probability,
    trajectory_to_csv,
)
from onticsim.errors import (
    BadInterval,
    GridMismatch,
    ToleranceBreach,
    TooManyTrajectories,
)

SEED = 20260816


def coin_chain(steps: int) -> MarkovKernelChain:
    fair = kernel_from_matrix([[0.5, 0.5], [0.5, 0.5]])
    return MarkovKernelChain(tuple(range(steps + 1)), (fair,) * steps)


# ---------------------------------------------------------------------------
# trajectories and chains
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(BadInterval):
        OnticTrajectory((0.0, 0.0), (0, 1))
    with pytest.raises(GridMismatch):
        OnticTrajectory((0.0, 1.0), (0, 1, 0))
    with pytest.raises(GridMismatch):
        OnticTrajectory((0.0, 1.0), (0, -1))
    with pytest.raises(ToleranceBreach):
        OnticTrajectory((0.0, 1.0), (0, 0), frames=(np.eye(2), np.ones((2, 2))))


def test_chain_validation():
    fair = kernel_from_matrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(GridMismatch):
        MarkovKernelChain((0.0, 1.0, 2.0), (fair,))
    with pytest.raises(BadInterval):
        MarkovKernelChain((0.0, 0.0), (fair,))
    wide = kernel_from_matrix([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
    with pytest.raises(GridMismatch):
        MarkovKernelChain((0.0, 1.0, 2.0), (wide, fair))
    assert MarkovKernelChain((0.0, 1.0), (wide,)).state_counts == (2, 3)


def test_trajectory_probability_of_coin_path():
    chain = coin_chain(3)
    traj = OnticTrajectory(chain.times, (0, 1, 0, 1))
    assert trajectory_probability(traj, chain) == 0.125


def test_trajectory_probability_rejects_wrong_grid():
    chain = coin_chain(3)
    with pytest.raises(GridMismatch):
        trajectory_probability(OnticTrajectory((0.0, 1.0), (0, 1)), chain)
    with pytest.raises(GridMismatch):
        trajectory_probability(OnticTrajectory(chain.times, (0, 1, 0, 2)), chain)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_covers_all_paths_with_unit_mass():
    chain = coin_chain(3)
    measure = enumerate_trajectory_measure(chain, 2, 0)
    assert len(measure) == 8
    assert abs(math.fsum(measure.values()) - 1.0) < 1e-12
    assert all(p == 0.125 for p in measure.values())
    assert all(path[0] == 0 for path in measure)


def test_enumeration_guard_rejects_huge_spaces():
    chain = coin_chain(21)  # 2**21 paths crosses the guard
    with pytest.raises(TooManyTrajectories):
        enumerate_trajectory_measure(chain, 2, 0)


def test_enumeration_matches_trajectory_probability():
    rng = np.random.default_rng(SEED)
    rows = rng.dirichlet((2.0, 2.0), size=2)
    kernels = tuple(kernel_from_matrix(rows) for _ in range(3))
    chain = MarkovKernelChain((0.0, 1.0, 2.0, 3.0), kernels)
    measure = enumerate_trajectory_measure(chain, 2, 1)
    for path, p in measure.items():
        traj = OnticTrajectory(chain.times, path)
        assert abs(trajectory_probability(traj, chain) - p) < 1e-15


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_reproducible():
    chain = coin_chain(6)
    a = sample_trajectory(chain, 0, (SEED, 0))
    b = sample_trajectory(chain, 0, (SEED, 0))
    assert a.indices == b.indices
    c = sample_trajectory(chain, 0, (SEED, 1))
    assert c.indices[0] == 0
    d = sample_trajectory(chain, 1, (SEED, 0))
    assert d.indices[0] == 1


def test_sample_streams_are_independent():
    chain = coin_chain(8)
    trajs = sample_trajectories(chain, 0, SEED, 32)
    assert len(set(t.indices for t in trajs)) > 1
    again = sample_trajectories(chain, 0, SEED, 32)
    assert [t.indices for t in trajs] == [t.indices for t in again]


def test_sampled_frequencies_track_the_measure():
    chain = coin_chain(2)
    measure = enumerate_trajectory_measure(chain, 2, 0)
    trajs = sample_trajectories(chain, 0, SEED, 4000)
    counts: dict[tuple[int, ...], int] = {}
    for t in trajs:
        counts[t.indices] = counts.get(t.indices, 0) + 1
    for path, p in measure.items():
        assert abs(counts.get(path, 0) / 4000 - p) < 0.03


def test_sampling_checks_initial_index():
    with pytest.raises(GridMismatch):
        sample_trajectory(coin_chain(2), 5, SEED)
    with pytest.raises(GridMismatch):
        sample_trajectories(coin_chain(2), 5, SEED, 0)


# ---------------------------------------------------------------------------
# scalar references for the array sampler and enumerator
# ---------------------------------------------------------------------------

def _draw_reference(rng, row):
    cdf = np.cumsum(np.clip(row, 0.0, None))
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(row) - 1))


def sample_reference(chain, initial_index, rng_seed):
    """One scalar draw per step from the path's own generator."""
    rng = np.random.default_rng(rng_seed)
    indices = [initial_index]
    for kern in chain.kernels:
        indices.append(_draw_reference(rng, kern.values[indices[-1]]))
    return tuple(indices)


def enumerate_reference(chain, n_states, initial_index):
    """Dict-of-paths growth, one Python float product per child."""
    measure = {(initial_index,): 1.0}
    for kern in chain.kernels:
        grown = {}
        for path, p in measure.items():
            row = kern.values[path[-1]]
            for j in range(n_states):
                grown[path + (j,)] = p * float(row[j])
        measure = grown
    return measure


def _bits(values):
    return np.array(list(values), dtype=float).view(np.uint64).tolist()


def sparse_rows(rng, rows, cols):
    """Row-stochastic matrix with exact zeros, including a leading and a trailing one."""
    m = rng.dirichlet(np.ones(cols), size=rows)
    m[rng.random((rows, cols)) < 0.35] = 0.0
    m[0, 0] = 0.0
    m[-1, -1] = 0.0
    m[np.all(m == 0.0, axis=1), 1] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def ragged_chain(rng):
    """States 2 -> 3 -> 2 -> 3 -> 2 through non-square kernels."""
    shapes = [(2, 3), (3, 2), (2, 3), (3, 2)]
    kernels = tuple(kernel_from_matrix(sparse_rows(rng, r, c)) for r, c in shapes)
    return MarkovKernelChain(tuple(range(len(shapes) + 1)), kernels)


def square_chain(rng, n, steps):
    kernels = tuple(kernel_from_matrix(sparse_rows(rng, n, n)) for _ in range(steps))
    return MarkovKernelChain(tuple(range(steps + 1)), kernels)


@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("initial_index", [0, 1])
def test_sampler_matches_scalar_reference_on_ragged_chains(count, initial_index):
    rng = np.random.default_rng(SEED + 11)
    for _ in range(5):
        chain = ragged_chain(rng)
        seed = int(rng.integers(2**32))
        paths = [t.indices for t in sample_trajectories(chain, initial_index, seed, count)]
        assert paths == [sample_reference(chain, initial_index, (seed, k)) for k in range(count)]


@pytest.mark.parametrize("initial_index", [0, 1, 2])
def test_sampler_matches_scalar_reference_with_exact_zeros(initial_index):
    rng = np.random.default_rng(SEED + 12)
    for _ in range(10):
        chain = square_chain(rng, 3, 6)
        seed = int(rng.integers(2**32))
        paths = [t.indices for t in sample_trajectories(chain, initial_index, seed, 200)]
        assert paths == [sample_reference(chain, initial_index, (seed, k)) for k in range(200)]


def test_sampler_matches_scalar_reference_on_a_plain_int_seed():
    chain = ragged_chain(np.random.default_rng(SEED + 13))
    for seed in range(50):
        traj = sample_trajectory(chain, 1, seed)
        assert traj.times == chain.times
        assert traj.indices == sample_reference(chain, 1, seed)


class TieStream:
    """Stands in for default_rng with uniforms that land exactly on CDF entries.

    1.0 is outside random()'s range; it drives the clamp to the last index.
    """

    UNIFORMS = (0.0, 0.25, 0.75, 0.5, 1.0 - 2.0**-53, 1.0)

    def __init__(self, seed):
        self.next = seed[1] if isinstance(seed, tuple) else seed

    def random(self, size=None):
        n = 1 if size is None else size
        out = [self.UNIFORMS[(self.next + i) % len(self.UNIFORMS)] for i in range(n)]
        self.next += n
        return out[0] if size is None else np.array(out)


def test_sampler_matches_scalar_reference_on_ties(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", TieStream)
    dyadic = kernel_from_matrix(
        [[0.0, 0.25, 0.5, 0.25], [0.25, 0.0, 0.75, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    chain = MarkovKernelChain(tuple(range(7)), (dyadic,) * 6)
    for initial_index in range(4):
        paths = [t.indices for t in sample_trajectories(chain, initial_index, SEED, 36)]
        assert paths == [sample_reference(chain, initial_index, (SEED, k)) for k in range(36)]


@pytest.mark.parametrize("initial_index", [0, 1, 2])
def test_enumeration_matches_dict_growth_bit_for_bit(initial_index):
    rng = np.random.default_rng(SEED + 14)
    for n, steps in [(3, 1), (3, 5), (2, 9)]:
        if initial_index >= n:
            continue
        chain = square_chain(rng, n, steps)
        measure = enumerate_trajectory_measure(chain, n, initial_index)
        reference = enumerate_reference(chain, n, initial_index)
        assert list(measure) == list(reference)
        assert _bits(measure.values()) == _bits(reference.values())


# ---------------------------------------------------------------------------
# repeated-interaction chains
# ---------------------------------------------------------------------------

def test_partial_swap_kernel_closed_form():
    """Fresh |0> environment absorbs excitation at rate sin^2(step)."""
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    chain = markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 4)
    assert chain.times == tuple(k * 0.4 for k in range(5))
    s2 = math.sin(0.4) ** 2
    expect = np.array([[1.0, 0.0], [s2, 1.0 - s2]])
    for kern in chain.kernels:
        assert np.allclose(kern.values, expect, atol=1e-12)


def test_repeated_interaction_rejects_bad_grid():
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    with pytest.raises(BadInterval):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.0, 4)
    with pytest.raises(BadInterval):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 0)


# ---------------------------------------------------------------------------
# qubit geometry
# ---------------------------------------------------------------------------

def test_bloch_state_poles_and_equator():
    assert np.allclose(bloch_state(0.0, 0.0), [1.0, 0.0])
    assert np.allclose(bloch_state(math.pi, 0.0), [0.0, 1.0], atol=1e-15)
    assert np.allclose(bloch_state(math.pi / 2, 0.0), np.array([1.0, 1.0]) / math.sqrt(2))


def test_bloch_helix_frozen_quarter_turns():
    times = np.linspace(0.0, math.pi, 5)
    s1, s2 = bloch_helix(1.0, times)
    assert np.allclose(s1[:, 0], [math.pi / 2, math.pi / 4, 0.0, math.pi / 4, math.pi / 2])
    assert np.allclose(s1[:, 1], [0.0, 0.0, 0.0, math.pi, math.pi])
    assert np.allclose(s2[:, 0], math.pi - s1[:, 0])
    assert np.allclose(s2[:, 1], np.mod(s1[:, 1] + math.pi, 2 * math.pi))


def test_bloch_helix_strands_stay_orthogonal():
    rng = np.random.default_rng(SEED + 1)
    times = np.sort(rng.uniform(0.0, 20.0, size=40))
    s1, s2 = bloch_helix(rng.uniform(0.5, 3.0), times)
    for (t1, p1), (t2, p2) in zip(s1, s2):
        inner = np.vdot(bloch_state(t1, p1), bloch_state(t2, p2))
        assert abs(inner) < 1e-12


# ---------------------------------------------------------------------------
# closed-system trajectories
# ---------------------------------------------------------------------------

def test_closed_system_trajectory_never_jumps():
    space = HilbertSpace.of(("s", 2))
    family = UnitaryFamily(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi0 = basis_state(space, 0)
    times = (0.0, 0.3, 0.9, 2.0)
    traj = closed_system_trajectory(family, psi0, times)
    assert traj.indices == (0, 0, 0, 0)
    assert traj.frames is not None
    for t, frame in zip(times, traj.frames):
        evolved = family.at(t).matrix @ psi0.amplitudes
        overlap = abs(np.vdot(frame[:, 0], evolved))
        assert abs(overlap - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_trajectory_to_csv_rows():
    traj = OnticTrajectory((0.0, 0.5), (0, 1))
    assert trajectory_to_csv(traj) == "t,index\n0.0,0\n0.5,1\n"


def test_measure_to_json_is_sorted_and_complete():
    chain = coin_chain(2)
    payload = measure_to_json(chain, enumerate_trajectory_measure(chain, 2, 0))
    assert payload["times"] == [0.0, 1.0, 2.0]
    paths = [tuple(t["indices"]) for t in payload["trajectories"]]
    assert paths == sorted(paths)
    assert abs(sum(t["p"] for t in payload["trajectories"]) - 1.0) < 1e-12
