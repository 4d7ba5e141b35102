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
