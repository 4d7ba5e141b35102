"""Tests for kernel chains, trajectory measures, sampling, and qubit strands."""
import dataclasses
import math
import tracemalloc
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from onticsim import (
    SWAP,
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    OnticTrajectory,
    UnitaryFamily,
    apply,
    basis_state,
    bloch_helix,
    compose,
    dilation_channel,
    enumerate_trajectory_measure,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    maximally_mixed,
    measure_to_json,
    ontic_decomposition,
    sample_trajectories,
    sample_trajectory,
    single_system_conditional,
    trajectory_to_csv,
)
from onticsim import tolerances as tol
from onticsim import trajectories
from onticsim.errors import BadInterval, GridMismatch, SpaceMismatch, TooManyTrajectories
from test_ontic import kernel_table_reference  # pytest puts tests/ on sys.path

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
    for indices in [(0, -1), (0, 1.7), (0, "1"), (0, math.nan)]:
        with pytest.raises(GridMismatch):
            OnticTrajectory((0.0, 1.0), indices)
    for times in [(math.nan,), (0.0, math.inf), (-math.inf, 0.0), ("0", "1"), (0.0, b"1")]:
        with pytest.raises(BadInterval):
            OnticTrajectory(times, (0,) * len(times))
    whole = OnticTrajectory((np.float64(0.0), 1), (np.int64(0), 1.0))
    assert whole.times == (0.0, 1.0) and whole.indices == (0, 1)
    assert all(type(t) is float for t in whole.times)
    assert all(type(i) is int for i in whole.indices)


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
    for times in [(0.0, math.inf), (math.nan, 1.0), ("0", "1"), (0.0, None)]:
        with pytest.raises(BadInterval):
            MarkovKernelChain(times, (fair,))
    for times in [(0.0,), (math.nan,)]:
        with pytest.raises(GridMismatch):
            MarkovKernelChain(times, ())


@pytest.mark.parametrize(
    "matrix", [[0.5, 0.5], np.zeros((0, 0)), np.zeros((2, 0)), np.ones((1, 1, 1))],
    ids=["one_dimensional", "empty", "no_columns", "three_dimensional"],
)
def test_kernel_from_matrix_refuses_shapes_that_are_not_tables(matrix):
    with pytest.raises(SpaceMismatch):
        kernel_from_matrix(matrix)


def test_trajectory_probability_of_coin_path():
    assert enumerate_trajectory_measure(coin_chain(3), 2, 0)[0, 1, 0, 1] == 0.125


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
        steps = zip(chain.kernels, path, path[1:])
        product = math.prod(float(kern.values[i, j]) for kern, i, j in steps)
        assert abs(product - p) < 1e-15


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


def sample_reference(chain, initial_index, rng_seed, make_rng=np.random.default_rng):
    """One scalar draw per step from the path's own generator."""
    rng = make_rng(rng_seed)
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
    """Stands in for a default_rng stream with uniforms that land exactly on CDF entries.

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


def tie_uniforms(seed, count, steps):
    """Stands in for the sampler's stream helper: row k is stream (seed, k) of TieStream."""
    return np.reshape([TieStream((seed, k)).random(steps) for k in range(count)], (count, steps))


def test_sampler_matches_scalar_reference_on_ties(monkeypatch):
    monkeypatch.setattr(trajectories, "_uniforms", tie_uniforms)
    dyadic = kernel_from_matrix(
        [[0.0, 0.25, 0.5, 0.25], [0.25, 0.0, 0.75, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    chain = MarkovKernelChain(tuple(range(7)), (dyadic,) * 6)
    for initial_index in range(4):
        paths = [t.indices for t in sample_trajectories(chain, initial_index, SEED, 36)]
        assert paths == [
            sample_reference(chain, initial_index, (SEED, k), TieStream) for k in range(36)
        ]


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


@pytest.mark.parametrize("initial_index", [0, 1, 2])
def test_measure_array_rows_are_the_enumerated_measure_in_order(initial_index):
    rng = np.random.default_rng(SEED + 15)
    for n, steps in [(3, 1), (3, 5), (2, 9)]:
        if initial_index >= n:
            continue
        chain = square_chain(rng, n, steps)
        measure = enumerate_trajectory_measure(chain, n, initial_index)
        paths = trajectories._measure_array(chain, n, initial_index)
        assert list(map(tuple, paths["indices"].tolist())) == list(measure)
        assert _bits(paths["p"]) == _bits(measure.values())


# ---------------------------------------------------------------------------
# vectorized sampler streams and argument checks
# ---------------------------------------------------------------------------

def generator_rows(seed, count, steps):
    return np.reshape(
        [np.random.default_rng((seed, k)).random(steps) for k in range(count)], (count, steps)
    )


def test_streams_equal_default_rng_bit_for_bit_at_scale():
    """100 600 (seed, k) streams; k passes 2**16 and several blocks on the first seed."""
    rng = np.random.default_rng(SEED + 18)
    seeds = [2**64 - 1, 0, 1, 2**32 - 1, 2**32, 2**96 - 1]
    seeds += [int(rng.integers(2**63)), int.from_bytes(rng.bytes(12), "little")]
    counts = [65_600] + [5_000] * 7
    for seed, count, steps in zip(seeds, counts, [2, 1, 3, 33, 8, 5, 17, 4]):
        got = trajectories._uniforms(seed, count, steps)
        want = generator_rows(seed, count, steps)
        assert got.shape == (count, steps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed


def test_seeds_outside_the_pool_take_the_reference_streams():
    chain = ragged_chain(np.random.default_rng(SEED + 19))
    for seed in (2**96, 2**96 + 12345, np.int64(SEED), True):
        got = trajectories._uniforms(seed, 6, 4)
        assert np.array_equal(got.view(np.uint64), generator_rows(seed, 6, 4).view(np.uint64))
        paths = [t.indices for t in sample_trajectories(chain, 1, seed, 6)]
        assert paths == [sample_reference(chain, 1, (seed, k)) for k in range(6)]
    assert [t.indices for t in sample_trajectories(chain, 0, True, 9)] == [
        t.indices for t in sample_trajectories(chain, 0, 1, 9)
    ]
    for seed, error in ((-1, ValueError), (2.5, TypeError)):
        with pytest.raises(error) as ours:
            sample_trajectories(chain, 0, seed, 3)
        with pytest.raises(error) as numpys:
            np.random.default_rng((seed, 0))
        assert str(ours.value) == str(numpys.value)


def test_in_pool_sampling_constructs_no_generator(monkeypatch):
    calls = Counter()

    def counted(name):
        make = getattr(np.random, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return make(*args, **kwargs)

        return count

    for name in ("default_rng", "SeedSequence"):
        monkeypatch.setattr(np.random, name, counted(name))
    chain = coin_chain(32)
    for seed in (0, SEED, 2**64 - 1, 2**96 - 1):
        assert len(sample_trajectories(chain, 0, seed, 200)) == 200
    assert not calls
    sample_trajectories(chain, 0, 2**96, 3)
    assert calls["default_rng"] == 3


def test_sampled_trajectories_equal_checked_ones():
    chain = ragged_chain(np.random.default_rng(SEED + 20))
    sampled = sample_trajectories(chain, 1, SEED, 40) + [sample_trajectory(chain, 0, SEED)]
    for traj in sampled:
        checked = OnticTrajectory(chain.times, traj.indices)
        assert type(traj) is OnticTrajectory
        assert traj.times is chain.times
        assert vars(traj) == vars(checked)
        for got, want in ((traj.times, checked.times), (traj.indices, checked.indices)):
            assert type(got) is tuple
            assert [type(v) for v in got] == [type(v) for v in want]
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.indices = ()


@pytest.mark.parametrize("count", [-3, 2.5, float("nan"), "3", None])
def test_sampler_refuses_a_count_that_is_not_a_non_negative_whole_number(count):
    with pytest.raises(GridMismatch):
        sample_trajectories(coin_chain(2), 0, SEED, count)


def test_sampler_accepts_a_zero_or_numpy_count():
    chain = coin_chain(3)
    assert sample_trajectories(chain, 0, SEED, 0) == []
    paths = [t.indices for t in sample_trajectories(chain, 0, SEED, np.int64(7))]
    assert paths == [t.indices for t in sample_trajectories(chain, 0, SEED, 7)]


@pytest.mark.parametrize("index", [0.5, float("nan"), -1, 2, "0", None])
def test_sampler_and_enumerator_refuse_a_bad_initial_index(index):
    chain = coin_chain(2)
    with pytest.raises(GridMismatch):
        sample_trajectory(chain, index, SEED)
    with pytest.raises(GridMismatch):
        sample_trajectories(chain, index, SEED, 3)
    with pytest.raises(GridMismatch):
        enumerate_trajectory_measure(chain, 2, index)


def test_sampler_and_enumerator_accept_a_numpy_initial_index():
    chain = coin_chain(3)
    one = np.int64(1)
    assert sample_trajectory(chain, one, SEED).indices == sample_trajectory(chain, 1, SEED).indices
    assert [t.indices for t in sample_trajectories(chain, one, SEED, 5)] == [
        t.indices for t in sample_trajectories(chain, 1, SEED, 5)
    ]
    assert enumerate_trajectory_measure(chain, 2, one) == enumerate_trajectory_measure(chain, 2, 1)


@pytest.mark.parametrize("n_states", [2.5, float("nan"), 3, "2", None])
def test_enumerator_refuses_a_bad_state_count(n_states):
    with pytest.raises(GridMismatch):
        enumerate_trajectory_measure(coin_chain(2), n_states, 0)


def test_enumerator_reads_an_integral_state_count():
    chain = coin_chain(3)
    measure = enumerate_trajectory_measure(chain, 2, 0)
    for n_states in (2.0, np.int64(2)):
        assert enumerate_trajectory_measure(chain, n_states, 0) == measure


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


def chain_channel(h_int, rho_e, rho_s0, step):
    u = UnitaryFamily(rho_s0.space.tensor(rho_e.space), h_int).at(step)
    return dilation_channel(u, rho_e, (list(rho_s0.space.labels), list(rho_e.space.labels)))


def trace_divided_states(ch, rho_s0, steps):
    """rho_0 ... rho_steps, each next state a second apply of the same
    channel divided by its trace, as the builder's is."""
    states = [rho_s0]
    for _ in range(steps):
        evolved = apply(ch, states[-1]).matrix
        states.append(DensityMatrix(rho_s0.space, evolved / evolved.trace().real))
    return states


def chain_kernels_reference(h_int, rho_e, rho_s0, step, steps):
    """Kernels built one step at a time: each state decomposed on its own, and
    kernel k the per-table reference kernel from state k's eigenvectors to
    state k + 1's."""
    ch = chain_channel(h_int, rho_e, rho_s0, step)
    vecs = [ontic_decomposition(rho).vectors for rho in trace_divided_states(ch, rho_s0, steps)]
    labels = rho_s0.space.labels
    return [
        kernel_table_reference(ch.out_space, ch.kraus @ vecs[k], [(labels, vecs[k + 1])], [labels])
        for k in range(steps)
    ]


def random_mixed(rng, space):
    d = space.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conjugate().T
    return DensityMatrix(space, m / np.trace(m))


def random_generator(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conjugate().T)


def chain_cases():
    """(h_int, rho_e, rho_s0, step, certified); certified=False runs the build
    with the Cholesky certificate refusing every stack, so each state is
    admitted by the eigvalsh fallback."""
    system, env_space = HilbertSpace.of(("s", 2)), HilbertSpace.of(("e", 2))
    # the command line's partial-swap chain at its default config
    partial_swap = (
        SWAP,
        basis_state(env_space, 0).density_matrix(),
        DensityMatrix(system, np.diag([0.7, 0.3]).astype(complex)),
        0.4,
    )
    yield (*partial_swap, True)
    rng = np.random.default_rng(SEED + 15)
    for _ in range(5):
        h = random_generator(rng, 4)
        rho_e, rho_s0 = random_mixed(rng, env_space), random_mixed(rng, system)
        yield h, rho_e, rho_s0, rng.uniform(0.2, 0.5), True
    # an exact tie: only the first state's decomposition takes the lexsort
    h = random_generator(rng, 4)
    yield h, random_mixed(rng, env_space), maximally_mixed(system), rng.uniform(0.2, 0.5), True
    # a two-factor system, one kernel over both factors
    pair = HilbertSpace.of(("s1", 2), ("s2", 2))
    h = random_generator(rng, 8)
    yield h, random_mixed(rng, env_space), random_mixed(rng, pair), rng.uniform(0.2, 0.5), True
    yield (*partial_swap, False)
    h = random_generator(rng, 4)
    yield h, random_mixed(rng, env_space), random_mixed(rng, system), rng.uniform(0.2, 0.5), False


def assert_chain_matches_reference(chain, reference, labels):
    assert len(chain.kernels) == len(reference)
    for kern, ref in zip(chain.kernels, reference):
        assert kern.parent_indices == ref.parent_indices
        assert kern.column_indices == ref.column_indices
        assert kern.splits == ref.splits == (labels,)
        assert _bits(kern.values.ravel()) == _bits(ref.values.ravel())


def test_chain_kernels_match_the_per_step_conditional_bit_for_bit(monkeypatch):
    fallbacks = []

    def refuse(a):
        fallbacks.append(len(a))
        return False

    for h, rho_e, rho_s0, step, certified in chain_cases():
        with monkeypatch.context() as patch:
            if not certified:
                patch.setattr(tol, "psd_certified", refuse)
            chain = markov_chain_from_repeated_interaction(h, rho_e, rho_s0, step, 32)
            reference = chain_kernels_reference(h, rho_e, rho_s0, step, 32)
        assert_chain_matches_reference(chain, reference, rho_s0.space.labels)
    # the stacked build asked once for its 32 evolved states
    assert fallbacks.count(32) == 2


def test_chain_kernels_match_the_per_step_conditional_across_blocks(monkeypatch):
    """A block holds 40 amplitude entries, n_k d**2 per state: 5 states at
    d = 2 with 2 Kraus operators, 2 with 4, and 1 at d = 4.  So every chain
    spans at least 4 blocks, and each block starts from the last state and
    eigenvectors of the one before it: the kernels stay bit for bit."""
    monkeypatch.setattr(trajectories, "_BLOCK_ENTRIES", 40)
    admitted, admit = [], trajectories._admit
    monkeypatch.setattr(trajectories, "_admit", lambda a: admitted.append(len(a)) or admit(a))
    dims = set()
    for h, rho_e, rho_s0, step, certified in chain_cases():
        admitted.clear()
        with monkeypatch.context() as patch:
            if not certified:
                patch.setattr(tol, "psd_certified", lambda a: False)
            chain = markov_chain_from_repeated_interaction(h, rho_e, rho_s0, step, 32)
            reference = chain_kernels_reference(h, rho_e, rho_s0, step, 32)
        d, n_k = rho_s0.space.total_dim, len(chain_channel(h, rho_e, rho_s0, step).kraus)
        dims.add(d)
        assert sum(admitted) == 32 and set(admitted[:-1]) == {max(1, 40 // (n_k * d**2))}
        assert len(admitted) >= 4
        assert_chain_matches_reference(chain, reference, rho_s0.space.labels)
    assert dims == {2, 4}


def test_chain_kernels_are_the_per_step_conditional_within_rounding():
    """Kernel k is single_system_conditional of state k.  That call takes its
    columns from ch(rho_k) before the trace division, so the eigenvectors, and
    the kernel, differ in the last bits only: 2.9e-15 at most over these cases."""
    for h, rho_e, rho_s0, step, _ in chain_cases():
        chain = markov_chain_from_repeated_interaction(h, rho_e, rho_s0, step, 32)
        ch = chain_channel(h, rho_e, rho_s0, step)
        for kern, rho in zip(chain.kernels, trace_divided_states(ch, rho_s0, 32)):
            assert np.max(np.abs(single_system_conditional(ch, rho).values - kern.values)) < 1e-13


def test_ten_thousand_step_chain_keeps_unit_trace(monkeypatch):
    """Rounding in the Kraus product drifts the trace by about 5e-16 a step;
    undivided, this d = 4 chain's first block, then of 4096 states, was
    refused with a trace defect of 2.09e-12.  Divided by its trace, every
    one of the 10**4 states is admitted at a trace defect below 1e-14, in
    blocks of 1024 states (4 Kraus operators)."""
    rng = np.random.default_rng(SEED + 30)
    h = random_generator(rng, 8)
    env = DensityMatrix(HilbertSpace.of(("e", 2)), np.diag([0.7, 0.3]).astype(complex))
    rho_s0 = random_mixed(rng, HilbertSpace.of(("s", 4)))
    defects, admit = [], trajectories._admit

    def recorded(states):
        defects.append(float(np.abs(states.trace(axis1=1, axis2=2) - 1.0).max()))
        admit(states)

    monkeypatch.setattr(trajectories, "_admit", recorded)
    chain = markov_chain_from_repeated_interaction(h, env, rho_s0, 0.1, 10**4)
    assert len(chain.kernels) == 10**4
    assert len(defects) == math.ceil(10**4 / (trajectories._BLOCK_ENTRIES // (4 * 16)))
    assert max(defects) < 1e-14


def counted_build(monkeypatch, *args):
    """The chain markov_chain_from_repeated_interaction(*args) builds, and
    the eigh, eigvalsh and cholesky calls it made."""
    calls = Counter()

    def counted(name):
        solver = getattr(np.linalg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)

        return count

    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "cholesky"):
            patch.setattr(np.linalg, name, counted(name))
        chain = markov_chain_from_repeated_interaction(*args)
    return chain, calls


def repeated_interaction_case(seed: int, d: int):
    rng = np.random.default_rng(seed)
    h = random_generator(rng, 2 * d)
    return h, random_mixed(rng, HilbertSpace.of(("e", 2))), random_mixed(rng, HilbertSpace.of(("s", d)))


def test_chain_build_is_one_stacked_pass(monkeypatch):
    """However many steps: three eigh (the generator, the environment, the
    state stack), one Cholesky (the stack's admission) and no eigvalsh."""
    h, rho_e, rho_s0 = repeated_interaction_case(SEED + 16, 2)
    for steps in (32, 64):
        chain, calls = counted_build(monkeypatch, h, rho_e, rho_s0, 0.3, steps)
        assert len(chain.kernels) == steps
        assert calls["eigh"] <= 3
        assert calls["cholesky"] <= 1
        assert calls["eigvalsh"] == 0


def test_blocks_not_steps_drive_the_solver_calls(monkeypatch):
    """A d = 16, 600-step build spans several blocks: one Cholesky and one
    eigh per block, plus the generator's and the environment's eigh."""
    h, rho_e, rho_s0 = repeated_interaction_case(SEED + 21, 16)
    n_k = len(chain_channel(h, rho_e, rho_s0, 0.05).kraus)
    blocks = math.ceil(600 / (trajectories._BLOCK_ENTRIES // (n_k * 16**2)))
    assert blocks > 1
    chain, calls = counted_build(monkeypatch, h, rho_e, rho_s0, 0.05, 600)
    assert len(chain.kernels) == 600
    assert calls == Counter(eigh=blocks + 2, cholesky=blocks)


def test_build_memory_does_not_grow_with_the_chain():
    """At d = 16 the traced peak of a build, less its kernels' values, is the
    same for 500 and 1000 steps, and 1000 steps peak below 20 MiB: a build
    that holds every state of the chain at once peaks at 20.1 MiB here."""
    h, rho_e, rho_s0 = repeated_interaction_case(SEED + 22, 16)
    markov_chain_from_repeated_interaction(h, rho_e, rho_s0, 0.05, 4)
    peaks = {}
    for steps in (500, 1000):
        tracemalloc.start()
        try:
            chain = markov_chain_from_repeated_interaction(h, rho_e, rho_s0, 0.05, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[steps] = (peak, peak - sum(k.values.nbytes for k in chain.kernels))
        del chain
    assert abs(peaks[1000][1] - peaks[500][1]) <= 0.1 * peaks[500][1]
    assert peaks[1000][0] < 20 * 2**20


def test_repeated_interaction_rejects_bad_grid():
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    with pytest.raises(BadInterval):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.0, 4)
    with pytest.raises(BadInterval):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, math.inf, 4)
    with pytest.raises(BadInterval):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 0)
    for steps in (2.5, math.inf, math.nan, None):
        with pytest.raises(BadInterval):
            markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, steps)


class Built(Exception):
    """Raised in place of building the dilation."""


def test_repeated_interaction_caps_steps_before_building(monkeypatch):
    """10**9 steps is refused at once; the cap itself still reaches the build."""
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(trajectories, "UnitaryFamily", refuse)
    for steps in (10**9, 10**4 + 1):
        with pytest.raises(BadInterval):
            markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, steps)
    with pytest.raises(Built):
        markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 10**4)


def test_repeated_interaction_accepts_an_integral_float_step_count():
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    chain = markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 3.0)
    exact = markov_chain_from_repeated_interaction(SWAP, env, rho_s0, 0.4, 3)
    assert len(chain.kernels) == 3
    assert chain.times == exact.times
    assert all(np.array_equal(a.values, b.values) for a, b in zip(chain.kernels, exact.kernels))


PARTIAL_SWAP_SETTINGS = [(0.4, 1.0), (0.2, 1.0), (1.0, 0.7)]


def kernel_product_gap(rho_s0: DensityMatrix, step: float, rate: float, n: int) -> float:
    """Largest gap between the product K_01 K_12 ... of the partial-swap
    chain's kernels and the direct table of its n-fold composed channel."""
    system, env_space = rho_s0.space, HilbertSpace.of(("e", 2))
    env = basis_state(env_space, 0).density_matrix()
    chain = markov_chain_from_repeated_interaction(rate * SWAP, env, rho_s0, step, n)
    u = UnitaryFamily(system.tensor(env_space), rate * SWAP).at(step)
    ch = dilation_channel(u, env, (["s"], ["e"]))
    direct = single_system_conditional(reduce(compose, [ch] * n), rho_s0)
    product = reduce(np.matmul, [kern.values for kern in chain.kernels])
    return float(np.max(np.abs(product - direct.values)))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("step, rate", PARTIAL_SWAP_SETTINGS)
def test_kernel_product_is_the_multi_time_table_for_diagonal_states(step, rate, n):
    """States that stay diagonal in one basis: Chapman-Kolmogorov holds."""
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([0.7, 0.3]).astype(complex))
    assert kernel_product_gap(rho_s0, step, rate, n) <= 1e-12


# the coherent gap at n = 2 for each (step, rate), pinned to its value
COHERENT_GAPS = {
    (0.4, 1.0): 0.011298186330791271,
    (0.2, 1.0): 0.001119240333377805,
    (1.0, 0.7): 0.023822615976578865,
}


@pytest.mark.parametrize("step, rate", PARTIAL_SWAP_SETTINGS)
def test_kernel_product_misses_the_multi_time_table_for_coherent_states(step, rate):
    """The obstruction: the channels compose exactly, but ch(P_w) is not
    diagonal in the eigenbasis of the next state, so the kernels do not."""
    psi = np.array([math.sqrt(0.7), math.sqrt(0.3)])
    rho_s0 = DensityMatrix(
        HilbertSpace.of(("s", 2)), 0.8 * np.outer(psi, psi) + 0.1 * np.eye(2)
    )
    measured = kernel_product_gap(rho_s0, step, rate, 2)
    assert measured > 1e-3
    assert measured == pytest.approx(COHERENT_GAPS[step, rate], rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# qubit geometry
# ---------------------------------------------------------------------------

def bloch_amplitudes(theta, phi):
    """The qubit state at Bloch angles (theta, phi)."""
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


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
    omega = rng.uniform(0.5, 3.0)
    s1, s2 = bloch_helix(omega, times)
    for (t1, p1), (t2, p2) in zip(s1, s2):
        inner = np.vdot(bloch_amplitudes(t1, p1), bloch_amplitudes(t2, p2))
        assert abs(inner) < 1e-12
    # a list or a tuple of the same times gives the array's strands, bit for bit
    for same in (times.tolist(), tuple(times)):
        o1, o2 = bloch_helix(omega, same)
        assert (o1.tobytes(), o2.tobytes()) == (s1.tobytes(), s2.tobytes())


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
