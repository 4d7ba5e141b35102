"""Tests for canonical decompositions and conditional probability tables."""
import ast
import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import onticsim
from onticsim import (
    CNOT,
    SWAP,
    ConditionalProbabilityTable,
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    MeasurementModel,
    OnticDecomposition,
    OnticTrajectory,
    PureState,
    QuantumChannel,
    UnitaryFamily,
    UnitaryOperator,
    apply,
    basis_state,
    bayesian_propagation_check,
    conditional_channel_given_env,
    conditional_probabilities,
    dilation_channel,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    maximally_mixed,
    ontic_decomposition,
    parent_conditioned_probabilities,
    partial_trace,
    permute_factors,
    single_system_conditional,
    unitary_channel,
)
from onticsim import channels, ontic
from onticsim import tolerances as tol
from onticsim.errors import (
    BadInterval,
    BadPartition,
    NotADistribution,
    NotAProjector,
    NotUnitary,
    NothingToTrace,
    SpaceMismatch,
    ToleranceBreach,
    UnknownSubsystem,
)
from onticsim.ontic import _conditional_core
from onticsim.qcore import _canonical_phase

SEED = 20260816
SRC = Path(onticsim.__file__).parent

QUBIT = HilbertSpace.of(("s", 2))
PAIR = HilbertSpace.of(("s", 2), ("e", 2))
THREE = HilbertSpace.of(("a", 2), ("b", 3), ("c", 2))
NAN_QUBIT = np.full((2, 2), np.nan, dtype=complex)
# eigvalsh reads this one as the finite spectrum [0, -0]
NAN_DIAGONAL = np.diag([0.5, np.nan]).astype(complex)


def random_density(rng: np.random.Generator, space: HilbertSpace) -> DensityMatrix:
    d = space.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conjugate().T
    return DensityMatrix(space, m / np.trace(m))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def three_factor_case():
    """A random full-rank state on a(2) b(3) c(2), and a channel on it
    dilated from a Haar unitary with a mixed ancilla f(2)."""
    rng = np.random.default_rng(SEED + 8)
    full = THREE.tensor(HilbertSpace.of(("f", 2)))
    ancilla = random_density(rng, HilbertSpace.of(("f", 2)))
    u = UnitaryOperator(full, haar_unitary(rng, full.total_dim))
    ch = dilation_channel(u, ancilla, (list(THREE.labels), ["f"]))
    return ch, random_density(rng, THREE)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conjugate())


def reduced_state(evolved: DensityMatrix, group) -> DensityMatrix:
    """partial_trace onto the group, or the state itself for a whole-space group."""
    if len(group) == len(evolved.space.factors):
        return evolved
    return partial_trace(evolved, group)


def direct_table(ch, rho, splits) -> np.ndarray:
    """Tr[(P_1(i1) (x) ... (x) P_n(in) (x) 1) ch(P_w)] with every projector formed:
    the Kronecker product in split order, identity on the factors no split names,
    then permuted into the channel's output order."""
    out = ch.out_space
    evolved = apply(ch, rho)
    decs = [ontic_decomposition(reduced_state(evolved, group)) for group in splits]
    named = [label for dec in decs for label in dec.source_space.labels]
    rest = [label for label in out.labels if label not in named]
    kron_space = HilbertSpace(tuple((label, out.dim_of(label)) for label in named + rest))
    identity = np.eye(math.prod(out.dim_of(label) for label in rest))
    columns = [
        permute_factors(
            reduce(np.kron, [*(projector(d.vectors[:, i]) for d, i in zip(decs, combo)), identity]),
            kron_space,
            out.labels,
        )[0]
        for combo in itertools.product(*[range(dec.probabilities.size) for dec in decs])
    ]
    rows = [
        sum(k @ projector(w) @ k.conjugate().T for k in ch.kraus)
        for w in ontic_decomposition(rho).vectors.T
    ]
    return np.array([[np.trace(col @ row).real for col in columns] for row in rows])


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def test_decomposition_sorts_by_probability():
    rho = DensityMatrix(QUBIT, np.diag([0.3, 0.7]).astype(complex))
    dec = ontic_decomposition(rho)
    assert np.allclose(dec.probabilities, [0.7, 0.3])
    assert abs(dec.vectors[1, 0] - 1.0) < 1e-14
    assert np.all(dec.probabilities >= tol.NULL_PROBABILITY)
    rebuilt = (dec.vectors * dec.probabilities) @ dec.vectors.conj().T
    assert np.allclose(rebuilt, rho.matrix, atol=1e-12)


def test_decomposition_refuses_a_negative_probability():
    """Summing to 1 over orthonormal columns does not make [1.5, -0.5] a
    distribution."""
    with pytest.raises(NotADistribution, match="^probability negativity 0.5 exceeds 1e-10$"):
        OnticDecomposition(QUBIT, [1.5, -0.5], np.eye(2))


def test_decomposition_keeps_null_configurations():
    """Zero-probability eigenvectors stay in the list, below NULL_PROBABILITY."""
    rho = DensityMatrix(HilbertSpace.of(("s", 3)), np.diag([0.7, 0.3, 0.0]).astype(complex))
    dec = ontic_decomposition(rho)
    assert dec.vectors.shape == (3, 3)
    assert (dec.probabilities < tol.NULL_PROBABILITY).tolist() == [False, False, True]
    assert dec.probabilities[2] == 0.0


def test_decomposition_order_is_phase_independent():
    """Rebuilding the same state from rotated eigenvectors keeps the order."""
    rng = np.random.default_rng(SEED)
    rho = random_density(rng, HilbertSpace.of(("s", 3)))
    a = ontic_decomposition(rho)
    b = ontic_decomposition(DensityMatrix(rho.space, rho.matrix.copy()))
    assert np.allclose(a.vectors, b.vectors, atol=1e-12)


def test_decomposition_fuzz_reconstruction_and_orthonormality():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        rho = random_density(rng, HilbertSpace.of(("s", 4)))
        dec = ontic_decomposition(rho)
        rebuilt = (dec.vectors * dec.probabilities) @ dec.vectors.conj().T
        assert np.allclose(rebuilt, rho.matrix, atol=1e-10)
        probs = dec.probabilities
        assert np.all(probs[:-1] >= probs[1:] - 1e-12)
        vecs = dec.vectors
        assert np.max(np.abs(vecs.conjugate().T @ vecs - np.eye(4))) < 1e-10


def reference_phase(vector: np.ndarray) -> np.ndarray:
    """The scalar phase rule, one vector at a time."""
    for value in vector:
        if abs(value) > tol.PHASE_PIVOT:
            out = vector * (value.conjugate() / abs(value))
            pivot = np.argmax(np.abs(vector) > tol.PHASE_PIVOT)
            out[pivot] = abs(out[pivot])
            return out
    return vector.copy()


def reference_decomposition(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-eigenvector build: phase each column, then sort on a tuple key
    of (-p, re_0, im_0, re_1, im_1, ...)."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    probs = np.clip(evals, 0.0, 1.0)
    vecs = [reference_phase(np.array(evecs[:, k])) for k in range(len(evals))]

    def lex_key(v):
        return tuple(x for c in v for x in (float(c.real), float(c.imag)))

    order = sorted(range(len(evals)), key=lambda k: (-probs[k], lex_key(vecs[k])))
    return probs[order], np.column_stack([vecs[k] for k in order])


def low_rank_density(rng: np.random.Generator, d: int, rank: int) -> DensityMatrix:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conjugate().T
    return DensityMatrix(HilbertSpace.of(("s", d)), m / np.trace(m))


def diagonal_density(weights) -> DensityMatrix:
    w = np.asarray(weights, dtype=float)
    return DensityMatrix(HilbertSpace.of(("s", len(w))), np.diag(w / w.sum()).astype(complex))


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


LOW_RANK = [(d, rank) for rank in (1, 2) for d in (4, 5, 8, 16, 32, 64)]
TIED = {
    "maximally_mixed_2": lambda: maximally_mixed(QUBIT),
    "maximally_mixed_5": lambda: maximally_mixed(HilbertSpace.of(("s", 5))),
    "maximally_mixed_16": lambda: maximally_mixed(HilbertSpace.of(("s", 16))),
    "basis_0_of_3": lambda: basis_state(HilbertSpace.of(("s", 3)), 0).density_matrix(),
    "basis_5_of_8": lambda: basis_state(HilbertSpace.of(("s", 8)), 5).density_matrix(),
    "basis_3_of_4_pair": lambda: basis_state(PAIR, 3).density_matrix(),
    "diagonal_repeats": lambda: diagonal_density([0.1, 0.3, 0.1, 0.2, 0.0, 0.2, 0.1, 0.0]),
    "diagonal_all_but_one": lambda: diagonal_density([1, 1, 1, 1, 1, 1, 2]),
    "diagonal_two_blocks": lambda: diagonal_density([0.0] * 6 + [1.0] * 6),
}


def assert_matches_reference(rho: DensityMatrix) -> None:
    dec = ontic_decomposition(rho)
    probs, vecs = reference_decomposition(rho)
    assert np.array_equal(bits(dec.probabilities), bits(probs))
    assert np.array_equal(bits(dec.vectors), bits(vecs))


@pytest.mark.parametrize("d, rank", LOW_RANK, ids=[f"rank{r}_d{d}" for d, r in LOW_RANK])
def test_decomposition_matches_tuple_key_sort_on_clipped_ties(d, rank):
    """Eigenvalues clipped to 0.0 tie exactly, so the vector order decides."""
    rng = np.random.default_rng(SEED + 10 * d + rank)
    for _ in range(100):
        rho = low_rank_density(rng, d, rank)
        if np.count_nonzero(np.clip(np.linalg.eigh(rho.matrix)[0], 0.0, 1.0) == 0.0) >= 2:
            break
    else:
        pytest.fail("no state with two eigenvalues clipped to 0.0")
    assert_matches_reference(rho)


@pytest.mark.parametrize("build", TIED.values(), ids=TIED.keys())
def test_decomposition_matches_tuple_key_sort_on_tied_states(build):
    assert_matches_reference(build())


def test_decomposition_matches_tuple_key_sort_on_random_states():
    rng = np.random.default_rng(SEED + 11)
    for d in (2, 3, 7, 16, 48):
        for _ in range(4):
            assert_matches_reference(random_density(rng, HilbertSpace.of(("s", d))))


def test_decomposition_tie_break_reads_re_then_im_amplitude_by_amplitude(monkeypatch):
    """A stubbed eigh returns a fully tied spectrum with DFT eigenvectors:
    every column shares its first amplitude, so the (re, im) pair of the
    second amplitude decides, and cos ties between k and d - k fall to im."""
    d = 8
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.full(d, 1.0 / d), fourier.copy()))
    rho = maximally_mixed(HilbertSpace.of(("s", d)))
    assert_matches_reference(rho)
    second = ontic_decomposition(rho).vectors[1]
    assert np.all(np.diff(second.real) >= 0.0)


def full_lexsort_decomposition(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The order with every key on every call: -p first, then (re, im) pairs."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    probs = np.clip(evals, 0.0, 1.0)
    vecs = _canonical_phase(evecs)
    keys = np.stack([vecs.real, vecs.imag], axis=1).reshape(-1, probs.size)
    order = np.lexsort((*keys[::-1], -probs))
    return probs[order], vecs.take(order, axis=1)


def has_exact_tie(rho: DensityMatrix) -> bool:
    probs = np.sort(np.clip(np.linalg.eigh(rho.matrix)[0], 0.0, 1.0))
    return bool((probs[1:] == probs[:-1]).any())


def test_tie_only_lexsort_gives_the_full_lexsort_order():
    """The lexsort runs only on an exact tie; without one, the stable
    argsort on -p gives the same order."""
    rng = np.random.default_rng(SEED + 17)
    tied = [build() for build in TIED.values()]
    for d, rank in itertools.product((4, 16, 48), (1, 2)):
        # the first rank-deficient draw with two eigenvalues clipped to 0.0
        draws = (low_rank_density(rng, d, rank) for _ in range(100))
        tied.append(next(rho for rho in draws if has_exact_tie(rho)))
    tie_free = [
        random_density(rng, HilbertSpace.of(("s", d))) for d in (2, 3, 8, 48) for _ in range(3)
    ]
    assert all(has_exact_tie(rho) for rho in tied)
    assert not any(has_exact_tie(rho) for rho in tie_free)
    for rho in tied + tie_free:
        dec = ontic_decomposition(rho)
        probs, vecs = full_lexsort_decomposition(rho)
        assert np.array_equal(bits(dec.probabilities), bits(probs))
        assert np.array_equal(bits(dec.vectors), bits(vecs))


def test_pure_state_and_decomposition_share_the_phase_rule():
    rng = np.random.default_rng(SEED + 12)
    space = HilbertSpace.of(("s", 6))
    stack = haar_unitary(rng, 6) * np.exp(1j * rng.uniform(0, 6, size=6))
    canonical = _canonical_phase(stack)
    for k in range(6):
        column = np.array(stack[:, k])
        assert np.array_equal(bits(PureState(space, column).amplitudes), bits(canonical[:, k]))
        assert np.array_equal(bits(reference_phase(column)), bits(canonical[:, k]))


def test_decomposition_arrays_are_read_only_and_entries_view_them():
    """Column k of `vectors` is the configuration of probability k; the
    null ones, below NULL_PROBABILITY, are the trailing columns."""
    rho = low_rank_density(np.random.default_rng(SEED + 13), 5, 2)
    dec = ontic_decomposition(rho)
    assert not dec.probabilities.flags.writeable
    assert not dec.vectors.flags.writeable
    assert (dec.probabilities < tol.NULL_PROBABILITY).tolist() == [False, False, True, True, True]
    for k, v in enumerate(dec.vectors.T):
        assert abs(np.vdot(v, rho.matrix @ v) - dec.probabilities[k]) <= 1e-12


# ---------------------------------------------------------------------------
# one decomposition per state object
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, name: str) -> list:
    """Record each call of np.linalg.<name> from here on."""
    calls, original = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_decomposition_is_computed_once_per_state(monkeypatch):
    rho = random_density(np.random.default_rng(SEED + 14), PAIR)
    shown = repr(rho)
    eigh = count_calls(monkeypatch, "eigh")
    first = ontic_decomposition(rho)
    assert ontic_decomposition(rho) is first
    assert eigh == ["eigh"]
    assert not first.probabilities.flags.writeable and not first.vectors.flags.writeable
    assert repr(rho) == shown


def test_equal_states_share_no_decomposition(monkeypatch):
    m = random_density(np.random.default_rng(SEED + 15), THREE).matrix
    a, b = DensityMatrix(THREE, m), DensityMatrix(THREE, m)
    eigh = count_calls(monkeypatch, "eigh")
    da, db = ontic_decomposition(a), ontic_decomposition(b)
    assert len(eigh) == 2
    assert da is not db
    assert not np.shares_memory(da.vectors, db.vectors)
    assert np.array_equal(bits(da.vectors), bits(db.vectors))
    assert np.array_equal(bits(da.probabilities), bits(db.probabilities))


def test_failed_decomposition_is_not_kept(monkeypatch):
    """Every check runs on the first successful call: a breach stores nothing."""
    rho = random_density(np.random.default_rng(SEED + 16), QUBIT)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda m: (np.array([0.2, 0.2]), np.eye(2, dtype=complex)))
        with pytest.raises(ToleranceBreach):
            ontic_decomposition(rho)
    dec = ontic_decomposition(rho)
    rebuilt = (dec.vectors * dec.probabilities) @ dec.vectors.conj().T
    assert np.allclose(rebuilt, rho.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# conditional probability tables
# ---------------------------------------------------------------------------

def test_table_validation():
    with pytest.raises(ToleranceBreach):
        ConditionalProbabilityTable((0, 1), ((0,), (1,)), np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ToleranceBreach):
        ConditionalProbabilityTable((0, 1), ((0,), (1,)), np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(SpaceMismatch):
        ConditionalProbabilityTable((0,), ((0,), (1,)), np.array([[0.5], [0.5]]))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DensityMatrix(QUBIT, NAN_QUBIT), ToleranceBreach),
        (
            lambda: ConditionalProbabilityTable((0,), ((0,), (1,)), [[np.nan, np.nan]]),
            ToleranceBreach,
        ),
        (
            lambda: OnticDecomposition(QUBIT, np.array([np.nan, np.nan]), np.eye(2)),
            ToleranceBreach,
        ),
        (lambda: PureState(QUBIT, [np.nan, 0.0]), ToleranceBreach),
        (lambda: UnitaryOperator(QUBIT, NAN_QUBIT), NotUnitary),
        (lambda: UnitaryFamily(QUBIT, NAN_QUBIT), ToleranceBreach),
        (lambda: QuantumChannel(QUBIT, QUBIT, (NAN_QUBIT,)), ToleranceBreach),
        (
            lambda: conditional_channel_given_env(
                unitary_channel(UnitaryOperator(PAIR, CNOT)), NAN_QUBIT, (["s"], ["e"])
            ),
            NotAProjector,
        ),
        (lambda: OnticTrajectory((0.0, np.nan, 1.0), (0, 0, 0)), BadInterval),
        (
            lambda: MarkovKernelChain((0.0, np.nan, 1.0), (kernel_from_matrix([[1.0]]),) * 2),
            BadInterval,
        ),
        (lambda: MeasurementModel(2, 1, 1, np.nan, 1.0, 0.1), NotADistribution),
        (lambda: MeasurementModel(2, 1, 1, 1.0, np.nan, 0.1), NotADistribution),
        (lambda: MeasurementModel(2, 1, 1, 1.0, 1.0, np.nan), NotADistribution),
        (lambda: MeasurementModel(np.nan, 1, 1, 1.0, 1.0, 0.1), SpaceMismatch),
        (
            lambda: markov_chain_from_repeated_interaction(
                SWAP,
                basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix(),
                maximally_mixed(QUBIT),
                np.nan,
                4,
            ),
            BadInterval,
        ),
        (lambda: tol.check(np.nan, 1.0, ToleranceBreach, "defect"), ToleranceBreach),
        (
            lambda: tol.check(tol.hermiticity_defect(NAN_QUBIT), 1.0, ToleranceBreach, "defect"),
            ToleranceBreach,
        ),
        (
            lambda: tol.check(tol.isometry_defect(NAN_QUBIT), 1.0, NotUnitary, "defect"),
            NotUnitary,
        ),
        (
            lambda: tol.check(tol.negativity(NAN_QUBIT), 1.0, ToleranceBreach, "defect"),
            ToleranceBreach,
        ),
        (
            lambda: tol.check(tol.negativity(NAN_DIAGONAL), 1.0, ToleranceBreach, "defect"),
            ToleranceBreach,
        ),
    ],
    ids=[
        "density_matrix", "table", "decomposition", "pure_state", "unitary",
        "unitary_family", "kraus_channel", "conditioning_projector",
        "trajectory_times", "chain_times", "measurement_gamma_a", "measurement_gamma_e",
        "measurement_dt", "measurement_subject_dim",
        "repeated_interaction_step",
        "check", "hermiticity_defect", "isometry_defect", "negativity",
        "negativity_diagonal_nan",
    ],
)
def test_invariant_checks_reject_nan(build, error):
    with pytest.raises(error):
        build()


def test_tolerances_are_constants_whatever_the_environment():
    """The old ONTIC_SIM_TOLERANCE_SCALE variable no longer scales any check."""
    paths = [str(Path(onticsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        ONTIC_SIM_TOLERANCE_SCALE="1e6",
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
    )
    result = subprocess.run(
        [sys.executable, "-c", "import onticsim; print(onticsim.tolerances.CONSTRUCTION)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert float(result.stdout) == 1e-12


def test_table_clamps_floor_level_negatives():
    table = ConditionalProbabilityTable(
        (0, 1), ((0,), (1,)), np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])
    )
    assert table.values.min() == 0.0


def test_cnot_conditional_table_on_diagonal_parent():
    """Frozen 2x2-parent case: the channel permutes the basis configurations."""
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho = DensityMatrix(PAIR, np.diag([0.7, 0.0, 0.0, 0.3]).astype(complex))
    table = conditional_probabilities(ch, rho, (["s"], ["e"]))
    assert table.values.shape == (4, 4)
    expect = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(table.values, expect, atol=1e-12)
    assert table.splits == (("s",), ("e",))


def test_identity_channel_gives_identity_pattern():
    rng = np.random.default_rng(SEED + 2)
    rho = random_density(rng, HilbertSpace.of(("s", 3)))
    ch = unitary_channel(UnitaryOperator(rho.space, np.eye(3)))
    table = single_system_conditional(ch, rho)
    assert np.allclose(table.values, np.eye(3), atol=1e-10)


def test_whole_space_split_matches_single_system_route():
    rng = np.random.default_rng(SEED + 3)
    rho = random_density(rng, PAIR)
    ch = unitary_channel(UnitaryOperator(PAIR, haar_unitary(rng, 4)))
    a = conditional_probabilities(ch, rho, [["s", "e"]])
    b = single_system_conditional(ch, rho)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_conditional_rows_are_distributions_fuzz():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(25):
        u = haar_unitary(rng, 4)
        env = random_density(rng, HilbertSpace.of(("e", 2)))
        ch_s = dilation_channel(UnitaryOperator(PAIR, u), env, (["s"], ["e"]))
        rho_s = random_density(rng, QUBIT)
        table = single_system_conditional(ch_s, rho_s)
        assert table.values.min() >= 0.0
        assert np.max(np.abs(table.values.sum(axis=1) - 1.0)) < 1e-9


def test_conditional_table_is_square_with_nulls_counted():
    """Null configurations pad both axes, so the table is always square."""
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    pure = basis_state(PAIR, 0).density_matrix()
    table = conditional_probabilities(ch, pure, (["s"], ["e"]))
    assert table.values.shape == (4, 4)


@pytest.mark.parametrize("splits", [[["c"], ["a", "b"]], [["b"], ["c"], ["a"]]])
def test_permuted_splits_match_direct_formula(splits):
    """Groups out of parent factor order, over a dilated three-factor channel."""
    ch, rho = three_factor_case()
    table = conditional_probabilities(ch, rho, splits)
    assert np.max(np.abs(table.values - direct_table(ch, rho, splits))) <= 1e-12
    assert bayesian_propagation_check(ch, rho, splits) <= 1e-12


def test_parent_conditioned_middle_factor_matches_direct_formula():
    ch, rho = three_factor_case()
    table = parent_conditioned_probabilities(ch, rho, ["b"])
    assert np.max(np.abs(table.values - direct_table(ch, rho, [["b"]]))) <= 1e-12


def test_parent_conditioned_keeps_the_callers_split_order():
    ch, rho = three_factor_case()
    table = parent_conditioned_probabilities(ch, rho, ["b", "a"])
    assert table.splits == (("b", "a"),)
    assert table.column_indices == tuple((j,) for j in range(6))
    assert np.max(np.abs(table.values - direct_table(ch, rho, [["b", "a"]]))) <= 1e-12


def test_label_changing_channel_tables_match_direct_formula():
    """A channel from a(2) b(2) to s(2) e(3): the splits name output factors
    only, so neither table asks the input space for them."""
    rng = np.random.default_rng(SEED + 21)
    isometry = haar_unitary(rng, 12)[:, :4]
    out = HilbertSpace.of(("s", 2), ("e", 3))
    ch = QuantumChannel(HilbertSpace.of(("a", 2), ("b", 2)), out, isometry.reshape(2, 6, 4))
    rho = random_density(rng, ch.in_space)
    system = parent_conditioned_probabilities(ch, rho, ["s"])
    assert system.values.shape == (4, 2)
    assert np.max(np.abs(system.values - direct_table(ch, rho, [["s"]]))) <= 1e-12
    joint = conditional_probabilities(ch, rho, [["s"], ["e"]])
    assert joint.values.shape == (4, 6)
    assert np.max(np.abs(joint.values - direct_table(ch, rho, [["s"], ["e"]]))) <= 1e-12


def rank_deficient_case():
    """The three-factor channel, on a rank-3 parent: 9 null configurations,
    4 of them at an exactly zero probability."""
    ch, _ = three_factor_case()
    g = np.random.default_rng(SEED + 40).normal(size=(12, 3, 2)) @ [1.0, 1j]
    m = g @ g.conjugate().T
    return ch, DensityMatrix(THREE, m / np.trace(m))


def isometry_case():
    """A random isometry from a(2) to a(2) b(3), one Kraus operator: d_out != d_in."""
    rng = np.random.default_rng(SEED + 41)
    a, out = HilbertSpace.of(("a", 2)), HilbertSpace.of(("a", 2), ("b", 3))
    ch = QuantumChannel(a, out, haar_unitary(rng, 6)[None, :, :2])
    return ch, random_density(rng, a)


def negative_mass_case(lam_min: float):
    """The three-factor channel, on a parent with one eigenvalue lam_min < 0,
    inside the eigenvalue floor, that the decomposition clips to zero."""
    ch, _ = three_factor_case()
    rng = np.random.default_rng(SEED + 42)
    rest = rng.uniform(0.5, 1.5, size=THREE.total_dim - 1)
    evals = np.concatenate([[lam_min], (1.0 - lam_min) * rest / rest.sum()])
    u = haar_unitary(rng, THREE.total_dim)
    return ch, DensityMatrix(THREE, (u * evals) @ u.conjugate().T)


SHARED_AMPLITUDE_CASES = {
    "three_factors_out_of_order": (three_factor_case, [["c"], ["b"], ["a"]]),
    "three_factors_pair_last": (three_factor_case, [["c"], ["a", "b"]]),
    "three_factors_split_pair": (three_factor_case, [["a", "c"], ["b"]]),
    "whole_output": (three_factor_case, [["a", "b", "c"]]),
    "rank_deficient": (rank_deficient_case, [["b"], ["a", "c"]]),
    "isometry": (isometry_case, [["b"], ["a"]]),
    "isometry_whole_output": (isometry_case, [["a", "b"]]),
    "negative_mass_4e-11": (lambda: negative_mass_case(-4e-11), [["b"], ["a", "c"]]),
    "negative_mass_9.9e-11": (lambda: negative_mass_case(-9.9e-11), [["c"], ["a", "b"]]),
}


@pytest.mark.parametrize(
    "build, splits", SHARED_AMPLITUDE_CASES.values(), ids=SHARED_AMPLITUDE_CASES.keys()
)
def test_reduced_states_read_off_the_shared_amplitudes(build, splits):
    """Each reduced state of the table core, read off K W with no evolved state,
    is partial_trace(apply(ch, rho), group) within 1e-14, on the group's
    factors in output order, and the table is the direct formula within 1e-12.
    A parent's eigenvalue below zero, inside the floor, weighs its Gram term
    as it weighs rho; the Bayesian gap then grows by up to that mass, which
    the chained route's clipped probabilities drop."""
    ch, rho = build()
    table, parent, reduced_states, reduced_decs = _conditional_core(ch, rho, splits)
    evolved = apply(ch, rho)
    for state, dec, group in zip(reduced_states, reduced_decs, splits):
        expected = reduced_state(evolved, group)
        assert dec.source_space == expected.space
        assert np.max(np.abs(state - expected.matrix)) <= 1e-14
        assert not state.flags.writeable
    assert np.max(np.abs(table.values - direct_table(ch, rho, splits))) <= 1e-12
    negative_mass = max(0.0, -float(np.linalg.eigvalsh(rho.matrix)[0]))
    assert bayesian_propagation_check(ch, rho, splits) <= 1e-12 + negative_mass
    if build is rank_deficient_case:
        assert np.count_nonzero(parent.probabilities == 0.0) >= 4
    if len(splits) == 1:
        assert single_system_conditional(ch, rho) is table


@pytest.mark.parametrize(
    "split, error",
    [
        (["a", "a"], BadPartition),
        ([], BadPartition),
        (["a", "b", "c"], NothingToTrace),
        (["x"], UnknownSubsystem),
    ],
    ids=["repeated", "empty", "every_factor", "unknown"],
)
def test_parent_conditioned_rejects_bad_split(split, error):
    ch, rho = three_factor_case()
    with pytest.raises(error):
        parent_conditioned_probabilities(ch, rho, split)


def test_conditional_rejects_bad_partition():
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho = maximally_mixed(PAIR)
    with pytest.raises(BadPartition):
        conditional_probabilities(ch, rho, (["s"], ["s"]))
    with pytest.raises(BadPartition):
        conditional_probabilities(ch, rho, (["s"],))


def test_conditional_rejects_space_mismatch():
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho = maximally_mixed(HilbertSpace.of(("s", 2), ("x", 2)))
    with pytest.raises(SpaceMismatch):
        conditional_probabilities(ch, rho, (["s"], ["x"]))


# ---------------------------------------------------------------------------
# Bayesian propagation
# ---------------------------------------------------------------------------

def test_bayesian_propagation_frozen_case():
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho = DensityMatrix(PAIR, np.diag([0.7, 0.0, 0.0, 0.3]).astype(complex))
    assert bayesian_propagation_check(ch, rho, (["s"], ["e"])) < 1e-12


def test_bayesian_propagation_fuzz():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        u = haar_unitary(rng, 4)
        ch = unitary_channel(UnitaryOperator(PAIR, u))
        rho = random_density(rng, PAIR)
        assert bayesian_propagation_check(ch, rho, (["s"], ["e"])) < 1e-9


# ---------------------------------------------------------------------------
# one table core per (state, channel object, splits)
# ---------------------------------------------------------------------------

SPLITS = (("s",), ("e",))


def table_case():
    """A random full-rank state on s(2) e(3) and a channel on it dilated
    from a Haar unitary with a mixed ancilla f(2); the dilation inputs come
    back too, so a test can build an equal channel as a new object."""
    rng = np.random.default_rng(SEED + 18)
    space = HilbertSpace.of(("s", 2), ("e", 3))
    ancilla = random_density(rng, HilbertSpace.of(("f", 2)))
    u = UnitaryOperator(space.tensor(HilbertSpace.of(("f", 2))), haar_unitary(rng, 12))

    def channel():
        return dilation_channel(u, ancilla, (["s", "e"], ["f"]))

    return channel, random_density(rng, space)


def test_table_op_evolves_once_and_solves_no_eigenvalue_check(monkeypatch):
    """The table, its Bayesian check and the system table on one (channel, state):
    the parent and the two reduced states of the first call are reused, and
    parent_conditioned_probabilities adds no evolution and no reduced state.
    The parent's eigenvectors are evolved once, as K W: no Kraus product
    K rho K^dag runs, and the reduced states are admitted with no Cholesky,
    their positivity read off the eigh that decomposes them."""
    channel, rho = table_case()
    ch = channel()
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    cholesky = count_calls(monkeypatch, "cholesky")

    def refuse(*args):
        raise AssertionError("the table path formed an evolved state")

    monkeypatch.setattr(channels, "_apply_kraus", refuse)
    table = conditional_probabilities(ch, rho, SPLITS)
    gap = bayesian_propagation_check(ch, rho, SPLITS)
    system = parent_conditioned_probabilities(ch, rho, ["s"])
    assert (len(eigh), len(eigvalsh), len(cholesky)) == (3, 0, 0)
    monkeypatch.undo()
    fresh = DensityMatrix(rho.space, rho.matrix)
    again = conditional_probabilities(ch, fresh, SPLITS)
    assert again is not table
    assert np.array_equal(bits(again.values), bits(table.values))
    assert bayesian_propagation_check(ch, DensityMatrix(rho.space, rho.matrix), SPLITS) == gap
    system_again = parent_conditioned_probabilities(ch, fresh, ["s"])
    assert np.array_equal(bits(system_again.values), bits(system.values))


def test_repeat_table_call_returns_the_same_table(monkeypatch):
    channel, rho = table_case()
    ch = channel()
    table = conditional_probabilities(ch, rho, SPLITS)
    eigh = count_calls(monkeypatch, "eigh")
    assert conditional_probabilities(ch, rho, [["s"], ["e"]]) is table
    with pytest.raises(ValueError):
        table.values[0, 0] = 0.5
    assert eigh == []


TABLE_KEY_CHANGES = {
    "new_channel_object": lambda ch, channel: (channel(), SPLITS),
    "new_split_order": lambda ch, channel: (ch, SPLITS[::-1]),
}


@pytest.mark.parametrize("change", TABLE_KEY_CHANGES.values(), ids=TABLE_KEY_CHANGES.keys())
def test_each_table_key_change_recomputes(monkeypatch, change):
    channel, rho = table_case()
    ch = channel()
    table = conditional_probabilities(ch, rho, SPLITS)
    ch_2, splits_2 = change(ch, channel)
    eigh = count_calls(monkeypatch, "eigh")
    other = conditional_probabilities(ch_2, rho, splits_2)
    assert other is not table
    # evolved and tabulated again; the parent keeps its decomposition
    assert len(eigh) == 2
    assert np.max(np.abs(other.values - direct_table(ch_2, rho, splits_2))) <= 1e-12


def test_a_state_keeps_only_its_latest_table():
    channel, rho = table_case()
    ch = channel()
    first = weakref.ref(conditional_probabilities(ch, rho, SPLITS))
    latest = conditional_probabilities(ch, rho, SPLITS[::-1])
    gc.collect()
    assert first() is None
    assert conditional_probabilities(ch, rho, SPLITS[::-1]) is latest


def test_table_core_shares_only_read_only_results():
    channel, rho = table_case()
    table, parent, reduced_states, reduced_decs = _conditional_core(channel(), rho, SPLITS)
    assert isinstance(reduced_states, tuple) and isinstance(reduced_decs, tuple)
    assert parent is ontic_decomposition(rho)
    assert not table.values.flags.writeable


def _callers(name: str) -> set:
    """(module, caller) of each call to `name` in the package: the caller is
    a top-level function, a method as Class.method, or else a class."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for member in members:
                caller = getattr(top, "name", None)
                if member is not top and isinstance(member, ast.FunctionDef):
                    caller = f"{caller}.{member.name}"
                for node in ast.walk(member):
                    func = getattr(node, "func", None)
                    if isinstance(node, ast.Call) and name in (
                        getattr(func, "id", None), getattr(func, "attr", None)
                    ):
                        found.add((path.stem, caller))
    return found


def test_one_table_core():
    """Every computed table goes through one kernel, and every state's table
    through one memoized core: no second evolve, trace, decompose, tabulate path."""
    assert _callers("_kernel_table") == {
        ("ontic", "_tabulate"),
        ("trajectories", "markov_chain_from_repeated_interaction"),
    }
    # the table core reads its reduced states off K W: no evolved state K rho K^dag
    assert _callers("_apply_kraus") == {
        ("channels", "apply"),
        ("trajectories", "markov_chain_from_repeated_interaction"),
    }
    assert _callers("_conditional_core") == {
        ("ontic", "conditional_probabilities"),
        ("ontic", "single_system_conditional"),
        ("ontic", "bayesian_propagation_check"),
        ("opendyn", "parent_conditioned_probabilities"),
    }


def test_one_positivity_verdict_per_matrix():
    """Cholesky runs only at the trust boundary, on a matrix from outside;
    _admit checks Hermiticity and trace alone, and a derived stack takes its
    positivity verdict off the eigensolve that decomposes it.  The one derived-state
    constructor, _derived, builds a pure state's projector, positive by
    construction, and the measurement states, decomposed next."""
    assert _callers("cholesky") == {("tolerances", "psd_certified")}
    assert _callers("psd_certified") == {("qcore", "DensityMatrix.__post_init__")}
    assert _callers("_admit") == {
        ("qcore", "DensityMatrix.__post_init__"),
        ("qcore", "_derived"),
        ("ontic", "_tabulate"),
        ("trajectories", "markov_chain_from_repeated_interaction"),
    }
    assert _callers("_derived") == {
        ("qcore", "PureState.density_matrix"),
        ("measurement", "_measure"),
    }
    assert _unchecked_constructions("DensityMatrix") == {("qcore", "_derived")}
    # a measurement block is decomposed by one stacked pass: its eigensolve, an eigh or from
    # measurement._SECULAR_DIM up the secular solve, gives each state its verdict
    assert _callers("_decompositions") == {
        ("ontic", "_eigensystem"),
        ("ontic", "_tabulate"),
        ("measurement", "_measure"),
    }
    qcore_defs = ast.parse((SRC / "qcore.py").read_text()).body
    (args,) = (f.args for f in qcore_defs if getattr(f, "name", None) == "_admit")
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["matrices"]
    assert args.vararg is None and args.kwarg is None


def _is_conjugate_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "conjugate"


def test_one_quadratic_form():
    """v^dag M v over a stack of columns is written once, as the
    conjugate() * (M @ V) product in _quadratic_forms, and both checks that
    take quadratic forms call it."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    pair = (node.left, node.right)
                    if any(map(_is_conjugate_call, pair)) and any(
                        isinstance(side, ast.BinOp) and isinstance(side.op, ast.MatMult)
                        for side in pair
                    ):
                        found.add((path.stem, getattr(top, "name", None)))
    assert found == {("ontic", "_quadratic_forms")}
    assert _callers("_quadratic_forms") == {
        ("ontic", "bayesian_propagation_check"),
        ("measurement", "born_conditional_check"),
    }


def _unchecked_constructions(cls: str) -> set:
    """(module, top-level name) of each object.__new__(cls) in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if (
                    isinstance(node, ast.Call)
                    and getattr(func, "attr", None) == "__new__"
                    and getattr(getattr(func, "value", None), "id", None) == "object"
                    and any(getattr(a, "id", None) == cls for a in node.args)
                ):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_only_the_kernel_builds_tables_unchecked():
    """object.__new__(ConditionalProbabilityTable) skips the table checks; only
    _kernel_table, which runs them once over its stack, may do that."""
    assert _unchecked_constructions("ConditionalProbabilityTable") == {("ontic", "_kernel_table")}


def kernel_table_reference(out, amp, groups, splits):
    """The per-table kernel: one (n_k, d_out, n_w) amplitude stack K W on the
    output space `out`, one (d_g, m_g) basis per group, and the table built
    by its checked constructor."""
    order = [1 + out.axis(label) for labels, _ in groups for label in labels]
    n_k, _, n_w = amp.shape
    amp = amp.reshape(n_k, *out.dims, n_w).transpose(0, *order, len(order) + 1)
    shape = [n_k]
    for labels, basis in groups:
        d_g = math.prod(out.dim_of(label) for label in labels)
        amp = basis.conjugate().T @ amp.reshape(math.prod(shape), d_g, -1)
        shape.append(amp.shape[1])
    probs = (amp.real ** 2 + amp.imag ** 2).reshape(*shape, n_w)
    return ConditionalProbabilityTable(
        parent_indices=tuple(range(n_w)),
        column_indices=tuple(itertools.product(*map(range, shape[1:]))),
        values=probs.sum(axis=0).reshape(-1, n_w).T,
        splits=splits,
    )


def per_table_kernel(out, amps, groups, splits):
    """_kernel_table's stacked signature, one reference table per slice."""
    return [
        kernel_table_reference(out, amps[k], [(labels, b[k]) for labels, b in groups], splits)
        for k in range(len(amps))
    ]


def test_table_outputs_equal_the_per_table_kernel_bit_for_bit(monkeypatch):
    """On a W = s(6) e(8) table dilated with a 2-dim ancilla, the joint table,
    the Bayesian gap and the marginal system table equal those read off the
    per-table kernel's table bit for bit: the marginal sums depend on the
    layout of the values, not only on their bits."""
    rng = np.random.default_rng(SEED + 19)
    space, f = HilbertSpace.of(("s", 6), ("e", 8)), HilbertSpace.of(("f", 2))
    u = UnitaryOperator(space.tensor(f), haar_unitary(rng, 96))
    ch = dilation_channel(u, random_density(rng, f), (["s", "e"], ["f"]))

    def outputs(rho):
        rho = DensityMatrix(rho.space, rho.matrix)
        table = conditional_probabilities(ch, rho, SPLITS)
        gap = bayesian_propagation_check(ch, rho, SPLITS)
        system = parent_conditioned_probabilities(ch, rho, ["s"])
        return table, gap, system

    for _ in range(8):
        rho = random_density(rng, space)
        table, gap, system = outputs(rho)
        with monkeypatch.context() as patch:
            patch.setattr(ontic, "_kernel_table", per_table_kernel)
            ref_table, ref_gap, ref_system = outputs(rho)
        assert table.values.shape == (48, 48)
        for name in ("parent_indices", "column_indices", "splits"):
            assert getattr(table, name) == getattr(ref_table, name)
        assert np.array_equal(bits(table.values), bits(ref_table.values))
        assert np.array_equal(bits(np.array([gap])), bits(np.array([ref_gap])))
        assert np.array_equal(bits(system.values), bits(ref_system.values))


def kernel_stack_case(count: int):
    """A channel on s(2) e(3) dilated with a mixed ancilla, and a stack of
    `count` random unitary parents and group bases for the splits (e), (s)."""
    channel, _ = table_case()
    rng = np.random.default_rng(SEED + 20)

    def unitaries(d):
        return np.stack([haar_unitary(rng, d) for _ in range(count)])

    groups = [(("e",), unitaries(3)), (("s",), unitaries(2))]
    return channel(), unitaries(6), groups


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("flaw", ["none", "scaled", "nan"])
def test_the_kernel_stack_gets_the_table_by_table_verdict(flaw, where):
    """A stack with one flawed slice raises what constructing that slice's
    table raises; a clean stack gives tables equal to checked ones."""
    ch, parents, groups = kernel_stack_case(5)
    if flaw == "scaled":
        parents[where] *= 1.1
    elif flaw == "nan":
        parents[where, 1, 2] = np.nan
    splits = [["e"], ["s"]]
    out, amps = ch.out_space, ch.kraus[None] @ parents[:, None]
    if flaw != "none":
        with pytest.raises(ToleranceBreach) as expected:
            kernel_table_reference(out, amps[where], [(l, b[where]) for l, b in groups], splits)
        with pytest.raises(ToleranceBreach) as raised:
            ontic._kernel_table(out, amps, groups, splits)
        assert str(raised.value) == str(expected.value)
        return
    tables = ontic._kernel_table(out, amps, groups, splits)
    assert len(tables) == 5
    for table, ref in zip(tables, per_table_kernel(out, amps, groups, splits)):
        checked = ConditionalProbabilityTable(
            table.parent_indices, table.column_indices, table.values, table.splits
        )
        for t in (checked, ref):
            assert t.parent_indices == table.parent_indices
            assert t.column_indices == table.column_indices
            assert t.splits == table.splits == (("e",), ("s",))
            assert np.array_equal(bits(t.values), bits(table.values))
        assert table.values.strides == ref.values.strides
        assert not table.values.flags.writeable

