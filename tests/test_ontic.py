"""Tests for canonical decompositions and conditional probability tables."""
import itertools
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import onticsim
from onticsim import (
    CNOT,
    SWAP,
    ConditionalProbabilityTable,
    CorrelationOperator,
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    MeasurementModel,
    OnticDecomposition,
    OnticEntry,
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
    correlational_entropy,
    dilation_channel,
    embed_operator,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    maximally_mixed,
    ontic_decomposition,
    parent_conditioned_probabilities,
    partial_trace,
    projector_factorization_check,
    psd_pairing_check,
    single_system_conditional,
    table_to_csv,
    table_to_json,
    unitary_channel,
)
from onticsim import tolerances as tol
from onticsim.errors import (
    BadInterval,
    BadPartition,
    NotADistribution,
    NotAProjector,
    NotPSD,
    NotUnitary,
    NothingToTrace,
    SpaceMismatch,
    ToleranceBreach,
    UnknownSubsystem,
)
from onticsim.qcore import _canonical_phase

SEED = 20260816

QUBIT = HilbertSpace.of(("s", 2))
PAIR = HilbertSpace.of(("s", 2), ("e", 2))
THREE = HilbertSpace.of(("a", 2), ("b", 3), ("c", 2))
NAN_QUBIT = np.full((2, 2), np.nan, dtype=complex)
NAN_PAIR = np.full((4, 4), np.nan, dtype=complex)


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


def direct_table(ch, rho, splits) -> np.ndarray:
    """Tr[(P_1(i1) (x) ... (x) P_n(in)) ch(P_w)] with every projector embedded."""
    evolved = apply(ch, rho)
    decs = [ontic_decomposition(partial_trace(evolved, group)) for group in splits]
    columns = [
        reduce(
            np.matmul,
            [
                embed_operator(dec.entries[i].projector, dec.source_space.labels, THREE)
                for dec, i in zip(decs, combo)
            ],
        )
        for combo in itertools.product(*[range(len(dec.entries)) for dec in decs])
    ]
    rows = [
        sum(k @ entry.projector @ k.conjugate().T for k in ch.kraus)
        for entry in ontic_decomposition(rho).entries
    ]
    return np.array([[np.trace(col @ row).real for col in columns] for row in rows])


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def test_decomposition_sorts_by_probability():
    rho = DensityMatrix(QUBIT, np.diag([0.3, 0.7]).astype(complex))
    dec = ontic_decomposition(rho)
    assert np.allclose(dec.probabilities, [0.7, 0.3])
    assert abs(dec.entries[0].state.amplitudes[1] - 1.0) < 1e-14
    assert not any(e.null for e in dec.entries)
    assert np.allclose(dec.reconstruct(), rho.matrix, atol=1e-12)


def test_decomposition_keeps_null_configurations():
    """Zero-probability eigenvectors stay in the list, flagged as null."""
    rho = DensityMatrix(HilbertSpace.of(("s", 3)), np.diag([0.7, 0.3, 0.0]).astype(complex))
    dec = ontic_decomposition(rho)
    assert len(dec.entries) == 3
    assert [e.null for e in dec.entries] == [False, False, True]
    assert dec.entries[2].probability == 0.0


def test_decomposition_reports_degeneracy_groups():
    dec = ontic_decomposition(maximally_mixed(QUBIT))
    assert dec.degeneracy_groups == ((0, 1),)
    pure = basis_state(QUBIT, 0).density_matrix()
    assert ontic_decomposition(pure).degeneracy_groups == ()


def test_decomposition_order_is_phase_independent():
    """Rebuilding the same state from rotated eigenvectors keeps the order."""
    rng = np.random.default_rng(SEED)
    rho = random_density(rng, HilbertSpace.of(("s", 3)))
    a = ontic_decomposition(rho)
    b = ontic_decomposition(DensityMatrix(rho.space, rho.matrix.copy()))
    for x, y in zip(a.entries, b.entries):
        assert np.allclose(x.state.amplitudes, y.state.amplitudes, atol=1e-12)


def test_decomposition_fuzz_reconstruction_and_orthonormality():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        rho = random_density(rng, HilbertSpace.of(("s", 4)))
        dec = ontic_decomposition(rho)
        assert np.allclose(dec.reconstruct(), rho.matrix, atol=1e-10)
        probs = dec.probabilities
        assert np.all(probs[:-1] >= probs[1:] - 1e-12)
        vecs = np.column_stack([e.state.amplitudes for e in dec.entries])
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
    rho = low_rank_density(np.random.default_rng(SEED + 13), 5, 2)
    dec = ontic_decomposition(rho)
    assert not dec.probabilities.flags.writeable
    assert not dec.vectors.flags.writeable
    entries = dec.entries
    assert all(isinstance(e, OnticEntry) for e in entries)
    assert [e.probability for e in entries] == dec.probabilities.tolist()
    assert [e.null for e in entries] == [False, False, True, True, True]
    for k, e in enumerate(entries):
        assert np.max(np.abs(e.state.amplitudes - dec.vectors[:, k])) <= 1e-15


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
            lambda: OnticDecomposition(QUBIT, np.array([np.nan, np.nan]), np.eye(2), ()),
            ToleranceBreach,
        ),
        (lambda: psd_pairing_check(NAN_QUBIT, np.eye(2)), NotPSD),
        (lambda: PureState(QUBIT, [np.nan, 0.0]), ToleranceBreach),
        (lambda: UnitaryOperator(QUBIT, NAN_QUBIT), NotUnitary),
        (lambda: UnitaryFamily(QUBIT, NAN_QUBIT), ToleranceBreach),
        (lambda: QuantumChannel(QUBIT, QUBIT, (NAN_QUBIT,)), ToleranceBreach),
        (lambda: CorrelationOperator(PAIR, ("s",), ("e",), NAN_PAIR), ToleranceBreach),
        (
            lambda: conditional_channel_given_env(
                unitary_channel(UnitaryOperator(PAIR, CNOT)), NAN_QUBIT, (["s"], ["e"])
            ),
            NotAProjector,
        ),
        (lambda: projector_factorization_check(NAN_PAIR, PAIR, (["s"], ["e"])), NotAProjector),
        (lambda: OnticTrajectory((0.0,), (0,), frames=(NAN_QUBIT,)), ToleranceBreach),
        (lambda: OnticTrajectory((0.0, np.nan, 1.0), (0, 0, 0)), BadInterval),
        (
            lambda: MarkovKernelChain((0.0, np.nan, 1.0), (kernel_from_matrix([[1.0]]),) * 2),
            BadInterval,
        ),
        (lambda: correlational_entropy([np.nan, 1.0]), NotADistribution),
        (lambda: MeasurementModel(2, 1, 1, np.nan, 1.0, 0.1), NotADistribution),
        (lambda: MeasurementModel(2, 1, 1, 1.0, np.nan, 0.1), NotADistribution),
        (lambda: MeasurementModel(2, 1, 1, 1.0, 1.0, np.nan), NotADistribution),
        (
            lambda: MeasurementModel(2, 1, 1, 1.0, 1.0, 0.1, overlap_fn=lambda g, t: np.nan),
            ToleranceBreach,
        ),
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
    ],
    ids=[
        "density_matrix", "table", "decomposition", "psd_pairing", "pure_state", "unitary",
        "unitary_family", "kraus_channel", "correlation_operator", "conditioning_projector",
        "factorization_projector", "trajectory_frames", "trajectory_times", "chain_times",
        "correlational_entropy", "measurement_gamma_a", "measurement_gamma_e",
        "measurement_dt", "measurement_overlap_fn", "repeated_interaction_step",
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
# PSD pairing
# ---------------------------------------------------------------------------

def test_psd_pairing_is_nonnegative_fuzz():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(25):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g @ g.conjugate().T
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = h @ h.conjugate().T
        assert psd_pairing_check(a, b) >= -1e-12


def test_psd_pairing_rejects_non_psd_inputs():
    with pytest.raises(NotPSD):
        psd_pairing_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotPSD):
        psd_pairing_check(np.diag([1.0, -0.5]), np.eye(2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_to_csv_shape():
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho = DensityMatrix(PAIR, np.diag([0.7, 0.0, 0.0, 0.3]).astype(complex))
    table = conditional_probabilities(ch, rho, (["s"], ["e"]))
    text = table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "w,i1,i2,p"
    assert len(lines) == 1 + 4 * 4
    assert lines[1] == "0,0,0,1.0"


def test_table_to_json_round_trip_fields():
    rng = np.random.default_rng(SEED + 7)
    rho = random_density(rng, QUBIT)
    ch = unitary_channel(UnitaryOperator(QUBIT, haar_unitary(rng, 2)))
    table = single_system_conditional(ch, rho)
    payload = table_to_json(table)
    assert payload["parent_indices"] == [0, 1]
    assert payload["splits"] == [["s"]]
    assert np.allclose(payload["values"], table.values)
