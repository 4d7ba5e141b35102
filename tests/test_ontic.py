"""Tests for canonical decompositions and conditional probability tables."""
import itertools
from functools import reduce

import numpy as np
import pytest

from onticsim import (
    CNOT,
    ConditionalProbabilityTable,
    DensityMatrix,
    HilbertSpace,
    OnticDecomposition,
    OnticEntry,
    UnitaryOperator,
    apply,
    basis_state,
    bayesian_propagation_check,
    conditional_probabilities,
    dilation_channel,
    embed_operator,
    maximally_mixed,
    ontic_decomposition,
    parent_conditioned_probabilities,
    partial_trace,
    psd_pairing_check,
    single_system_conditional,
    table_to_csv,
    table_to_json,
    unitary_channel,
)
from onticsim.errors import BadPartition, NotPSD, SpaceMismatch, ToleranceBreach

SEED = 20260816

QUBIT = HilbertSpace.of(("s", 2))
PAIR = HilbertSpace.of(("s", 2), ("e", 2))
THREE = HilbertSpace.of(("a", 2), ("b", 3), ("c", 2))
NAN_QUBIT = np.full((2, 2), np.nan, dtype=complex)


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
            lambda: OnticDecomposition(
                QUBIT,
                tuple(OnticEntry(np.nan, basis_state(QUBIT, i), False) for i in range(2)),
                (),
            ),
            ToleranceBreach,
        ),
        (lambda: psd_pairing_check(NAN_QUBIT, np.eye(2)), NotPSD),
    ],
    ids=["density_matrix", "table", "decomposition", "psd_pairing"],
)
def test_invariant_checks_reject_nan(build, error):
    with pytest.raises(error):
        build()


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
