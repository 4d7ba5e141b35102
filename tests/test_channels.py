"""Tests for unitaries, Kraus channels, dilation, and composability probes."""
import numpy as np
import pytest
import scipy.linalg

import onticsim.channels
from onticsim import (
    CNOT,
    HADAMARD,
    PAULI_X,
    SWAP,
    SWAP_REFACTOR_TIME,
    DensityMatrix,
    HilbertSpace,
    PureState,
    QuantumChannel,
    UnitaryFamily,
    UnitaryOperator,
    apply,
    basis_state,
    channel_distance,
    channel_from_json,
    channel_to_json,
    choi_matrix,
    compose,
    conditional_channel_given_env,
    dilation_channel,
    entangling_cnot_family,
    factorized_family,
    maximally_mixed,
    semigroup_defect,
    swap_refactorizing_family,
    tensor,
    unitary_channel,
    verify_cptp,
)
from onticsim.errors import BadInterval, NotUnitary, SpaceMismatch, ToleranceBreach

SEED = 20260816

QUBIT = HilbertSpace.of(("s", 2))
PAIR = HilbertSpace.of(("s", 2), ("e", 2))
SPLIT = (["s"], ["e"])


def random_density(rng: np.random.Generator, space: HilbertSpace) -> DensityMatrix:
    d = space.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conjugate().T
    return DensityMatrix(space, m / np.trace(m))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# unitary operators and channels
# ---------------------------------------------------------------------------

def test_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        UnitaryOperator(QUBIT, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_identity_channel_leaves_states_alone():
    rng = np.random.default_rng(SEED)
    ch = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    rho = random_density(rng, QUBIT)
    assert np.allclose(apply(ch, rho).matrix, rho.matrix, atol=1e-14)


def test_pauli_x_channel_flips_basis():
    ch = unitary_channel(UnitaryOperator(QUBIT, PAULI_X))
    up = basis_state(QUBIT, 0).density_matrix()
    flipped = apply(ch, up)
    assert np.allclose(flipped.matrix, np.diag([0.0, 1.0]))


def test_hadamard_channel_makes_plus():
    ch = unitary_channel(UnitaryOperator(QUBIT, HADAMARD))
    up = basis_state(QUBIT, 0).density_matrix()
    plus = apply(ch, up)
    assert np.allclose(plus.matrix, np.full((2, 2), 0.5), atol=1e-14)


def test_channel_completeness_is_enforced():
    with pytest.raises(ToleranceBreach):
        QuantumChannel(QUBIT, QUBIT, (0.5 * np.eye(2, dtype=np.complex128),))


def test_kraus_operators_are_one_read_only_stack():
    ch = compose(
        unitary_channel(UnitaryOperator(QUBIT, HADAMARD)),
        unitary_channel(UnitaryOperator(QUBIT, PAULI_X)),
    )
    assert ch.kraus.shape == (1, 2, 2)
    assert not ch.kraus.flags.writeable
    with pytest.raises(SpaceMismatch):
        QuantumChannel(QUBIT, QUBIT, (np.eye(2), np.eye(3)))
    with pytest.raises(SpaceMismatch):
        QuantumChannel(QUBIT, QUBIT, ())


def test_construction_runs_no_choi_eigensolve(monkeypatch):
    """A Kraus set is completely positive by construction; only completeness
    is checked, so channels build with choi_matrix unavailable."""

    def forbidden(ch):
        raise AssertionError("choi_matrix called during construction")

    monkeypatch.setattr(onticsim.channels, "choi_matrix", forbidden)
    rng = np.random.default_rng(SEED + 7)
    u = UnitaryOperator(PAIR, haar_unitary(rng, 4))
    dilated = dilation_channel(u, random_density(rng, HilbertSpace.of(("e", 2))), SPLIT)
    composed = compose(dilated, dilated)
    env = basis_state(HilbertSpace.of(("e", 2)), 1).projector()
    conditioned = conditional_channel_given_env(unitary_channel(u), env, SPLIT).channel
    for ch in (dilated, composed, conditioned):
        assert ch.kraus.shape[1:] == (2, 2)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilation_of_identity_is_identity_channel():
    """The zero-duration limit: Kraus set sqrt(p_e) delta_ee' identity."""
    rng = np.random.default_rng(SEED + 1)
    env = random_density(rng, HilbertSpace.of(("e", 2)))
    u = UnitaryOperator(PAIR, np.eye(4))
    ch = dilation_channel(u, env, SPLIT)
    for k in ch.kraus:
        off = k - np.diag(np.diag(k))
        assert np.max(np.abs(off)) < 1e-14
        assert abs(k[0, 0] - k[1, 1]) < 1e-14
    ident = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    assert channel_distance(ch, ident) < 1e-12


def test_dilation_of_factorized_unitary_acts_as_system_unitary():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        u_s = haar_unitary(rng, 2)
        u_e = haar_unitary(rng, 2)
        env = random_density(rng, HilbertSpace.of(("e", 2)))
        ch = dilation_channel(UnitaryOperator(PAIR, np.kron(u_s, u_e)), env, SPLIT)
        direct = unitary_channel(UnitaryOperator(QUBIT, u_s))
        assert channel_distance(ch, direct) < 1e-12


def test_dilation_of_cnot_is_full_dephasing():
    """S-controlled CNOT with env |0><0| has Kraus diag(1,0), diag(0,1)."""
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    ch = dilation_channel(UnitaryOperator(PAIR, CNOT), env, SPLIT)
    dephase = QuantumChannel(
        QUBIT, QUBIT, (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    assert channel_distance(ch, dephase) < 1e-14
    plus = PureState(QUBIT, np.array([1.0, 1.0]) / np.sqrt(2)).density_matrix()
    assert np.allclose(apply(ch, plus).matrix, np.eye(2) / 2, atol=1e-14)


def test_dilation_env_state_must_live_on_env_factors():
    env_wrong = maximally_mixed(HilbertSpace.of(("x", 2)))
    with pytest.raises(SpaceMismatch):
        dilation_channel(UnitaryOperator(PAIR, np.eye(4)), env_wrong, SPLIT)


def test_conditioning_a_unitary_is_its_dilation():
    """Both routes are the one reduction Tr_E[U (X (x) P_E) U^dag], here with
    the environment factor in the middle of the parent."""
    rng = np.random.default_rng(SEED + 8)
    space = HilbertSpace.of(("a", 2), ("e", 3), ("b", 2))
    split = (["a", "b"], ["e"])
    u = UnitaryOperator(space, haar_unitary(rng, space.total_dim))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    p_e = PureState(HilbertSpace.of(("e", 3)), v / np.linalg.norm(v)).projector()
    conditioned = conditional_channel_given_env(unitary_channel(u), p_e, split)
    dilated = dilation_channel(u, DensityMatrix(HilbertSpace.of(("e", 3)), p_e), split)
    assert channel_distance(conditioned.channel, dilated) < 1e-12
    # one operator per output direction of e: the rounding-level eigenvalues
    # of the rank-one P_E contribute none
    assert len(conditioned.channel.kraus) == 3


def test_dilation_is_cptp_for_random_parents():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        u = haar_unitary(rng, 4)
        env = random_density(rng, HilbertSpace.of(("e", 2)))
        ch = dilation_channel(UnitaryOperator(PAIR, u), env, SPLIT)
        report = verify_cptp(ch)
        assert report.trace_preserving
        assert report.completely_positive


# ---------------------------------------------------------------------------
# composition, Choi, distance
# ---------------------------------------------------------------------------

def test_compose_matches_unitary_product():
    rng = np.random.default_rng(SEED + 4)
    u1 = haar_unitary(rng, 2)
    u2 = haar_unitary(rng, 2)
    chained = compose(
        unitary_channel(UnitaryOperator(QUBIT, u2)),
        unitary_channel(UnitaryOperator(QUBIT, u1)),
    )
    direct = unitary_channel(UnitaryOperator(QUBIT, u2 @ u1))
    assert channel_distance(chained, direct) < 1e-13


def test_compose_rejects_space_mismatch():
    a = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    b = unitary_channel(UnitaryOperator(HilbertSpace.of(("s", 3)), np.eye(3)))
    with pytest.raises(SpaceMismatch):
        compose(a, b)


def test_choi_of_unitary_channel_is_rank_one():
    ch = unitary_channel(UnitaryOperator(QUBIT, HADAMARD))
    evals = np.linalg.eigvalsh(choi_matrix(ch))
    assert np.allclose(evals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_verify_cptp_flags_broken_kraus():
    ch = QuantumChannel(QUBIT, QUBIT, (0.5 * np.eye(2, dtype=complex),), validate=False)
    report = verify_cptp(ch)
    assert not report.trace_preserving
    assert report.completeness_defect == 0.75
    assert report.completely_positive


def test_channel_distance_identity_versus_flip():
    ident = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    flip = unitary_channel(UnitaryOperator(QUBIT, PAULI_X))
    assert abs(channel_distance(ident, flip) - 1.0) < 1e-14
    assert channel_distance(ident, ident) == 0.0


# ---------------------------------------------------------------------------
# unitary families
# ---------------------------------------------------------------------------

def test_family_at_zero_is_identity():
    family = entangling_cnot_family()
    assert np.allclose(family.at(0.0).matrix, np.eye(4), atol=1e-14)


def test_family_matches_expm():
    rng = np.random.default_rng(SEED + 5)
    for dim in (2, 3, 4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conjugate().T) / 2
        family = UnitaryFamily(HilbertSpace.of(("s", dim)), h)
        for t in (0.3, 1.7):
            direct = scipy.linalg.expm(-1j * h * t)
            assert np.max(np.abs(family.at(t).matrix - direct)) < 1e-12


def test_family_group_law():
    family = swap_refactorizing_family()
    u = family.at(0.4).matrix @ family.at(0.9).matrix
    assert np.max(np.abs(u - family.at(1.3).matrix)) < 1e-12


# ---------------------------------------------------------------------------
# semigroup defect
# ---------------------------------------------------------------------------

def _plus_probe() -> DensityMatrix:
    return PureState(QUBIT, np.array([1.0, 1.0]) / np.sqrt(2)).density_matrix()


def _ground_env() -> DensityMatrix:
    return basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()


def test_semigroup_defect_vanishes_for_factorized_family():
    defect = semigroup_defect(factorized_family(), _ground_env(), SPLIT, 0.6, 1.3, _plus_probe())
    assert defect <= 1e-10


def test_semigroup_defect_vanishes_when_cut_at_refactor_time():
    """Cutting where the parent state is a product restores composability."""
    defect = semigroup_defect(
        swap_refactorizing_family(),
        _ground_env(),
        SPLIT,
        SWAP_REFACTOR_TIME,
        SWAP_REFACTOR_TIME + 0.6,
        _plus_probe(),
    )
    assert defect <= 1e-8


def test_semigroup_defect_nonzero_for_generic_swap_cut():
    defect = semigroup_defect(
        swap_refactorizing_family(),
        _ground_env(),
        SPLIT,
        SWAP_REFACTOR_TIME / 2,
        SWAP_REFACTOR_TIME,
        _plus_probe(),
    )
    assert defect > 0.01


def test_semigroup_defect_of_entangling_family():
    defect = semigroup_defect(
        entangling_cnot_family(), _ground_env(), SPLIT, 0.6, 1.3, _plus_probe()
    )
    assert abs(defect - 0.1818763341633594) < 1e-12


def test_semigroup_defect_rejects_bad_interval():
    with pytest.raises(BadInterval):
        semigroup_defect(factorized_family(), _ground_env(), SPLIT, 1.3, 0.6, _plus_probe())
    with pytest.raises(BadInterval):
        semigroup_defect(factorized_family(), _ground_env(), SPLIT, 0.0, 0.6, _plus_probe())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_channel_json_round_trip():
    rng = np.random.default_rng(SEED + 6)
    env = random_density(rng, HilbertSpace.of(("e", 2)))
    ch = dilation_channel(UnitaryOperator(PAIR, haar_unitary(rng, 4)), env, SPLIT)
    back = channel_from_json(channel_to_json(ch))
    assert back.in_space == ch.in_space
    assert channel_distance(back, ch) == 0.0


def test_channel_json_without_validation_admits_broken_sets():
    broken = QuantumChannel(QUBIT, QUBIT, (0.5 * np.eye(2, dtype=complex),), validate=False)
    payload = channel_to_json(broken)
    with pytest.raises(ToleranceBreach):
        channel_from_json(payload)
    loaded = channel_from_json(payload, validate=False)
    assert not verify_cptp(loaded).trace_preserving
