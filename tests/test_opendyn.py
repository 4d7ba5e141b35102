"""Tests for conditioned channels and the nonlinearity witness."""
from fractions import Fraction

import numpy as np
import pytest

from onticsim import (
    CNOT,
    HADAMARD,
    PAULI_X,
    DensityMatrix,
    HilbertSpace,
    QuantumChannel,
    UnitaryOperator,
    apply,
    basis_state,
    bell_state,
    channel_distance,
    conditional_channel_given_env,
    maximally_mixed,
    nonlinearity_witness,
    ontic_decomposition,
    parent_conditioned_probabilities,
    partial_trace,
    tensor,
    unitary_channel,
    verify_cptp,
    werner_state,
    witness_pair_bell_vs_product,
    witness_pair_werner,
    witness_report_to_json,
)
from onticsim.errors import NotAProjector, NotAWitnessPair, SpaceMismatch

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


def env_projector(index: int) -> np.ndarray:
    p = np.zeros((2, 2), dtype=complex)
    p[index, index] = 1.0
    return p


# ---------------------------------------------------------------------------
# conditioned channels
# ---------------------------------------------------------------------------

def test_conditioning_identity_channel_gives_identity():
    ch = unitary_channel(UnitaryOperator(PAIR, np.eye(4)))
    conditioned = conditional_channel_given_env(ch, env_projector(0), SPLIT)
    ident = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    assert channel_distance(conditioned, ident) < 1e-14
    assert verify_cptp(conditioned).trace_preserving


def test_conditioning_factorized_channel_recovers_system_factor():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        u_s = haar_unitary(rng, 2)
        u_e = haar_unitary(rng, 2)
        ch = unitary_channel(UnitaryOperator(PAIR, np.kron(u_s, u_e)))
        direct = unitary_channel(UnitaryOperator(QUBIT, u_s))
        for e in (0, 1):
            conditioned = conditional_channel_given_env(ch, env_projector(e), SPLIT)
            assert channel_distance(conditioned, direct) < 1e-12


def test_conditioning_cnot_on_control_dephases():
    """Tracing the target kills control coherence: dephasing, not identity."""
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    dephase = QuantumChannel(
        QUBIT, QUBIT, (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    for e in (0, 1):
        conditioned = conditional_channel_given_env(ch, env_projector(e), SPLIT)
        assert channel_distance(conditioned, dephase) < 1e-14
        report = verify_cptp(conditioned)
        assert report.trace_preserving
        assert report.completely_positive


def test_conditioning_cnot_on_target_flips_per_configuration():
    """With the environment controlling, the system map is X^e conjugation."""
    swapped_cnot = np.zeros((4, 4))
    swapped_cnot[0, 0] = swapped_cnot[1, 3] = swapped_cnot[2, 2] = swapped_cnot[3, 1] = 1.0
    ch = unitary_channel(UnitaryOperator(PAIR, swapped_cnot))
    ident = unitary_channel(UnitaryOperator(QUBIT, np.eye(2)))
    flip = unitary_channel(UnitaryOperator(QUBIT, PAULI_X))
    got0 = conditional_channel_given_env(ch, env_projector(0), SPLIT)
    got1 = conditional_channel_given_env(ch, env_projector(1), SPLIT)
    assert channel_distance(got0, ident) < 1e-14
    assert channel_distance(got1, flip) < 1e-14


def test_conditioned_channels_are_cptp_fuzz():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        u = haar_unitary(rng, 4)
        ch = unitary_channel(UnitaryOperator(PAIR, u))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        conditioned = conditional_channel_given_env(ch, np.outer(v, v.conjugate()), SPLIT)
        assert isinstance(conditioned, QuantumChannel)
        report = verify_cptp(conditioned)
        assert report.trace_preserving
        assert report.completely_positive


def test_conditioning_validates_inputs():
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    with pytest.raises(NotAProjector):
        conditional_channel_given_env(ch, np.diag([0.5, 0.5]).astype(complex), SPLIT)
    with pytest.raises(NotAProjector):
        conditional_channel_given_env(ch, np.eye(2, dtype=complex), SPLIT)
    k0 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    rect = QuantumChannel(PAIR, QUBIT, (k0, k1))  # trace out the environment
    with pytest.raises(SpaceMismatch):
        conditional_channel_given_env(rect, env_projector(0), SPLIT)


# ---------------------------------------------------------------------------
# parent-conditioned probabilities
# ---------------------------------------------------------------------------

def test_parent_conditioned_identity_pattern():
    rng = np.random.default_rng(SEED + 3)
    rho = tensor(
        random_density(rng, QUBIT), random_density(rng, HilbertSpace.of(("e", 2)))
    )
    ch = unitary_channel(UnitaryOperator(PAIR, np.eye(4)))
    table = parent_conditioned_probabilities(ch, rho, ["s"])
    assert table.values.shape == (4, 2)
    assert np.max(np.abs(table.values.sum(axis=1) - 1.0)) < 1e-9
    # each parent configuration factorizes, so each row is deterministic
    assert np.allclose(np.sort(table.values, axis=1)[:, 0], 0.0, atol=1e-10)


def test_parent_conditioned_agrees_with_conditioned_channel_route():
    """For uncorrelated parents the two conditioning routes coincide."""
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        p_s = np.sort(rng.dirichlet((2.0, 2.0)))[::-1]
        p_e = np.sort(rng.dirichlet((2.0, 2.0)))[::-1]
        rho = tensor(
            DensityMatrix(QUBIT, np.diag(p_s).astype(complex)),
            DensityMatrix(HilbertSpace.of(("e", 2)), np.diag(p_e).astype(complex)),
        )
        ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
        table = parent_conditioned_probabilities(ch, rho, ["s"])
        parent = ontic_decomposition(rho)
        evolved_s = ontic_decomposition(partial_trace(apply(ch, rho), ["s"]))
        for r, w in enumerate(parent.vectors.T):
            amps = w.reshape(2, 2)
            weights = np.sum(np.abs(amps) ** 2, axis=0)
            e_index = int(np.argmax(weights))
            s_vec = amps[:, e_index] / np.linalg.norm(amps[:, e_index])
            conditioned = conditional_channel_given_env(ch, env_projector(e_index), SPLIT)
            proj = np.outer(s_vec, s_vec.conjugate())
            out = sum(k @ proj @ k.conjugate().T for k in conditioned.kraus)
            for c, v in enumerate(evolved_s.vectors.T):
                direct = float(np.real(np.vdot(v, out @ v)))
                assert abs(table.values[r, c] - direct) < 1e-10


# ---------------------------------------------------------------------------
# nonlinearity witness
# ---------------------------------------------------------------------------

def test_bell_versus_product_under_cnot():
    pair = witness_pair_bell_vs_product()
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    report = nonlinearity_witness(ch, pair.rho_1, pair.rho_2, pair.split)
    assert report.marginal_distance_before < 1e-12
    assert abs(report.reduced_distance_after - 0.5) < 1e-10


def test_bell_versus_product_under_factorized_channel():
    pair = witness_pair_bell_vs_product()
    dephase = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ch = QuantumChannel(
        PAIR, PAIR, tuple(np.kron(HADAMARD, k).astype(complex) for k in dephase)
    )
    report = nonlinearity_witness(ch, pair.rho_1, pair.rho_2, pair.split)
    assert report.reduced_distance_after < 1e-10


def test_werner_pairs_share_marginals():
    pair = witness_pair_werner(0.9, 0.2)
    assert pair.pair_id == "werner_0.9_0.2"
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    report = nonlinearity_witness(ch, pair.rho_1, pair.rho_2, pair.split)
    assert report.marginal_distance_before < 1e-12
    assert report.reduced_distance_after > 0.01


def test_witness_rejects_distinguishable_marginals():
    rho_1 = basis_state(PAIR, 0).density_matrix()
    rho_2 = maximally_mixed(PAIR)
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    with pytest.raises(NotAWitnessPair):
        nonlinearity_witness(ch, rho_1, rho_2, SPLIT)


def test_werner_state_validation():
    with pytest.raises(NotAWitnessPair):
        werner_state(1.5)
    rho = werner_state(0.5)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert witness_pair_werner(Fraction(1, 2), 0.2).pair_id == "werner_0.5_0.2"


@pytest.mark.parametrize("lam", ["0.5", None, 0.5j, np.nan], ids=str)
def test_werner_weights_that_are_not_reals_in_the_unit_interval_are_refused(lam):
    with pytest.raises(NotAWitnessPair):
        werner_state(lam)
    with pytest.raises(NotAWitnessPair):
        witness_pair_werner(lam, 0.2)
    with pytest.raises(NotAWitnessPair):
        witness_pair_werner(0.2, lam)


def test_witness_report_json_fields():
    pair = witness_pair_bell_vs_product()
    ch = unitary_channel(UnitaryOperator(PAIR, CNOT))
    report = nonlinearity_witness(ch, pair.rho_1, pair.rho_2, pair.split)
    payload = witness_report_to_json(report, "cnot", pair.pair_id)
    assert set(payload) == {"distance_before", "distance_after", "channel", "pair_id"}
    assert payload["pair_id"] == "bell_vs_product"
