"""Tests for the decoherence measurement model and its scaling diagnostics."""
import math

import numpy as np
import pytest

from onticsim import (
    DensityMatrix,
    HilbertSpace,
    MeasurementModel,
    PureState,
    born_conditional_check,
    correlational_entropy,
    decoherence_scaling_sweep,
    error_entropy_bound,
    exponential_overlap,
    maximally_mixed,
    ontic_decomposition,
    pointer_overlap,
    simulate_measurement,
)
from onticsim.errors import NotADistribution, SpaceMismatch, ToleranceBreach
from onticsim.measurement import _assign_outcomes

SEED = 20260816

QUBIT = HilbertSpace.of(("s", 2))
SIXTEEN = HilbertSpace.of(("s", 16))


def lopsided_qubit() -> PureState:
    return PureState(QUBIT, np.array([math.sqrt(0.7), math.sqrt(0.3)]))


def default_model(**overrides) -> MeasurementModel:
    kwargs = dict(subject_dim=2, n_a=10, n_e=10, gamma_a=1.0, gamma_e=1.0, dt=0.5)
    kwargs.update(overrides)
    return MeasurementModel(**kwargs)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def test_exponential_overlap_limits():
    assert exponential_overlap(3.0, 0.0) == 1.0
    assert exponential_overlap(1.0, 1.0) == math.exp(-1.0)
    assert exponential_overlap(2.0, 3.0) < exponential_overlap(2.0, 1.0)


def test_pointer_overlap_is_per_factor_product():
    model = default_model()
    c = math.exp(-0.5)
    assert abs(pointer_overlap(model, "apparatus") - c**10) < 1e-15
    assert abs(pointer_overlap(model, "environment") - c**10) < 1e-15


@pytest.mark.parametrize("c", [math.nan, -1e-3, 1.0 + 1e-6])
def test_pointer_overlap_refuses_values_outside_the_unit_interval(c):
    model = default_model(overlap_fn=lambda g, t: 1.0 if t == 0.0 else c)
    with pytest.raises(ToleranceBreach):
        pointer_overlap(model, "apparatus")


def test_model_validation():
    with pytest.raises(SpaceMismatch):
        default_model(subject_dim=1)
    with pytest.raises(NotADistribution):
        default_model(n_a=-1)
    with pytest.raises(NotADistribution):
        default_model(gamma_a=-0.5)
    with pytest.raises(ToleranceBreach):
        default_model(overlap_fn=lambda g, t: 0.9)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_zero_factor_measurement_keeps_full_coherence():
    """With no records the subject stays pure and no outcome is resolved."""
    report = simulate_measurement(default_model(n_a=0, n_e=0), lopsided_qubit())
    assert abs(report.max_offdiag - math.sqrt(0.21)) < 1e-15
    assert report.overlap_apparatus == 1.0
    # the lone configuration is the superposition itself, weight 1 vs 0.7
    assert abs(report.max_born_deviation - 0.3) < 1e-12


def test_measurement_offdiagonal_suppression_frozen():
    """Off-diagonal = |psi_1 psi_2| e^{-(N_A+N_E) gamma dt} at the defaults."""
    report = simulate_measurement(default_model(), lopsided_qubit())
    assert abs(report.max_offdiag - math.sqrt(0.21) * math.exp(-10.0)) < 1e-18
    assert report.max_offdiag == 2.0804861468226533e-05
    assert abs(report.max_born_deviation - 1.0821056828369535e-09) < 1e-21


def test_measurement_outcomes_are_bijective():
    report = simulate_measurement(default_model(), lopsided_qubit())
    assigned = [report.outcome_of_entry[k] for k in range(2)]
    assert sorted(assigned) == [0, 1]
    assert report.born_targets[report.outcome_of_entry[0]] == pytest.approx(0.7)


def reference_assign_outcomes(vectors: np.ndarray) -> tuple[int, ...]:
    """Greedy matching over every (entry, outcome) pair, sorted on
    (-overlap, entry, outcome)."""
    overlaps = np.abs(vectors.T)
    n, d = overlaps.shape
    pairs = sorted(
        ((s, m) for s in range(n) for m in range(d)),
        key=lambda sm: (-overlaps[sm[0], sm[1]], sm[0], sm[1]),
    )
    out: dict[int, int] = {}
    used: set[int] = set()
    for s, m in pairs:
        if s not in out and m not in used:
            out[s] = m
            used.add(m)
    return tuple(out[s] for s in range(n))


def sylvester_hadamard(d: int) -> np.ndarray:
    """d x d, every entry of modulus 1/sqrt(d) exactly: every overlap ties."""
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(d)


def decomposition_vectors(rho: DensityMatrix) -> np.ndarray:
    return ontic_decomposition(rho).vectors


def low_rank_vectors(d: int, rank: int) -> np.ndarray:
    rng = np.random.default_rng(SEED + d + rank)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conjugate().T
    return decomposition_vectors(DensityMatrix(HilbertSpace.of(("s", d)), m / np.trace(m)))


def haar_vectors(d: int) -> np.ndarray:
    rng = np.random.default_rng(SEED + d)
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def decohered_vectors(d: int, n: int) -> np.ndarray:
    amps = np.arange(1.0, d + 1.0)
    psi = PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))
    model = default_model(subject_dim=d, n_a=n, n_e=n, dt=0.05)
    return simulate_measurement(model, psi).decomposition.vectors


OUTCOME_CASES = {
    "identity_8": lambda: np.eye(8),
    "hadamard_4": lambda: sylvester_hadamard(4),
    "hadamard_64": lambda: sylvester_hadamard(64),
    "maximally_mixed_16": lambda: decomposition_vectors(maximally_mixed(SIXTEEN)),
    "rank1_d16": lambda: low_rank_vectors(16, 1),
    "rank2_d64": lambda: low_rank_vectors(64, 2),
    "haar_32": lambda: haar_vectors(32),
    "four_levels_32": lambda: np.random.default_rng(SEED).integers(0, 4, size=(32, 32)) / 4.0,
    "decohered_d5": lambda: decohered_vectors(5, 2),
    "decohered_d128": lambda: decohered_vectors(128, 3),
    "coherent_d128": lambda: decohered_vectors(128, 0),
}


@pytest.mark.parametrize("build", OUTCOME_CASES.values(), ids=OUTCOME_CASES.keys())
def test_outcome_matching_equals_pair_sort(build):
    vectors = build()
    assert _assign_outcomes(vectors) == reference_assign_outcomes(vectors)


def test_born_check_takes_each_quadratic_form_on_a_contiguous_vector():
    """Bit for bit: a strided column can take another BLAS path at d = 64."""
    d = 64
    amps = np.arange(1.0, d + 1.0)
    psi = PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))
    model = default_model(subject_dim=d, n_a=1, n_e=1, dt=0.05)
    report = simulate_measurement(model, psi)
    vecs = report.decomposition.vectors
    worst = 0.0
    for s, m in enumerate(report.outcome_of_entry):
        v = np.array(vecs[:, s])
        p = float(np.real(v.conjugate() @ report.rho_s.matrix @ v))
        worst = max(worst, abs(p - report.born_targets[m]))
    assert born_conditional_check(model, psi) == worst


def test_doubling_factors_squares_the_overlap():
    small = simulate_measurement(default_model(n_a=5, n_e=5), lopsided_qubit())
    large = simulate_measurement(default_model(n_a=10, n_e=10), lopsided_qubit())
    assert large.overlap_apparatus == pytest.approx(small.overlap_apparatus**2, rel=1e-12)


def test_overlap_phases_change_nothing_but_phases():
    model = default_model()
    phases = np.array([[0.0, 0.8], [-0.8, 0.0]])
    plain = simulate_measurement(model, lopsided_qubit())
    turned = simulate_measurement(model, lopsided_qubit(), overlap_phases=phases)
    assert abs(np.abs(turned.rho_s.matrix[0, 1]) - np.abs(plain.rho_s.matrix[0, 1])) < 1e-18
    assert np.allclose(np.diag(turned.rho_s.matrix), np.diag(plain.rho_s.matrix))


def test_measurement_rejects_wrong_state_dimension():
    psi = PureState(HilbertSpace.of(("s", 3)), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SpaceMismatch):
        simulate_measurement(default_model(), psi)


def test_born_check_agrees_with_report():
    """Quadratic-form route and eigenvalue route must see the same gap."""
    model = default_model()
    report = simulate_measurement(model, lopsided_qubit())
    check = born_conditional_check(model, lopsided_qubit())
    assert abs(check - report.max_born_deviation) < 1e-12


def test_born_deviation_is_second_order_in_overlap():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        dt = rng.uniform(2.0, 6.0)
        model = default_model(n_a=1, n_e=0, dt=dt)
        c = math.exp(-dt)
        report = simulate_measurement(model, lopsided_qubit())
        assert report.max_born_deviation < c
        assert report.max_born_deviation > 0.1 * c**2


# ---------------------------------------------------------------------------
# scaling sweep
# ---------------------------------------------------------------------------

def test_sweep_slope_matches_decay_rate():
    points = decoherence_scaling_sweep(
        default_model(n_a=1, n_e=1), lopsided_qubit(), [4, 8, 16, 32]
    )
    ns = np.array([pt.n for pt in points])
    logs = np.log([pt.max_offdiag for pt in points])
    slope = np.polyfit(ns, logs, 1)[0]
    assert abs(slope + 0.5) < 0.005


def test_sweep_preserves_factor_ratio():
    points = decoherence_scaling_sweep(
        default_model(n_a=3, n_e=1), lopsided_qubit(), [4, 8]
    )
    assert (points[0].n_a, points[0].n_e) == (3, 1)
    assert (points[1].n_a, points[1].n_e) == (6, 2)
    assert all(pt.n_a + pt.n_e == pt.n for pt in points)


# ---------------------------------------------------------------------------
# entropy bound
# ---------------------------------------------------------------------------

def test_error_entropy_bound_closed_forms():
    zero = error_entropy_bound(default_model(n_a=0), 0.5)
    assert zero.s_max == 0.0
    assert zero.bound == 1.0
    ten = error_entropy_bound(default_model(n_a=10), 1e-3)
    assert abs(ten.bound - 2.0**-10) < 1e-18
    assert abs(ten.s_max - 10 * math.log(2.0)) < 1e-15


def test_error_entropy_bound_satisfied_flag():
    model = default_model(n_a=10)
    at_floor = error_entropy_bound(model, 2.0**-10)
    assert at_floor.satisfied
    far_below = error_entropy_bound(model, 1e-9)
    assert not far_below.satisfied
    with pytest.raises(NotADistribution):
        error_entropy_bound(model, -1e-3)
    with pytest.raises(NotADistribution):
        error_entropy_bound(model, math.nan)
    assert not error_entropy_bound(model, -0.0).satisfied


def test_correlational_entropy_values():
    assert correlational_entropy([1.0, 0.0]) == 0.0
    assert abs(correlational_entropy([0.5, 0.5]) - math.log(2.0)) < 1e-15
    assert abs(correlational_entropy([0.7, 0.3]) - 0.6108643020548935) < 1e-15


def test_correlational_entropy_rejects_bad_distributions():
    with pytest.raises(NotADistribution):
        correlational_entropy([0.7, 0.4])
    with pytest.raises(NotADistribution):
        correlational_entropy([1.2, -0.2])
