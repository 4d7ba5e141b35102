"""Tests for the decoherence measurement model and its scaling diagnostics."""
import gc
import math
import weakref

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
from onticsim import measurement
from onticsim.measurement import _assign_outcomes
from onticsim.ontic import _quadratic_forms

import test_golden  # the golden cases; pytest puts tests/ on sys.path
from test_ontic import bits, count_calls

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
def test_pointer_overlap_refuses_values_outside_the_unit_interval(c, monkeypatch):
    """A zero rate over an infinite duration gives NaN; the out-of-range
    values are reachable only through a replaced overlap."""
    if math.isnan(c):
        model = default_model(gamma_a=0.0, dt=math.inf)
    else:
        model = default_model()
        monkeypatch.setattr(measurement, "exponential_overlap", lambda gamma, dt: c)
    with pytest.raises(ToleranceBreach):
        pointer_overlap(model, "apparatus")


def test_model_validation():
    for dim in (1, 2.5, math.inf):
        with pytest.raises(SpaceMismatch):
            default_model(subject_dim=dim)
    assert type(default_model(subject_dim=3.0).subject_dim) is int
    with pytest.raises(NotADistribution):
        default_model(n_a=-1)
    with pytest.raises(NotADistribution):
        default_model(gamma_a=-0.5)
    with pytest.raises(NotADistribution):
        default_model(gamma_e=math.inf)


@pytest.mark.parametrize("value", [math.nan, -1.0, "1", 1j, None], ids=str)
@pytest.mark.parametrize("which", ["gamma_a", "gamma_e", "dt"])
def test_model_refuses_rates_and_durations_that_are_not_non_negative_reals(which, value):
    with pytest.raises(NotADistribution):
        default_model(**{which: value})


def test_model_accepts_an_infinite_duration():
    model = default_model(dt=math.inf)
    assert pointer_overlap(model, "apparatus") == 0.0


@pytest.mark.parametrize("count", [1.5, math.inf, -math.inf, math.nan, None, "3"])
@pytest.mark.parametrize("which", ["n_a", "n_e"])
def test_model_refuses_factor_counts_that_are_not_integers(which, count):
    with pytest.raises(NotADistribution):
        default_model(**{which: count})


def test_model_accepts_integral_counts_of_any_numeric_type():
    model = default_model(n_a=4.0, n_e=np.int64(6))
    assert (model.n_a, model.n_e) == (4, 6)
    assert type(model.n_a) is int and type(model.n_e) is int


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
    # every entry's argmax is its own outcome: the argmax shortcut answers
    "argmax_bijective_d128": lambda: decohered_vectors(128, 100),
    # c = 1 leaves a pure state: its null-space eigenvectors' argmaxes collide
    "pure_c1_d16": lambda: decohered_vectors(16, 0),
}


@pytest.mark.parametrize("build", OUTCOME_CASES.values(), ids=OUTCOME_CASES.keys())
def test_outcome_matching_equals_pair_sort(build):
    vectors = build()
    assert _assign_outcomes(vectors) == reference_assign_outcomes(vectors)


def test_outcome_cases_take_both_paths():
    """The shortcut (argmaxes pairwise distinct) and the greedy pass both run."""
    def bijective(name):
        best = np.abs(OUTCOME_CASES[name]().T).argmax(axis=1)
        return len(set(best.tolist())) == best.size

    assert bijective("argmax_bijective_d128")
    assert not bijective("pure_c1_d16")


def born_check_per_vector(model, psi) -> float:
    """The Born check one contiguous eigenvector at a time, as a GEMV each."""
    report = simulate_measurement(model, psi)
    worst = 0.0
    for s, v in enumerate(report.decomposition.vectors.T.copy()):
        p = float(np.real(v.conjugate() @ report.rho_s.matrix @ v))
        worst = max(worst, abs(p - report.born_targets[report.outcome_of_entry[s]]))
    return worst


def test_born_check_is_one_batched_quadratic_form():
    """Bit for bit the batched form over every eigenvector column; the
    per-vector GEMV route agrees within 1e-15."""
    for d in (64, 128):
        amps = np.arange(1.0, d + 1.0)
        psi = PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))
        model = default_model(subject_dim=d, n_a=1, n_e=1, dt=0.05)
        report = simulate_measurement(model, psi)
        forms = _quadratic_forms(report.rho_s.matrix, report.decomposition.vectors)
        gaps = np.abs(forms - report.born_targets[list(report.outcome_of_entry)])
        check = born_conditional_check(model, psi)
        assert np.array_equal(bits(np.array([check])), bits(np.array([gaps.max()])))
        assert abs(check - born_check_per_vector(model, psi)) <= 1e-15


def test_doubling_factors_squares_the_overlap():
    small = simulate_measurement(default_model(n_a=5, n_e=5), lopsided_qubit())
    large = simulate_measurement(default_model(n_a=10, n_e=10), lopsided_qubit())
    assert large.overlap_apparatus == pytest.approx(small.overlap_apparatus**2, rel=1e-12)


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
# one report per state object
# ---------------------------------------------------------------------------

def random_sixteen() -> PureState:
    rng = np.random.default_rng(SEED + 3)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return PureState(SIXTEEN, amps / np.linalg.norm(amps))


def assert_same_bits(a, b) -> None:
    for x, y in [
        (a.rho_s.matrix, b.rho_s.matrix),
        (a.decomposition.probabilities, b.decomposition.probabilities),
        (a.decomposition.vectors, b.decomposition.vectors),
        (a.born_targets, b.born_targets),
        (np.array([a.max_born_deviation, a.max_offdiag, a.overlap_apparatus]),
         np.array([b.max_born_deviation, b.max_offdiag, b.overlap_apparatus])),
    ]:
        assert np.array_equal(bits(x), bits(y))
    assert a.outcome_of_entry == b.outcome_of_entry


def test_born_check_reuses_the_measurement_of_the_same_state(monkeypatch):
    psi = random_sixteen()
    model = default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    cholesky = count_calls(monkeypatch, "cholesky")
    report = simulate_measurement(model, psi)
    check = born_conditional_check(model, psi)
    assert simulate_measurement(model, psi) is report
    # the subject's state is admitted by its Cholesky certificate, without eigvalsh
    assert (len(eigh), len(eigvalsh), len(cholesky)) == (1, 0, 1)
    fresh = PureState(SIXTEEN, psi.amplitudes)
    again = simulate_measurement(model, fresh)
    assert again is not report
    assert_same_bits(report, again)
    assert born_conditional_check(model, fresh) == check
    assert (len(eigh), len(eigvalsh), len(cholesky)) == (2, 0, 2)


def test_report_arrays_are_read_only():
    report = simulate_measurement(default_model(), lopsided_qubit())
    with pytest.raises(ValueError):
        report.born_targets[0] = 0.5
    with pytest.raises(ValueError):
        report.rho_s.matrix[0, 0] = 0.5
    with pytest.raises(ValueError):
        report.decomposition.vectors[0, 0] = 0.5


def test_each_duration_gets_its_own_report():
    psi = lopsided_qubit()
    short = simulate_measurement(default_model(dt=0.25), psi)
    # an equal model built afresh meets the same report
    assert simulate_measurement(default_model(dt=0.25), psi) is short
    long = simulate_measurement(default_model(dt=0.5), psi)
    assert long is not short
    assert long.overlap_apparatus == pytest.approx(short.overlap_apparatus**2, rel=1e-12)


def test_sweep_leaves_at_most_one_report_on_the_state(monkeypatch):
    """Each N has its own overlaps, so a kept report per N would only pile up."""
    made = []

    def tracked(*args):
        report = original(*args)
        made.append(weakref.ref(report))
        return report

    original = measurement._measure
    monkeypatch.setattr(measurement, "_measure", tracked)
    psi = random_sixteen()
    model = default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    points = decoherence_scaling_sweep(model, psi, [0, 2, 4, 8, 16])
    gc.collect()
    alive = [ref() for ref in made if ref() is not None]
    assert len(made) == len(points) == 5
    assert len(alive) == 1
    # the one kept is the last N's, and a repeat of that N reuses it
    last = default_model(subject_dim=16, n_a=points[-1].n_a, n_e=points[-1].n_e, dt=0.3)
    assert simulate_measurement(last, psi) is alive[0]
    assert len(made) == 5


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_measure_scenario_writes_the_same_bytes_twice_in_one_process(fmt, tmp_path):
    first = test_golden.run_case("measure", fmt, tmp_path)
    second = test_golden.run_case("measure", fmt, tmp_path)
    assert first == second == (test_golden.GOLDEN / f"measure.{fmt}").read_bytes()


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


@pytest.mark.parametrize(
    "count", [math.nan, math.inf, -math.inf, 2.5, -1, -2.0, "4", None],
    ids=["nan", "inf", "-inf", "2.5", "-1", "-2.0", "str", "None"],
)
def test_sweep_refuses_factor_counts_that_are_not_non_negative_integers(count):
    with pytest.raises(NotADistribution):
        decoherence_scaling_sweep(default_model(n_a=1, n_e=1), lopsided_qubit(), [4, count])


@pytest.mark.parametrize("count, n", [(True, 1), (4.0, 4), (np.int64(6), 6), (np.float64(8.0), 8)])
def test_sweep_stores_each_integral_count_as_an_int(count, n):
    (point,) = decoherence_scaling_sweep(default_model(n_a=1, n_e=1), lopsided_qubit(), [count])
    assert type(point.n) is int and point.n == n
    assert type(point.n_a) is int and type(point.n_e) is int
    assert point.n_a + point.n_e == n


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
    for deviation in (math.nan, math.inf, 1.5):
        with pytest.raises(NotADistribution):
            error_entropy_bound(model, deviation)
    assert error_entropy_bound(model, 1.0).satisfied
    assert not error_entropy_bound(model, -0.0).satisfied


@pytest.mark.parametrize("deviation", [None, "0.1", 0.1j], ids=str)
def test_error_entropy_bound_refuses_deviations_that_are_not_real(deviation):
    with pytest.raises(NotADistribution):
        error_entropy_bound(default_model(), deviation)


def test_correlational_entropy_values():
    assert correlational_entropy([1.0, 0.0]) == 0.0
    assert abs(correlational_entropy([0.5, 0.5]) - math.log(2.0)) < 1e-15
    assert abs(correlational_entropy([0.7, 0.3]) - 0.6108643020548935) < 1e-15


def test_correlational_entropy_rejects_bad_distributions():
    with pytest.raises(NotADistribution):
        correlational_entropy([0.7, 0.4])
    with pytest.raises(NotADistribution):
        correlational_entropy([1.2, -0.2])
    with pytest.raises(NotADistribution, match="^probability sum defect 1.0 exceeds"):
        correlational_entropy([])
