"""Tests for the decoherence measurement model and its scaling diagnostics."""
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from onticsim import (
    SWAP,
    DensityMatrix,
    HilbertSpace,
    MeasurementModel,
    PureState,
    basis_state,
    born_conditional_check,
    conditional_probabilities,
    decoherence_scaling_sweep,
    error_entropy_bound,
    exponential_overlap,
    markov_chain_from_repeated_interaction,
    maximally_mixed,
    ontic_decomposition,
    pointer_overlap,
    simulate_measurement,
)
from onticsim.errors import NotADistribution, SpaceMismatch, ToleranceBreach
from onticsim import measurement, ontic
from onticsim import tolerances as tol
from onticsim.measurement import _assign_outcomes
from onticsim.ontic import _quadratic_forms

import test_golden  # the golden cases; pytest puts tests/ on sys.path
from test_ontic import bits, count_calls, random_density, three_factor_case

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
    """No model's overlap leaves [0, 1]; these values are reachable only
    through a replaced overlap."""
    model = default_model()
    monkeypatch.setattr(measurement, "exponential_overlap", lambda gamma, dt: c)
    with pytest.raises(ToleranceBreach):
        pointer_overlap(model, "apparatus")


def test_a_zero_rate_keeps_overlap_one_over_an_infinite_duration():
    """exp(-0 * inf) is NaN; a keeper with a zero rate records nothing, so its
    overlap is 1 at every duration, and the model measures."""
    assert exponential_overlap(0.0, math.inf) == exponential_overlap(0, math.inf) == 1.0
    assert exponential_overlap(0.0, 7.0) == 1.0
    assert exponential_overlap(1.0, math.inf) == 0.0
    for n_a in (0, 3):
        model = default_model(gamma_a=0.0, n_a=n_a, dt=math.inf)
        assert pointer_overlap(model, "apparatus") == 1.0
        assert pointer_overlap(model, "environment") == 0.0
        report = simulate_measurement(model, lopsided_qubit())
        assert (report.overlap_apparatus, report.overlap_environment) == (1.0, 0.0)
        assert report.max_offdiag == 0.0
        assert report.max_born_deviation <= 1e-15
    untouched = default_model(gamma_a=0.0, gamma_e=0.0, dt=math.inf)
    coherent = simulate_measurement(untouched, lopsided_qubit())
    assert abs(coherent.max_offdiag - math.sqrt(0.21)) < 1e-15


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


def test_counts_beyond_the_float_range_are_refused():
    """Overlaps and entropy floors take a factor count as a float, so a count
    above the largest float is refused, as a model field and as a sweep
    count; one at that bound is measured."""
    huge = 10**400
    for which in ("n_a", "n_e"):
        with pytest.raises(NotADistribution, match="the largest float"):
            default_model(**{which: huge})
    with pytest.raises(NotADistribution, match="the largest float"):
        decoherence_scaling_sweep(default_model(), lopsided_qubit(), [4, huge])
    top = int(np.finfo(float).max)
    model = default_model(n_a=top, n_e=top)
    assert simulate_measurement(model, lopsided_qubit()).max_offdiag == 0.0
    assert error_entropy_bound(model, 0.1).bound == 0.0
    assert decoherence_scaling_sweep(default_model(), lopsided_qubit(), [top])[0].n == top


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
    # a sweep refuses count by count, in order, as per-count measurements did
    with pytest.raises(SpaceMismatch):
        decoherence_scaling_sweep(default_model(), psi, [4, math.nan])
    with pytest.raises(NotADistribution):
        decoherence_scaling_sweep(default_model(), psi, [math.nan, 4])
    assert decoherence_scaling_sweep(default_model(), psi, []) == []


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
# the real form: one real symmetric eigh per measurement stack
# ---------------------------------------------------------------------------

REAL_FORM_OVERLAPS = [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-12]
MODULI = ("random", "zeros", "tied")


def phased_state(d: int, moduli: str) -> PureState:
    """Uniformly random phases on moduli that are random, random with every
    third one from the second on exactly 0, or tied in pairs (1, 1, 2, 2, ...)."""
    rng = np.random.default_rng([SEED, d, MODULI.index(moduli)])
    if moduli == "tied":
        mod = np.arange(d) // 2 + 1.0
    else:
        mod = rng.uniform(0.1, 1.0, d)
        if moduli == "zeros":
            mod[1::3] = 0.0
    amps = mod * np.exp(2j * np.pi * rng.random(d))
    return PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))


@pytest.mark.parametrize("moduli", MODULI)
@pytest.mark.parametrize("d", [2, 3, 16, 64, 128, 300])
def test_the_real_form_has_the_spectrum_of_the_complex_state(d, moduli):
    """psi psi^dag o (c J + (1 - c) I) is Phi R Phi^dag, with Phi the diagonal
    unitary of psi's phases (1 where psi_i = 0) and R real symmetric.  The
    probabilities solved from R are the complex state's eigenvalues within
    4 d eps, and each rotated eigenvector is an eigenvector of the complex
    state within the same bound."""
    psi = phased_state(d, moduli)
    assert (moduli == "zeros") == (np.count_nonzero(psi.amplitudes == 0) > 0)
    eps = np.finfo(float).eps
    for report in measurement._measure(psi, [(c, 1.0) for c in REAL_FORM_OVERLAPS]):
        rho = report.rho_s.matrix
        complex_solve = np.sort(np.clip(np.linalg.eigh(rho)[0], 0.0, 1.0))
        real_solve = np.sort(report.decomposition.probabilities)
        assert np.abs(real_solve - complex_solve).max() <= 4 * d * eps
        vecs, probs = report.decomposition.vectors, report.decomposition.probabilities
        assert np.abs(rho @ vecs - vecs * probs).max() <= 4 * d * eps


def test_a_real_qubit_has_the_bits_of_the_complex_eigenvalues():
    """At d = 2 with real psi of either sign pattern, R's eigenvalues are the
    complex eigh's bit for bit, and so are the reported probabilities."""
    rng = np.random.default_rng(SEED + 2)
    overlaps = np.array(REAL_FORM_OVERLAPS)
    for amps in [np.array([math.sqrt(0.7), math.sqrt(0.3)]), *rng.standard_normal((40, 2))]:
        psi = PureState(QUBIT, amps / np.linalg.norm(amps))
        reports = measurement._measure(psi, [(c, 1.0) for c in REAL_FORM_OVERLAPS])
        states = np.stack([report.rho_s.matrix for report in reports])
        complex_evals = np.linalg.eigh(states)[0]
        assert np.array_equal(bits(measurement._real_form(psi.amplitudes, overlaps)[0]),
                              bits(complex_evals))
        probs = np.stack([report.decomposition.probabilities for report in reports])
        assert np.array_equal(bits(probs), bits(np.clip(complex_evals, 0.0, 1.0)[:, ::-1]))


def test_a_measurement_is_one_real_eigh(monkeypatch):
    """A measurement, and a sweep block, solves one float64 stack: one eigh,
    no eigvalsh and no Cholesky."""
    solved, original = [], np.linalg.eigh

    def recorded(matrices):
        solved.append((matrices.dtype, matrices.shape))
        return original(matrices)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    eigvalsh, cholesky = count_calls(monkeypatch, "eigvalsh"), count_calls(monkeypatch, "cholesky")
    model = default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    simulate_measurement(model, random_sixteen())
    decoherence_scaling_sweep(model, random_sixteen(), list(range(1, 65)))
    assert solved == [(np.float64, (1, 16, 16)), (np.float64, (64, 16, 16))]
    assert (eigvalsh, cholesky) == ([], [])


@pytest.mark.parametrize("moduli", MODULI)
@pytest.mark.parametrize("d", [2, 3, 16, 64, 128, 300])
def test_the_real_gauge_defects_match_the_complex_ones(d, moduli):
    """Orthonormality and drift taken in the real gauge, on Q and on
    Phi (Q p Q^T) Phi^dag against the complex states, read within 4 d eps of
    the defects of the reported complex eigenvectors V, V^dag V - I and
    V p V^dag - rho, each matrix on its own.  With `_gauge_rounding` added they never read below
    those, so the real-gauge checks refuse every state the complex ones did,
    at the same bound."""
    psi = phased_state(d, moduli)
    eps = np.finfo(float).eps
    overlaps = np.array(REAL_FORM_OVERLAPS)
    reports = measurement._measure(psi, [(c, 1.0) for c in overlaps])
    states = np.stack([report.rho_s.matrix for report in reports])
    vecs = np.stack([report.decomposition.vectors for report in reports])
    probs = np.stack([report.decomposition.probabilities for report in reports])
    # the complex checks' own formulas, over the stack
    rebuilt = (vecs * probs[:, None, :]) @ vecs.conjugate().swapaxes(1, 2)
    drifts = np.abs(rebuilt - states).max(axis=(1, 2))
    evals, rotations, phases = measurement._real_form(psi.amplitudes, overlaps)
    clipped = np.clip(evals, 0.0, 1.0)
    for k in range(len(overlaps)):
        one = slice(k, k + 1)
        gauge = ontic._real_gauge_defects(
            states[one], clipped[one], rotations[one], phases, np.empty_like(states[one])
        )
        for complex_defect, real_defect in zip((tol.isometry_defect(vecs[k]), drifts[k]), gauge):
            assert abs(complex_defect - real_defect) <= 4 * d * eps
            assert complex_defect <= real_defect + ontic._gauge_rounding(d)


def test_the_real_gauge_refuses_what_the_complex_checks_refused(monkeypatch):
    """An eigenvector 1e-9 off unit norm is refused as before, and so are
    states moved 2e-10 off the closed form their real form solves: the drift
    is taken against them.  (A NaN overlap is still refused at admission,
    before any solve, as the NaN test below pins.)"""
    psi, model = random_sixteen(), default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    original = np.linalg.eigh

    def skewed(matrices):
        evals, vecs = original(matrices)
        vecs[..., 0] *= 1.0 + 1e-9
        return evals, vecs

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(ToleranceBreach, match="^eigenvector orthonormality defect"):
        simulate_measurement(model, psi)
    with pytest.raises(ToleranceBreach, match="^eigenvector orthonormality defect"):
        decoherence_scaling_sweep(model, psi, list(range(1, 65)))
    monkeypatch.setattr(np.linalg, "eigh", original)
    amps, overlaps = psi.amplitudes, np.array([0.5, 1e-3, 1e-9])
    states = measurement._decohered(amps, amps.conjugate(), overlaps)
    states[:, 0, 1] += 2e-10
    states[:, 1, 0] += 2e-10
    with pytest.raises(ToleranceBreach, match="^reconstruction drift"):
        ontic._decompositions(SIXTEEN, states, lambda: measurement._real_form(amps, overlaps))


def test_each_path_checks_its_eigenvectors_in_its_own_gauge(monkeypatch):
    """A measurement and a 64-count sweep block check orthonormality once, on
    the float64 stack Q; a density matrix, a table and a chain check their
    complex eigenvectors as before."""
    model = default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    channel, parent = three_factor_case()
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    rho = random_density(np.random.default_rng(SEED + 4), SIXTEEN)
    checked, original = [], tol.isometry_defect

    def recorded(v):
        checked.append((v.dtype, v.shape))
        return original(v)

    monkeypatch.setattr(tol, "isometry_defect", recorded)
    simulate_measurement(model, random_sixteen())
    decoherence_scaling_sweep(model, random_sixteen(), list(range(1, 65)))
    assert checked == [(np.float64, (1, 16, 16)), (np.float64, (64, 16, 16))]
    for run in (
        lambda: ontic_decomposition(rho),
        lambda: conditional_probabilities(channel, parent, [["a"], ["b", "c"]]),
        lambda: markov_chain_from_repeated_interaction(SWAP, env, maximally_mixed(QUBIT), 0.3, 4),
    ):
        checked.clear()
        run()
        assert checked and {dtype for dtype, _ in checked} == {np.dtype(np.complex128)}


# ---------------------------------------------------------------------------
# the secular solve: the real form from the crossover dimension up
# ---------------------------------------------------------------------------

SECULAR_OVERLAPS = [0.0, 1e-12, 1e-8, 1e-4, 0.1, 0.9, 1.0]
SECULAR_MODULI = ("random", "zeros", "tied", "near-tied")


def secular_state(d: int, moduli: str) -> PureState:
    """phased_state's random or zero moduli, tied_state's exact ties, or
    phased_state's ties, which np.hypot leaves tied only to their last bits."""
    if moduli == "tied":
        return tied_state(d)
    return phased_state(d, "tied" if moduli == "near-tied" else moduli)


SECULAR_CASES = [
    *((d, moduli, SECULAR_OVERLAPS)
      for d in sorted({measurement._SECULAR_DIM, 128, 300}) for moduli in SECULAR_MODULI),
    (1024, "near-tied", [0.0, 1e-4, 1.0]),
    (2048, "random", [0.1]),
]


@pytest.mark.parametrize(
    "d, moduli, overlaps", SECULAR_CASES, ids=[f"{d}-{m}-{len(c)}" for d, m, c in SECULAR_CASES]
)
def test_the_secular_solve_matches_lapack(d, moduli, overlaps):
    """From the crossover up R is solved by its secular equation, with no
    special case at c = 0 or 1: its eigenvalues are LAPACK's within 4 d eps,
    with zero, tied and near-tied moduli, which deflate, and the block passes
    every check `_spectra` makes, at its usual bounds."""
    psi = secular_state(d, moduli)
    moduli_bits = bits(np.sort(np.hypot(psi.amplitudes.real, psi.amplitudes.imag)))
    ties = np.count_nonzero(moduli_bits[1:] == moduli_bits[:-1])
    neighbours = np.count_nonzero(moduli_bits[1:] - moduli_bits[:-1] <= 4)
    assert (ties > 0, neighbours > ties) == {
        "random": (False, False), "zeros": (True, False), "tied": (True, False),
        "near-tied": (True, True)}[moduli]
    amps, eps = psi.amplitudes, np.finfo(float).eps
    overlaps = np.array(overlaps)
    solved = []

    def eigensystem():
        solved.append(measurement._real_form(amps, overlaps))
        return solved[-1]

    states = measurement._decohered(amps, amps.conjugate(), overlaps)
    ontic._decompositions(psi.space, states, eigensystem)
    moduli = np.hypot(amps.real, amps.imag)
    real = measurement._decohered(moduli, moduli, overlaps)
    assert np.abs(solved[0][0] - np.linalg.eigh(real)[0]).max() <= 4 * d * eps


def test_a_measurement_from_the_crossover_up_makes_no_eigh(monkeypatch):
    """At the crossover dimension a measurement, its Born check and a sweep
    block (c = 1 at count 0, c = 0 at 2000) run no LAPACK eigensolve."""
    d = measurement._SECULAR_DIM
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    cholesky = count_calls(monkeypatch, "cholesky")
    model = default_model(subject_dim=d, n_a=2, n_e=3, dt=0.3)
    psi = secular_state(d, "random")
    simulate_measurement(model, psi)
    born_conditional_check(model, psi)
    decoherence_scaling_sweep(model, secular_state(d, "zeros"), [0, 1, 2, 2000])
    assert (eigh, eigvalsh, cholesky) == ([], [], [])


def test_only_the_lapack_solve_builds_r(monkeypatch):
    """A measurement builds its dense states and, below the crossover, the
    stack R that LAPACK's eigh solves: two dense stacks at d = 16 and 64.  From
    the crossover up the secular solve builds no R: one stack at d = 96 and
    128, and one for a sweep block at d = 128 (4 states of 2^14 entries)."""
    built = count_calls_in(monkeypatch, measurement, "_decohered")
    for d in (16, 64, 96, 128):
        built.clear()
        model = default_model(subject_dim=d, n_a=2, n_e=3, dt=0.3)
        simulate_measurement(model, phased_state(d, "random"))
        assert len(built) == (2 if d < measurement._SECULAR_DIM else 1)
    built.clear()
    made = collect_reports(monkeypatch)
    decoherence_scaling_sweep(model, phased_state(128, "random"), [1, 2, 3, 4])
    assert len(made) == 4 and measurement._BLOCK_ENTRIES // 128**2 == 4
    assert len(built) == 1


def test_the_secular_solve_refuses_what_the_checks_refuse(monkeypatch):
    """At d = 128, on the secular path: eigenvectors 1e-9 off unit norm are
    refused, states moved 2e-10 off the closed form their real form solves are
    refused by the drift, and a NaN overlap is refused at admission, before any
    secular solve runs.  No LAPACK eigensolve runs."""
    d = 128
    assert d >= measurement._SECULAR_DIM
    eigh = count_calls(monkeypatch, "eigh")
    psi, model = phased_state(d, "random"), default_model(subject_dim=d, n_a=2, n_e=3, dt=0.3)
    original = measurement._secular_eigh

    def skewed(moduli, c, q):
        values = original(moduli, c, q)
        q[:, 0] *= 1.0 + 1e-9
        return values

    monkeypatch.setattr(measurement, "_secular_eigh", skewed)
    with pytest.raises(ToleranceBreach, match="^eigenvector orthonormality defect"):
        simulate_measurement(model, psi)
    with pytest.raises(ToleranceBreach, match="^eigenvector orthonormality defect"):
        decoherence_scaling_sweep(model, psi, [1, 2, 3, 4])
    monkeypatch.setattr(measurement, "_secular_eigh", original)
    amps, overlaps = psi.amplitudes, np.array([0.5, 1e-3, 1e-9])
    states = measurement._decohered(amps, amps.conjugate(), overlaps)
    states[:, 0, 1] += 2e-10
    states[:, 1, 0] += 2e-10
    with pytest.raises(ToleranceBreach, match="^reconstruction drift"):
        ontic._decompositions(psi.space, states, lambda: measurement._real_form(amps, overlaps))
    solves = count_calls_in(monkeypatch, measurement, "_secular_eigh")
    monkeypatch.setattr(measurement, "pointer_overlap", lambda model, which: math.nan)
    with pytest.raises(ToleranceBreach, match=r"^Hermiticity defect nan exceeds 1e-12$"):
        simulate_measurement(model, phased_state(d, "random"))
    with pytest.raises(ToleranceBreach, match=r"^Hermiticity defect nan exceeds 1e-12$"):
        decoherence_scaling_sweep(model, phased_state(d, "random"), [2, 4])
    assert solves == [] and eigh == []


def test_the_secular_solve_keeps_the_outcomes_of_lapack(monkeypatch):
    """On 200 inputs drawn as `measure_d128` draws them, the greedy outcome
    matching gives each entry the outcome it gets from LAPACK's eigenvectors,
    and the Born deviations agree within 4 d eps."""
    d, eps = 128, np.finfo(float).eps
    space = HilbertSpace.of(("s", d))
    rng = np.random.default_rng(SEED + 32)
    for _ in range(200):
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        model = MeasurementModel(
            subject_dim=d, n_a=int(rng.integers(4, 9)), n_e=int(rng.integers(8, 17)),
            gamma_a=1.0, gamma_e=1.0, dt=float(rng.uniform(0.4, 0.7)),
        )
        amps /= np.linalg.norm(amps)
        monkeypatch.setattr(measurement, "_SECULAR_DIM", d)
        secular = simulate_measurement(model, PureState(space, amps))
        monkeypatch.setattr(measurement, "_SECULAR_DIM", d + 1)
        lapack = simulate_measurement(model, PureState(space, amps))
        assert secular.outcome_of_entry == lapack.outcome_of_entry
        assert abs(secular.max_born_deviation - lapack.max_born_deviation) <= 4 * d * eps


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
    # the subject's state takes its positivity verdict from the eigh that decomposes it
    assert (len(eigh), len(eigvalsh), len(cholesky)) == (1, 0, 0)
    fresh = PureState(SIXTEEN, psi.amplitudes)
    again = simulate_measurement(model, fresh)
    assert again is not report
    assert_same_bits(report, again)
    assert born_conditional_check(model, fresh) == check
    assert (len(eigh), len(eigvalsh), len(cholesky)) == (2, 0, 0)


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
        reports = original(*args)
        made.extend(map(weakref.ref, reports))
        return reports

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


def tied_state(d: int) -> PureState:
    """Moduli 1, 1, 2, 2, ...: once the overlap underflows to 0 the state is
    diagonal with exact ties, so the decomposition's lexsort tie-break runs."""
    rng = np.random.default_rng(SEED + d)
    # phases from {1, i, -1, -i}: multiplying by one keeps a modulus exact
    amps = (np.arange(d) // 2 + 1.0) * np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=d)]
    return PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))


def collect_reports(monkeypatch) -> list:
    """Every report `_measure` makes from here on, in order."""
    made, original = [], measurement._measure

    def tracked(*args):
        reports = original(*args)
        made.extend(reports)
        return reports

    monkeypatch.setattr(measurement, "_measure", tracked)
    return made


# (d, counts, block entries): 2000 factors underflow the overlap product to 0,
# a count repeats, and d = 300 or a small block spans several blocks
SWEEP_CASES = [
    (2, [0, 1, 4, 4, 2000, 7], None),
    (16, [0, 3, 2000, 16, 3, 2000], None),
    (64, [2000, 5, 5, 0], None),
    (300, [4, 2000, 4], None),
    (16, [1, 2, 3, 4, 5, 2000, 7, 2000], 3 * 16**2),
]


@pytest.mark.parametrize("d, counts, block_entries", SWEEP_CASES)
def test_sweep_points_are_per_count_measurements_bit_for_bit(d, counts, block_entries, monkeypatch):
    """A sweep's stacked blocks give each count the report, and so the point,
    that simulate_measurement gives it on a fresh state, bit for bit."""
    if block_entries is not None:
        monkeypatch.setattr(measurement, "_BLOCK_ENTRIES", block_entries)
    lexsorts = count_calls_in(monkeypatch, np, "lexsort")
    model = default_model(subject_dim=d, n_a=2, n_e=3, dt=0.5)
    made = collect_reports(monkeypatch)
    points = decoherence_scaling_sweep(model, tied_state(d), counts)
    assert [pt.n for pt in points] == counts and len(made) == len(counts)
    assert lexsorts, "no exact tie reached the lexsort tie-break"
    for point, swept in zip(points, made):
        variant = default_model(subject_dim=d, n_a=point.n_a, n_e=point.n_e, dt=0.5)
        alone = simulate_measurement(variant, tied_state(d))
        assert_same_bits(swept, alone)
        bound = error_entropy_bound(variant, alone.max_born_deviation)
        expected = [alone.overlap_apparatus, alone.overlap_environment, alone.max_offdiag,
                    alone.max_born_deviation, bound.s_max, bound.bound]
        got = [point.overlap_a, point.overlap_e, point.max_offdiag,
               point.max_born_deviation, point.s_max, point.bound]
        assert np.array_equal(bits(np.array(got)), bits(np.array(expected)))
    assert any(pt.overlap_a * pt.overlap_e == 0.0 for pt in points)


def count_calls_in(monkeypatch, module, name: str) -> list:
    """Record each call of module.<name> from here on."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_sweep_block_is_one_eigh_and_no_cholesky(monkeypatch):
    """64 counts at d = 16 fit one block: one admission, one eigh, and the
    states' positivity comes from that eigh, so no Cholesky and no eigvalsh.
    The state then keeps the last count's report, so a measurement there is
    a memo hit; a sweep ending on the kept report measures only the rest."""
    psi = random_sixteen()
    model = default_model(subject_dim=16, n_a=2, n_e=3, dt=0.3)
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    cholesky = count_calls(monkeypatch, "cholesky")
    admits = count_calls_in(monkeypatch, measurement, "_derived")
    counts = list(range(1, 65))
    points = decoherence_scaling_sweep(model, psi, counts)
    assert (len(eigh), len(eigvalsh), len(cholesky), len(admits)) == (1, 0, 0, 1)
    last = default_model(subject_dim=16, n_a=points[-1].n_a, n_e=points[-1].n_e, dt=0.3)
    kept = simulate_measurement(last, psi)
    born_conditional_check(last, psi)
    assert len(eigh) == 1
    again = decoherence_scaling_sweep(model, psi, counts)
    assert again == points and len(eigh) == 2
    assert simulate_measurement(last, psi) is kept


def test_sweep_memory_does_not_grow_with_the_number_of_counts():
    """At d = 128 a block holds 4 states (2^16 entries, 1 MiB): a sweep over
    24 counts peaks where one over 8 does, since only one block is alive,
    about 7 blocks with the stacked decomposition's temporaries."""
    d = 128
    model = default_model(subject_dim=d, n_a=1, n_e=1, dt=0.05)
    peaks = []
    tracemalloc.start()
    try:
        for counts in (list(range(8)), list(range(24))):
            psi = tied_state(d)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            decoherence_scaling_sweep(model, psi, counts)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    block = 4 * d * d * 16
    assert peaks[1] <= peaks[0] + block / 8
    assert peaks[0] <= 8 * block


def test_a_nan_reaching_the_measurement_state_fails_its_hermiticity_check(monkeypatch):
    """The measurement state keeps the Hermiticity and trace checks: a NaN
    overlap, reachable only through a replaced pointer_overlap, is refused
    there, with the class and message of the DensityMatrix constructor."""
    monkeypatch.setattr(measurement, "pointer_overlap", lambda model, which: math.nan)
    eigh = count_calls(monkeypatch, "eigh")
    with pytest.raises(ToleranceBreach, match=r"^Hermiticity defect nan exceeds 1e-12$"):
        simulate_measurement(default_model(), lopsided_qubit())
    with pytest.raises(ToleranceBreach, match=r"^Hermiticity defect nan exceeds 1e-12$"):
        decoherence_scaling_sweep(default_model(), lopsided_qubit(), [2, 4])
    assert eigh == []


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


def test_a_sweep_builds_no_model_per_count(monkeypatch):
    """A sweep derives each count's factor split, overlaps and entropy floor
    from the template: one model for the per-factor overlaps, however many
    counts, and no error_entropy_bound call."""
    model, built, original = default_model(n_a=1, n_e=2), [], MeasurementModel.__post_init__

    def counted(self):
        built.append((self.n_a, self.n_e))
        original(self)

    monkeypatch.setattr(MeasurementModel, "__post_init__", counted)
    bounds = count_calls_in(monkeypatch, measurement, "error_entropy_bound")
    points = decoherence_scaling_sweep(model, lopsided_qubit(), list(range(64)))
    assert len(points) == 64 and built == [(1, 1)] and bounds == []
    assert decoherence_scaling_sweep(model, lopsided_qubit(), []) == []
    assert built == [(1, 1)]


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

