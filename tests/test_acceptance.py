"""End-to-end checks of the library's physical guarantees.

Each test prints one PASS/FAIL line with the measured figure of merit
(run with -s to see them) and asserts the same condition, so the suite
both reports and gates.
"""
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from onticsim import (
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    MeasurementModel,
    PAULI_Y,
    PureState,
    SWAP_REFACTOR_TIME,
    UnitaryFamily,
    UnitaryOperator,
    apply,
    basis_state,
    bayesian_propagation_check,
    born_conditional_check,
    compose,
    conditional_probabilities,
    decoherence_scaling_sweep,
    dilation_channel,
    entangling_cnot_family,
    enumerate_trajectory_measure,
    error_entropy_bound,
    factorized_family,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    nonlinearity_witness,
    partial_trace,
    sample_trajectories,
    semigroup_defect,
    simulate_measurement,
    single_system_conditional,
    swap_refactorizing_family,
    unitary_channel,
    witness_pair_bell_vs_product,
)
from onticsim.channels import QuantumChannel

SEED = 20260816

CORPUS_DIMS = ((2, 2), (2, 3), (3, 3))
CORPUS_SIZE = 1002
CORPUS_SPLITS = (("s",), ("e",))


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, space: HilbertSpace) -> DensityMatrix:
    d = space.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conjugate().T
    return DensityMatrix(space, m / np.trace(m).real)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conjugate().T) / 2.0


def lopsided_qubit() -> PureState:
    space = HilbertSpace.of(("s", 2))
    return PureState(space, np.array([math.sqrt(0.7), math.sqrt(0.3)]))


@pytest.fixture(scope="module")
def dilation_corpus():
    """Randomized parent-level channels and states, shared by A1 and A8.

    Each instance dilates the bipartite parent into a fresh qubit ancilla,
    so the channel is a generic CPTP map on the parent space.
    """
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    instances = []
    for k in range(CORPUS_SIZE):
        ds, de = CORPUS_DIMS[k % len(CORPUS_DIMS)]
        full = HilbertSpace.of(("s", ds), ("e", de), ("f", 2))
        u = UnitaryOperator(full, haar_unitary(rng, full.total_dim))
        rho_f = random_density(rng, HilbertSpace.of(("f", 2)))
        ch = dilation_channel(u, rho_f, (("s", "e"), ("f",)))
        rho_w = random_density(rng, HilbertSpace.of(("s", ds), ("e", de)))
        instances.append((ch, rho_w))
    return instances, time.perf_counter() - start


def test_a1_probability_axioms(dilation_corpus):
    """Conditional probabilities are non-negative and rows sum to one."""
    instances, build_seconds = dilation_corpus
    start = time.perf_counter()
    worst_row_sum = 0.0
    for ch, rho_w in instances:
        # the table constructor raises below the -1e-10 value floor, so
        # completing the loop certifies non-negativity
        table = conditional_probabilities(ch, rho_w, CORPUS_SPLITS)
        sums = table.values.sum(axis=1)
        worst_row_sum = max(worst_row_sum, float(np.max(np.abs(sums - 1.0))))
    elapsed = build_seconds + time.perf_counter() - start
    ok = worst_row_sum <= 1e-9 and elapsed <= 60.0
    _verdict(
        "A1 probability axioms",
        ok,
        f"{len(instances)} instances, max row-sum deviation {worst_row_sum:.3e}, {elapsed:.1f} s",
    )


def test_a2_closed_system_no_jump():
    """A pure state under unitary evolution follows itself with certainty."""
    rng = np.random.default_rng(SEED + 2)
    worst_diag = 0.0
    worst_off = 0.0
    for k in range(100):
        d = 2 + k % 3
        space = HilbertSpace.of(("s", d))
        family = UnitaryFamily(space, random_hermitian(rng, d))
        t = float(rng.uniform(0.0, 2.0))
        dt = float(rng.uniform(0.1, 2.0))
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi_0 = PureState(space, amps / np.linalg.norm(amps))
        psi_t = PureState(space, family.at(t).matrix @ psi_0.amplitudes)
        table = single_system_conditional(
            unitary_channel(family.at(dt)), psi_t.density_matrix()
        )
        worst_diag = max(worst_diag, abs(float(table.values[0, 0]) - 1.0))
        worst_off = max(worst_off, float(np.max(table.values[0, 1:])))
    ok = worst_diag <= 1e-10 and worst_off <= 1e-10
    _verdict(
        "A2 closed-system no-jump",
        ok,
        f"100 families, |p-1| <= {worst_diag:.3e}, off-row <= {worst_off:.3e}",
    )


def test_a3_short_time_continuity():
    """Transition tables approach the identity linearly in the time step."""
    rng = np.random.default_rng(SEED + 3)
    worst = {1e-4: 0.0, 1e-3: 0.0}
    eye = np.eye(2)
    s_space = HilbertSpace.of(("s", 2))
    for _ in range(50):
        full = HilbertSpace.of(("s", 2), ("e", 2))
        h = random_hermitian(rng, 4)
        h /= float(np.max(np.abs(np.linalg.eigvalsh(h))))
        family = UnitaryFamily(full, h)
        rho_e = random_density(rng, HilbertSpace.of(("e", 2)))
        # spectral gap >= 0.3 keeps the eigenvector sort stable as t -> 0
        p_top = float(rng.uniform(0.65, 0.85))
        v = haar_unitary(rng, 2)
        rho_s = DensityMatrix(s_space, v @ np.diag([p_top, 1.0 - p_top]) @ v.conjugate().T)
        for t in worst:
            ch = dilation_channel(family.at(t), rho_e, (("s",), ("e",)))
            table = single_system_conditional(ch, rho_s)
            worst[t] = max(worst[t], float(np.max(np.abs(table.values - eye))))
    ok = all(worst[t] <= 10.0 * t for t in worst)
    _verdict(
        "A3 short-time continuity",
        ok,
        "50 instances, "
        + ", ".join(f"dev(t={t:g}) {worst[t]:.3e} <= {10 * t:g}" for t in sorted(worst)),
    )


def test_a4_decoherence_scaling():
    """Off-diagonals decay exponentially in the record count, two ways."""
    psi = lopsided_qubit()
    # per-factor gamma*dt = 0.5; the sweep preserves the 1:1 apparatus
    # to environment ratio, so ln(max_offdiag) falls by 0.5 per factor
    model = MeasurementModel(
        subject_dim=2, n_a=1, n_e=1, gamma_a=1.0, gamma_e=1.0, dt=0.5
    )
    points = decoherence_scaling_sweep(model, psi, [4, 8, 16, 32])
    ns = np.array([pt.n for pt in points], dtype=float)
    logs = np.log([pt.max_offdiag for pt in points])
    slope = float(np.polyfit(ns, logs, 1)[0])
    slope_ok = abs(slope + 0.5) <= 0.005

    # materialized cross-check: psi_0 |0>|r0...r0> + psi_1 |1>|r1...r1>
    # traced down to the subject must show |psi_0 psi_1| c^n off-diagonal
    amp = math.sqrt(0.7 * 0.3)
    worst = 0.0
    for c in (0.5, 0.8):
        r0 = np.array([1.0, 0.0])
        r1 = np.array([c, math.sqrt(1.0 - c * c)])
        for n in range(1, 11):
            factors = [("s", 2)] + [(f"r{i}", 2) for i in range(n)]
            space = HilbertSpace.of(*factors)
            rec0 = r0
            rec1 = r1
            for _ in range(n - 1):
                rec0 = np.kron(rec0, r0)
                rec1 = np.kron(rec1, r1)
            vec = math.sqrt(0.7) * np.kron([1.0, 0.0], rec0)
            vec = vec + math.sqrt(0.3) * np.kron([0.0, 1.0], rec1)
            joint = PureState(space, vec / np.linalg.norm(vec))
            rho_s = partial_trace(joint.density_matrix(), ["s"])
            off = abs(complex(rho_s.matrix[0, 1]))
            worst = max(worst, abs(off - amp * c**n))
    materialized_ok = worst <= 1e-10
    ok = slope_ok and materialized_ok
    _verdict(
        "A4 decoherence scaling",
        ok,
        f"sweep slope {slope:.6f} vs -0.5, materialized deviation {worst:.3e}",
    )


def test_a5_born_corrections():
    """Born deviations are bounded by the pointer overlap and vanish with it."""
    psi = lopsided_qubit()
    overlaps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    deviations = []
    for c in overlaps:
        model = MeasurementModel(
            subject_dim=2, n_a=1, n_e=0, gamma_a=1.0, gamma_e=1.0, dt=-math.log(c)
        )
        deviations.append(born_conditional_check(model, psi))
    bounded = all(dev <= c for dev, c in zip(deviations, overlaps))
    shrinking = all(b < a for a, b in zip(deviations, deviations[1:]))
    ok = bounded and shrinking
    _verdict(
        "A5 Born corrections",
        ok,
        f"deviations {[f'{d:.2e}' for d in deviations]} vs overlaps {overlaps}",
    )


def test_a6_semigroup_failure():
    """Only dynamics that refactorize at the cut compose across it."""
    e0 = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    probe = PureState(
        HilbertSpace.of(("s", 2)), np.array([1.0, 1.0]) / math.sqrt(2.0)
    ).density_matrix()
    split = (("s",), ("e",))
    entangling = semigroup_defect(
        entangling_cnot_family().at, e0, split, 0.6, 1.3, probe
    )
    factorized = semigroup_defect(
        factorized_family().at, e0, split, 0.6, 1.3, probe
    )
    # the swap family returns the parent to a product state at the
    # refactor time, so that is where the cut must sit
    refactoring = semigroup_defect(
        swap_refactorizing_family().at,
        e0,
        split,
        SWAP_REFACTOR_TIME,
        SWAP_REFACTOR_TIME + 0.6,
        probe,
    )
    ok = entangling > 0.01 and factorized <= 1e-10 and refactoring <= 1e-8
    _verdict(
        "A6 semigroup failure",
        ok,
        f"entangling {entangling:.4f} > 0.01, factorized {factorized:.1e}, "
        f"refactorizing {refactoring:.1e}",
    )


def _random_chain(rng: np.random.Generator, steps: int) -> MarkovKernelChain:
    kernels = tuple(
        kernel_from_matrix(rng.dirichlet((1.0, 1.0), size=2)) for _ in range(steps)
    )
    return MarkovKernelChain(
        times=tuple(float(i) for i in range(steps + 1)), kernels=kernels
    )


def test_a7_trajectory_measure():
    """Enumerated path measures are normalized and match sampled frequencies."""
    rng = np.random.default_rng(SEED + 7)
    worst_mass = 0.0
    for _ in range(100):
        measure = enumerate_trajectory_measure(_random_chain(rng, 4), 2, 0)
        worst_mass = max(worst_mass, abs(sum(measure.values()) - 1.0))
    mass_ok = worst_mass <= 1e-9

    chain = _random_chain(np.random.default_rng(SEED + 70), 4)
    measure = enumerate_trajectory_measure(chain, 2, 0)
    count = 100_000
    samples = sample_trajectories(chain, 0, seed=SEED, count=count)
    observed_by_path = Counter(traj.indices for traj in samples)
    expected, observed = [], []
    pool_e = pool_o = 0.0
    for path, p in measure.items():
        e = p * count
        o = float(observed_by_path.get(path, 0))
        if e < 5.0:
            pool_e += e
            pool_o += o
        else:
            expected.append(e)
            observed.append(o)
    if pool_e > 0.0:
        if pool_e >= 5.0:
            expected.append(pool_e)
            observed.append(pool_o)
        else:
            smallest = int(np.argmin(expected))
            expected[smallest] += pool_e
            observed[smallest] += pool_o
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    critical = float(chi2.ppf(0.999, len(expected) - 1))
    chi_ok = statistic < critical
    ok = mass_ok and chi_ok
    _verdict(
        "A7 trajectory measure",
        ok,
        f"100 chains, max |mass-1| {worst_mass:.3e}; "
        f"chi-square {statistic:.1f} < {critical:.1f} at {count} samples",
    )


def test_a8_bayesian_propagation(dilation_corpus):
    """Pushing the parent measure through the table reproduces the update."""
    instances, _ = dilation_corpus
    worst = max(
        bayesian_propagation_check(ch, rho_w, CORPUS_SPLITS)
        for ch, rho_w in instances
    )
    ok = worst <= 1e-9
    _verdict(
        "A8 Bayesian propagation",
        ok,
        f"{len(instances)} instances, max defect {worst:.3e}",
    )


def test_a9_nonlinearity_witness():
    """Equal marginals can evolve apart, but never under factorized maps."""
    pair = witness_pair_bell_vs_product()
    space = pair.rho_1.space

    cnot = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
    entangling = unitary_channel(UnitaryOperator(space, cnot))
    report = nonlinearity_witness(entangling, pair.rho_1, pair.rho_2, pair.split)
    cnot_ok = (
        report.marginal_distance_before <= 1e-10
        and abs(report.reduced_distance_after - 0.5) <= 1e-10
    )

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    kraus = tuple(
        np.kron(hadamard, np.diag(d).astype(np.complex128))
        for d in ([1.0, 0.0], [0.0, 1.0])
    )
    product_map = QuantumChannel(space, space, kraus)
    report_f = nonlinearity_witness(product_map, pair.rho_1, pair.rho_2, pair.split)
    factorized_ok = report_f.reduced_distance_after <= 1e-10

    ok = cnot_ok and factorized_ok
    _verdict(
        "A9 nonlinearity witness",
        ok,
        f"before {report.marginal_distance_before:.1e}, "
        f"entangling after {report.reduced_distance_after:.6f}, "
        f"factorized after {report_f.reduced_distance_after:.1e}",
    )


def test_a10_error_entropy_bound():
    """Ten binary records suppress coherence to exactly the entropy floor."""
    model = MeasurementModel(
        subject_dim=2, n_a=10, n_e=0, gamma_a=1.0, gamma_e=1.0, dt=math.log(2.0)
    )
    psi = lopsided_qubit()
    report = simulate_measurement(model, psi)
    # the suppression ratio strips the state-dependent |psi_0 psi_1| prefactor
    ratio = report.max_offdiag / math.sqrt(0.7 * 0.3)
    bound = error_entropy_bound(model, report.max_born_deviation)
    ok = (
        abs(ratio - 2.0**-10) <= 1e-12
        and abs(ratio - bound.bound) <= 1e-12
        and abs(report.overlap_apparatus - 2.0**-10) <= 1e-12
    )
    _verdict(
        "A10 error-entropy bound",
        ok,
        f"suppression ratio {ratio:.10e} vs 2^-10 = {2.0 ** -10:.10e}, "
        f"bound {bound.bound:.10e}",
    )


def test_a12_indivisible_measurement():
    """A measurement cannot be stopped part-way: n steps of one fresh pointer
    qubit each, h = |1><1| (x) sigma_y at step theta, are the closed-form
    measurement with n records of overlap cos theta, (a) as a state and (b)
    as a table, the product of the chain's first n kernels being the direct
    (0, n) table.  Start (sqrt 0.7, sqrt 0.3 e^{0.4 i}), n = 1..4."""
    s, e = HilbertSpace.of(("s", 2)), HilbertSpace.of(("e", 2))
    h = np.kron(np.diag([0.0, 1.0]), PAULI_Y)
    env = basis_state(e, 0).density_matrix()
    psi = PureState(s, np.array([math.sqrt(0.7), math.sqrt(0.3) * np.exp(0.4j)]))
    rho_0 = psi.density_matrix()
    state_gap = table_gap = 0.0
    for theta in (0.3, 0.8, 1.2):
        step = dilation_channel(UnitaryFamily(s.tensor(e), h).at(theta), env, (["s"], ["e"]))
        chain = markov_chain_from_repeated_interaction(h, env, rho_0, theta, 4)
        channel, product = step, np.eye(2)
        for n in range(1, 5):
            if n > 1:
                channel = compose(step, channel)
            model = MeasurementModel(2, n, 0, -math.log(math.cos(theta)), 0.0, 1.0)
            closed = simulate_measurement(model, psi).rho_s.matrix
            state_gap = max(state_gap, np.abs(apply(channel, rho_0).matrix - closed).max())
            product = product @ chain.kernels[n - 1].values
            direct = single_system_conditional(channel, rho_0).values
            table_gap = max(table_gap, np.abs(product - direct).max())
    _verdict(
        "A12 indivisible measurement",
        state_gap <= 1e-14 and table_gap <= 1e-14,
        f"(a) state gap {state_gap:.2e}, (b) kernel product gap {table_gap:.2e}, bound 1e-14",
    )


def test_a13_weyl_interlacing():
    """The decohered state is Phi ((1 - c) diag(p) + c |psi| |psi|^T) Phi^dag,
    Phi a diagonal unitary, so its spectrum is a rank-one positive update of
    (1 - c) p: ascending, (1 - c) p_(i) <= lambda_(i) <= (1 - c) p_(i+1), and
    lambda_max <= (1 - c) p_max + c.  This holds at any c, with no gap between
    the Born weights assumed."""
    rng = np.random.default_rng(SEED + 13)
    tol = 64 * np.finfo(float).eps
    slack = math.inf
    for d in (2, 8, 64):
        amps = rng.standard_normal(d) * np.exp(2j * np.pi * rng.random(d))
        psi = PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))
        for c in (0.5, 0.1, 0.01):
            model = MeasurementModel(
                subject_dim=d, n_a=1, n_e=0, gamma_a=1.0, gamma_e=1.0, dt=-math.log(c)
            )
            report = simulate_measurement(model, psi)
            c = report.overlap_apparatus * report.overlap_environment
            lam = np.sort(report.decomposition.probabilities)
            floor = (1.0 - c) * np.sort(report.born_targets)
            ceiling = np.append(floor[1:], floor[-1] + c)
            slack = min(slack, (lam - floor).min(), (ceiling - lam).min())
    _verdict(
        "A13 Weyl interlacing",
        slack >= -tol,
        f"smallest slack {slack:.3e}, tolerance {tol:.3e}",
    )


def test_a13_second_order_law():
    """Below the Born gaps the decohered eigenvalues move at second order in
    the overlap c: lambda_i - p_i = c^2 p_i sum_{j != i} p_j / (p_i - p_j), up
    to a relative error of order c / gap, here within 4 c / gap.  Weights
    (0.7, 0.3) for the qubit and p_i proportional to i at d = 8, 64 and 128,
    whose smallest gap is p_1; d = 128 runs on the secular solve."""
    worst = 0.0
    for d in (2, 8, 64, 128):
        born = np.array([0.7, 0.3]) if d == 2 else np.arange(1, d + 1) / (d * (d + 1) / 2)
        rng = np.random.default_rng(SEED + d)
        amps = np.sqrt(born) * np.exp(2j * np.pi * rng.random(d))
        psi = PureState(HilbertSpace.of(("s", d)), amps / np.linalg.norm(amps))
        p = np.sort(np.abs(psi.amplitudes) ** 2)
        gap = np.diff(p).min()
        others = np.divide(p, p[:, None] - p, out=np.zeros((d, d)), where=~np.eye(d, dtype=bool))
        coefficient = p * others.sum(axis=1)
        for scale in (0.1, 0.01):
            model = MeasurementModel(
                subject_dim=d, n_a=1, n_e=0, gamma_a=1.0, gamma_e=1.0, dt=-math.log(scale * gap)
            )
            report = simulate_measurement(model, psi)
            c = report.overlap_apparatus * report.overlap_environment
            shift = np.sort(report.decomposition.probabilities) - p
            error = np.abs(shift / (c * c * coefficient) - 1.0).max()
            worst = max(worst, error / (c / gap))
    _verdict(
        "A13 second-order law",
        worst <= 4.0,
        f"largest relative error {worst:.3f} c / gap, bound 4 c / gap",
    )
