"""Tests for the one invariant check and the defect formulas in tolerances."""
import ast
from pathlib import Path

import numpy as np
import pytest

import onticsim
from onticsim import (
    CNOT,
    ConditionalProbabilityTable,
    DensityMatrix,
    HilbertSpace,
    MarkovKernelChain,
    UnitaryOperator,
    basis_state,
    correlational_entropy,
    enumerate_trajectory_measure,
    kernel_from_matrix,
    nonlinearity_witness,
    unitary_channel,
)
from onticsim import ontic, qcore
from onticsim import tolerances as tol
from onticsim.errors import NotADistribution, NotAWitnessPair, NotUnitary, ToleranceBreach

QUBIT = HilbertSpace.of(("s", 2))
PAIR = HilbertSpace.of(("s", 2), ("e", 2))
SRC = Path(onticsim.__file__).parent


def test_check_names_the_defect_and_the_bound():
    tol.check(0.25, 0.25, ValueError, "defect")
    with pytest.raises(ValueError, match=r"^trace defect 0\.5 exceeds 0\.25$"):
        tol.check(0.5, 0.25, ValueError, "trace defect")


def test_defect_formulas_on_known_matrices():
    a = np.array([[1.0, 2.0], [0.5, -3.0]])
    assert tol.hermiticity_defect(a) == 1.5
    assert tol.isometry_defect(2.0 * np.eye(2)) == 3.0
    assert tol.negativity(np.diag([-0.25, 1.0])) == 0.25
    kraus = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
    assert tol.isometry_defect(kraus.reshape(-1, 2)) <= 1e-15


def _witness_pair_mismatch():
    channel = unitary_channel(UnitaryOperator(PAIR, CNOT))
    rho_1 = basis_state(PAIR, 0).density_matrix()
    rho_2 = basis_state(PAIR, 2).density_matrix()
    nonlinearity_witness(channel, rho_1, rho_2, (["s"], ["e"]))


def _trajectory_mass_excess():
    # each row sums to 1 + 8e-10, within ROW_SUM; two steps carry 1 + 1.6e-9
    kernel = kernel_from_matrix([[0.5 + 4e-10] * 2] * 2)
    enumerate_trajectory_measure(MarkovKernelChain((0.0, 1.0, 2.0), (kernel,) * 2), 2, 0)


FAILING_GUARDS = {
    "qcore": (lambda: DensityMatrix(QUBIT, np.eye(2)), ToleranceBreach, tol.CONSTRUCTION),
    "channels": (lambda: UnitaryOperator(QUBIT, 2.0 * np.eye(2)), NotUnitary, tol.CONSTRUCTION),
    "ontic": (
        lambda: ConditionalProbabilityTable((0,), ((0,), (1,)), [[0.5, 0.4]]),
        ToleranceBreach,
        tol.ROW_SUM,
    ),
    "opendyn": (_witness_pair_mismatch, NotAWitnessPair, tol.DERIVED),
    "measurement": (lambda: correlational_entropy([0.5, 0.6]), NotADistribution, tol.DERIVED),
    "trajectories": (_trajectory_mass_excess, ToleranceBreach, tol.ROW_SUM),
}


@pytest.mark.parametrize("module", sorted(FAILING_GUARDS))
def test_failing_guard_message_names_its_bound(module):
    build, error, bound = FAILING_GUARDS[module]
    with pytest.raises(error) as info:
        build()
    assert str(info.value).endswith(f" exceeds {bound!r}")
    assert info.traceback[-1].frame.f_globals["__name__"] == "onticsim.tolerances"
    raising = [e for e in info.traceback if e.frame.f_globals["__name__"].startswith("onticsim.")]
    assert raising[-2].frame.f_globals["__name__"] == f"onticsim.{module}"


def _conjugate_transpose_operand(node):
    """X when node is X.conjugate().T or, the per-matrix form for a stack,
    X.conjugate().swapaxes(-1, -2); else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        conjugated = node.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "swapaxes"
        and [ast.unparse(arg) for arg in node.args] == ["-1", "-2"]
    ):
        conjugated = node.func.value
    else:
        return None
    if (
        isinstance(conjugated, ast.Call)
        and isinstance(conjugated.func, ast.Attribute)
        and conjugated.func.attr == "conjugate"
    ):
        return conjugated.func.value
    return None


def _same(a, b) -> bool:
    return a is not None and b is not None and ast.dump(a) == ast.dump(b)


def _guard_forms(path: Path) -> list[str]:
    """Inline guard forms written in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "ToleranceBreach":
                found.append("raise ToleranceBreach(...)")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if _same(node.left, _conjugate_transpose_operand(node.right)):
                found.append("a - a.conjugate().T")
            gram = node.left
            if isinstance(gram, ast.BinOp) and isinstance(gram.op, ast.MatMult):
                if _same(gram.right, _conjugate_transpose_operand(gram.left)):
                    found.append("v.conjugate().T @ v - I")
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "eigvalsh"
        ):
            found.append("eigvalsh(a)[0]")
        if isinstance(node, ast.Attribute) and node.attr == "cholesky":
            found.append("cholesky")
    return found


def test_defect_formulas_are_written_only_in_tolerances():
    elsewhere = {
        path.name: _guard_forms(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py" and _guard_forms(path)
    }
    assert elsewhere == {}
    assert sorted(_guard_forms(SRC / "tolerances.py")) == [
        "a - a.conjugate().T", "cholesky", "eigvalsh(a)[0]", "v.conjugate().T @ v - I"
    ]


# ---------------------------------------------------------------------------
# the Cholesky certificate
# ---------------------------------------------------------------------------

def spectrum_density(lam_min: float, d: int = 8, seed: int = 0) -> np.ndarray:
    """U diag U^dag with unit trace and smallest eigenvalue lam_min."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.5, 1.5, size=d - 1)
    evals = np.concatenate([[lam_min], (1.0 - lam_min) * rest / rest.sum()])
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return (u * evals) @ u.conjugate().T


LAMBDA_MIN = [0.0, 1e-12, -1e-12, -4e-11, -6e-11, -9.9e-11, -1.01e-10, -1e-9]


@pytest.mark.parametrize("lam_min", LAMBDA_MIN)
def test_density_matrix_verdict_is_the_eigenvalue_floor(lam_min):
    """Accepted exactly when -eigvalsh reads at most -EIG_FLOOR, and refused
    with the eigenvalue-floor message, whether or not the certificate holds."""
    a = spectrum_density(lam_min)
    negativity = -float(np.linalg.eigvalsh(a)[0])
    assert abs(negativity + lam_min) <= 1e-15
    if negativity <= -tol.EIG_FLOOR:
        assert np.array_equal(DensityMatrix(HilbertSpace.of(("s", 8)), a).matrix, a)
    else:
        with pytest.raises(ToleranceBreach) as info:
            DensityMatrix(HilbertSpace.of(("s", 8)), a)
        assert str(info.value) == f"eigenvalue negativity {negativity} exceeds {-tol.EIG_FLOOR}"
    # the certificate proves lambda_min > EIG_FLOOR / 2 and holds well inside it
    assert tol.psd_certified(a) == (lam_min >= -4e-11)


def test_certificate_implies_half_the_eigenvalue_floor():
    """Near the certificate's edge, every certified matrix reads at least
    EIG_FLOOR / 2 under eigvalsh; some on each side are certified and not."""
    verdicts = set()
    for seed, d in enumerate([2, 3, 5, 8, 16, 32, 64] * 12):
        lam_min = np.random.default_rng(seed).uniform(-7e-11, -3e-11)
        a = spectrum_density(lam_min, d, seed)
        certified = tol.psd_certified(a)
        verdicts.add(certified)
        if certified:
            assert np.linalg.eigvalsh(a)[0] >= tol.EIG_FLOOR / 2
    assert verdicts == {True, False}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certificate_refuses_non_finite_matrices(bad):
    assert not tol.psd_certified(np.full((3, 3), bad, dtype=complex))
    lower = np.eye(3, dtype=complex) / 3
    lower[2, 0] = bad
    assert not tol.psd_certified(lower)
    diagonal = np.eye(3, dtype=complex) / 3
    diagonal[1, 1] = bad
    assert not tol.psd_certified(diagonal)


def test_certificate_does_not_depend_on_memory_layout():
    """A Fortran-ordered matrix, and a stack read through a transpose, are
    certified as their C-ordered copies are, down to lambda_min = -4e-11."""
    a = spectrum_density(-4e-11)
    fortran = np.asfortranarray(a)
    assert not fortran.flags.c_contiguous
    assert tol.psd_certified(a) and tol.psd_certified(fortran)
    assert np.array_equal(DensityMatrix(HilbertSpace.of(("s", 8)), fortran).matrix, a)
    # each slice of the transposed view is the conjugate of a density: same spectrum
    stack = np.stack([spectrum_density(-4e-11, 8, seed) for seed in range(3)])
    transposed = stack.transpose(0, 2, 1)
    assert not transposed.flags.c_contiguous
    assert tol.psd_certified(np.ascontiguousarray(transposed))
    assert tol.psd_certified(transposed)


def test_certificate_reads_the_lower_triangle_as_eigvalsh_does():
    a = spectrum_density(0.0, 4)
    a[np.triu_indices(4, 1)] = np.nan
    assert tol.psd_certified(a)
    assert np.linalg.eigvalsh(a)[0] >= tol.EIG_FLOOR / 2


# ---------------------------------------------------------------------------
# stacks of matrices
# ---------------------------------------------------------------------------

def passes(defect, a, bound) -> bool:
    """The verdict of check(defect(a), bound); an eigensolve that does not
    converge, as on some NaN input, is a failure too."""
    try:
        tol.check(defect(a), bound, ToleranceBreach, "defect")
    except (ToleranceBreach, np.linalg.LinAlgError):
        return False
    return True


def spoiled_stack(flaw: str, where: int) -> np.ndarray:
    """Five unit-trace 3 x 3 densities; the one at `where` carries the flaw."""
    stack = np.stack([spectrum_density(0.05, 3, seed) for seed in range(5)])
    if flaw == "non_hermitian":
        stack[where, 2, 0] += 1e-9
    elif flaw == "negative":
        stack[where] = spectrum_density(-1e-9, 3, 7)
    elif flaw == "nan":
        stack[where, 1, 0] = np.nan
    return stack


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("flaw", ["none", "non_hermitian", "negative", "nan"])
def test_a_stack_gets_the_slice_by_slice_verdict(flaw, where):
    """One flawed or NaN matrix fails the whole stack; a clean stack passes,
    and a finite stacked defect is the largest one of its matrices."""
    stack = spoiled_stack(flaw, where)
    for defect, bound, fails in [
        (tol.hermiticity_defect, tol.CONSTRUCTION, ("non_hermitian", "nan")),
        (tol.negativity, -tol.EIG_FLOOR, ("negative", "nan")),
    ]:
        verdict = passes(defect, stack, bound)
        assert verdict == all(passes(defect, a, bound) for a in stack)
        assert verdict == (flaw not in fails)
        if flaw != "nan":
            assert defect(stack) == max(defect(a) for a in stack)
    certified = [tol.psd_certified(a) for a in stack]
    assert tol.psd_certified(stack) == all(certified)
    assert all(certified) == (flaw in ("none", "non_hermitian"))


def counted(monkeypatch, name: str) -> list:
    """Record the stack length of each np.linalg.<name> call from here on."""
    calls, solver = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda a, *args: calls.append(len(a)) or solver(a, *args))
    return calls


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("flaw", ["none", "negative", "nan"])
def test_a_derived_stack_gets_its_positivity_verdict_from_its_eigensolve(monkeypatch, flaw, where):
    """A derived stack is admitted as the table core admits a reduced state:
    _admit without positivity, then _spectra, whose eigh gives the verdict
    and no Cholesky runs.  A slice at lambda_min = -1e-9 is refused with
    _admit's message, naming eigh's lambda_min where _admit's eigvalsh
    fallback names its own, equal to rounding; a NaN slice is refused by
    the Hermiticity check, before any eigh."""
    stack = spoiled_stack(flaw, where)
    if flaw == "negative":
        with pytest.raises(ToleranceBreach) as expected:
            qcore._admit(stack)
        lowest = -float(np.linalg.eigh(stack)[0][:, 0].min())
        assert abs(lowest - float(str(expected.value).split()[2])) <= 1e-15
    eigh, cholesky = counted(monkeypatch, "eigh"), counted(monkeypatch, "cholesky")
    if flaw == "nan":
        with pytest.raises(ToleranceBreach, match="^Hermiticity defect nan exceeds"):
            qcore._admit(stack, positivity=False)
        assert eigh == []
        return
    qcore._admit(stack, positivity=False)
    if flaw == "negative":
        with pytest.raises(ToleranceBreach) as raised:
            ontic._spectra(stack)
        assert str(raised.value) == f"eigenvalue negativity {lowest} exceeds {-tol.EIG_FLOOR}"
    else:
        probs, vecs, _ = ontic._spectra(stack)
        for k, a in enumerate(stack):
            (p,), (v,), _ = ontic._spectra(a[None])
            assert np.array_equal(probs[k], p) and np.array_equal(vecs[k], v)
    assert eigh[0] == 5 and cholesky == []


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("flaw", ["none", "stretched", "nan"])
def test_a_stack_of_isometries_gets_the_slice_by_slice_verdict(flaw, where):
    stack = np.linalg.eigh(spoiled_stack("none", 0))[1]
    if flaw == "stretched":
        stack[where, :, 1] *= 1.0 + 1e-9
    elif flaw == "nan":
        stack[where, 0, 2] = np.nan
    verdict = passes(tol.isometry_defect, stack, tol.DERIVED)
    assert verdict == all(passes(tol.isometry_defect, v, tol.DERIVED) for v in stack)
    assert verdict == (flaw == "none")
    if flaw != "nan":
        assert tol.isometry_defect(stack) == max(tol.isometry_defect(v) for v in stack)


def test_a_stack_of_one_reads_as_its_matrix():
    a = spectrum_density(-6e-11, 4)
    for defect in (tol.hermiticity_defect, tol.isometry_defect, tol.negativity, tol.psd_certified):
        assert defect(a[None]) == defect(a)
