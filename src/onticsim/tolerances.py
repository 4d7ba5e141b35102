"""Numerical tolerances, the one invariant check, and one formula per defect.

Two tiers: CONSTRUCTION guards invariants checked when an object is built
(Hermiticity, unit trace, unit norm), DERIVED guards quantities obtained
through a computation (marginal distances, Kraus completeness,
eigenprojector reconstruction).  Conditional-probability rows get a
slightly looser budget because they accumulate error from several
eigendecompositions and a channel application.

Every invariant guard in the package is one call to `check`, which fails
on NaN and names the measured defect and its bound.  The defects that
several guards share are each written once, here: `hermiticity_defect`,
`isometry_defect` (unitarity, orthonormal columns, Kraus completeness)
and `negativity`, so a lower eigenvalue floor reads
check(negativity(a), -EIG_FLOOR, ...).

`psd_certified` is a cheaper sufficient test for that floor on one matrix:
a Cholesky factorization whose success proves every eigenvalue exceeds
EIG_FLOOR / 2, so the `DensityMatrix` constructor runs the eigensolve of
`negativity` only when the certificate fails, and every verdict and refusal
message stays what the eigensolve alone would give.  `hermiticity_defect`,
`isometry_defect` and `negativity` also take a stack of matrices and give
one verdict for all of them, the largest defect, so a stack passes exactly
when each of its matrices would.
"""

import math

import numpy as np

# construction-time invariants: Hermiticity, unit trace, unit norm
CONSTRUCTION = 1e-12

# derived checks: marginal distances, Kraus completeness,
# decomposition reconstruction, projector idempotence
DERIVED = 1e-10

# most negative admissible eigenvalue for density and Choi matrices
EIG_FLOOR = -1e-10

# conditional-probability table rows must sum to one within this
ROW_SUM = 1e-9

# configurations with probability below this are null: kept, but carry no weight
NULL_PROBABILITY = 1e-12

# Kraus operators below this Frobenius norm are dropped
KRAUS_PRUNE = 1e-12

# smallest amplitude magnitude usable as the global-phase pivot
PHASE_PIVOT = 1e-10

# an observed Born deviation may sit this factor below the record-entropy floor
ENTROPY_SLACK = 10.0


def check(defect, bound: float, error: type[Exception], what: str) -> None:
    """Raise error unless defect <= bound; a NaN defect always fails."""
    if not (defect <= bound):
        raise error(f"{what} {defect} exceeds {bound}")


# safety factor on the rounding margin of psd_certified: covers complex
# arithmetic and the underflow term of the real-arithmetic bound
_CHOLESKY_SAFETY = 4.0
_EPS = float(np.finfo(float).eps)


def psd_certified(a: np.ndarray) -> bool:
    """True only if no eigenvalue of the Hermitian matrix a is at or below
    EIG_FLOOR / 2.

    One Cholesky factorization runs on a copy of a whose diagonal is raised
    by -EIG_FLOOR / 2 - margin, with margin = (d + 2) eps (|tr a| + d
    |EIG_FLOOR|) times a safety factor.  After Rump, "Verification of
    positive definiteness", BIT 46 (2006): a floating-point Cholesky that
    completes on B - margin I proves B positive definite, here
    B = a - EIG_FLOOR / 2 I.  So True means lambda_min > EIG_FLOOR / 2,
    which the eigenvalue floor admits; False proves nothing.  Like eigvalsh,
    it reads the lower triangle.  NaN or infinite input returns False.
    """
    shifted = np.array(a, dtype=np.complex128)
    d = len(shifted)
    # sums of short lists: a numpy reduction costs more than a d = 2 Cholesky
    trace = abs(sum(shifted.diagonal().real.tolist()))
    if not math.isfinite(trace):
        return False
    margin = _CHOLESKY_SAFETY * (d + 2) * _EPS * (trace + d * abs(EIG_FLOOR))
    shifted[np.diag_indices(d)] += -EIG_FLOOR / 2 - margin
    try:
        low = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    # a NaN or inf anywhere in the lower triangle reaches the factor's diagonal
    return math.isfinite(sum(low.diagonal().real.tolist()))


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag| of a matrix, or the largest over an (n, d, d) stack."""
    # matrix index in the middle, (d, n, d): reversing all axes transposes each matrix
    b = a.reshape(-1, *a.shape[-2:]).swapaxes(0, 1)
    # A - A^dag written into a conjugate copy: one complex and one real temporary.
    # np.conjugate always copies; a real array's .conjugate() is the array itself
    diff = np.conjugate(b).T
    np.subtract(b, diff, out=diff)
    return float(np.max(np.abs(diff)))


def isometry_defect(v: np.ndarray) -> float:
    """max |V^dag V - I| of a matrix, or the largest over an (n, d, m) stack;
    for a Kraus stack pass kraus.reshape(-1, d_in)."""
    return float(np.max(np.abs(np.conjugate(v).swapaxes(-1, -2) @ v - np.eye(v.shape[-1]))))


def negativity(a: np.ndarray) -> float:
    """Minus the smallest eigenvalue of a Hermitian matrix, or the largest such
    over an (n, d, d) stack; NaN if any entry is not finite."""
    lowest = -float(np.min(np.linalg.eigvalsh(a)[..., 0]))
    return lowest if np.isfinite(a).all() else math.nan
