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
"""

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

# default spacing below which neighbouring eigenvalues count as degenerate
DEGENERACY_GAP = 1e-8


def check(defect, bound: float, error: type[Exception], what: str) -> None:
    """Raise error unless defect <= bound; a NaN defect always fails."""
    if not (defect <= bound):
        raise error(f"{what} {defect} exceeds {bound}")


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag|."""
    return float(np.max(np.abs(a - a.conjugate().T)))


def isometry_defect(v: np.ndarray) -> float:
    """max |V^dag V - I|; for a Kraus stack pass kraus.reshape(-1, d_in)."""
    return float(np.max(np.abs(v.conjugate().T @ v - np.eye(v.shape[1]))))


def negativity(a: np.ndarray) -> float:
    """Minus the smallest eigenvalue of a Hermitian matrix."""
    return -float(np.linalg.eigvalsh(a)[0])
