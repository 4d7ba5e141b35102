"""Numerical tolerances used across the package.

Two tiers: CONSTRUCTION guards invariants checked when an object is built
(Hermiticity, unit trace, unit norm), DERIVED guards quantities obtained
through a computation (vanishing partial traces, Kraus completeness,
eigenprojector reconstruction).  Conditional-probability rows get a
slightly looser budget because they accumulate error from several
eigendecompositions and a channel application.
"""

# construction-time invariants: Hermiticity, unit trace, unit norm
CONSTRUCTION = 1e-12

# derived checks: partial traces of correlation operators, Kraus
# completeness, decomposition reconstruction, projector idempotence
DERIVED = 1e-10

# most negative admissible eigenvalue for density and Choi matrices
EIG_FLOOR = -1e-10

# conditional-probability table rows must sum to one within this
ROW_SUM = 1e-9

# ontic entries with probability below this are flagged null
NULL_PROBABILITY = 1e-12

# Kraus operators below this Frobenius norm are dropped
KRAUS_PRUNE = 1e-12

# smallest amplitude magnitude usable as the global-phase pivot
PHASE_PIVOT = 1e-10

# default spacing below which neighbouring eigenvalues count as degenerate
DEGENERACY_GAP = 1e-8
