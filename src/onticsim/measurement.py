"""Decoherence-based measurement: pointer overlaps and Born-rule convergence.

A subject in superposition couples to an apparatus and an environment
made of many independent factors.  With each factor's post-interaction
records for two different outcomes overlapping by c, the subject's
reduced state after the interaction has its diagonal pinned at the Born
weights and every off-diagonal element suppressed by the product of the
per-factor overlaps,

    rho[m1, m2] = psi[m1] conj(psi[m2]) * c_A**N_A * c_E**N_E   (m1 != m2).

The reduced state is assembled in closed form rather than by
materializing the full joint space, so environment sizes are limited
only by floating-point range.  Eigenvalues of the decohered state then
deviate from the Born weights at second order in the total overlap, and
the achievable deviation is floored by the exponential of the apparatus
record entropy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .errors import NotADistribution, SpaceMismatch, ToleranceBreach
from .ontic import OnticDecomposition, _quadratic_forms, ontic_decomposition
from .qcore import DensityMatrix, PureState, _integral, _memo

__all__ = [
    "MeasurementModel",
    "MeasurementReport",
    "SweepPoint",
    "BoundReport",
    "exponential_overlap",
    "pointer_overlap",
    "simulate_measurement",
    "born_conditional_check",
    "decoherence_scaling_sweep",
    "error_entropy_bound",
    "correlational_entropy",
]


def exponential_overlap(gamma: float, dt: float) -> float:
    """Per-factor record overlap, exp(-gamma * dt)."""
    return math.exp(-gamma * dt)


@dataclass(frozen=True)
class MeasurementModel:
    """Interaction parameters: factor counts, decay rates, duration.

    Each record factor overlaps its counterpart by exponential_overlap of
    its keeper's rate and the duration.  Rates must be finite,
    non-negative real numbers, and the duration a non-negative real number.
    """

    subject_dim: int
    n_a: int
    n_e: int
    gamma_a: float
    gamma_e: float
    dt: float

    def __post_init__(self) -> None:
        dim = _integral(self.subject_dim)
        if dim is None or dim < 2:
            raise SpaceMismatch(f"subject dimension {self.subject_dim!r} is not an integer >= 2")
        object.__setattr__(self, "subject_dim", dim)
        counts = (_integral(self.n_a), _integral(self.n_e))
        if None in counts or min(counts) < 0:
            raise NotADistribution(
                "factor counts must be non-negative integers, "
                f"got n_a={self.n_a!r}, n_e={self.n_e!r}"
            )
        object.__setattr__(self, "n_a", counts[0])
        object.__setattr__(self, "n_e", counts[1])
        given = (self.gamma_a, self.gamma_e, self.dt)
        if not all(isinstance(x, numbers.Real) and x >= 0 for x in given) or math.inf in given[:2]:
            raise NotADistribution(f"need finite rates and a duration, all real >= 0, got {given}")


def pointer_overlap(model: MeasurementModel, which: str) -> float:
    """Record overlap raised to the factor count, for one record keeper."""
    if which == "apparatus":
        gamma, n = model.gamma_a, model.n_a
    elif which == "environment":
        gamma, n = model.gamma_e, model.n_e
    else:
        raise NotADistribution(f"which must be 'apparatus' or 'environment', got {which!r}")
    # NaN at a zero rate and an infinite duration
    c = exponential_overlap(gamma, model.dt)
    tol.check(max(-c, c - 1.0), tol.CONSTRUCTION, ToleranceBreach, "overlap distance from [0, 1]")
    return float(min(max(c, 0.0), 1.0) ** n)


@dataclass(frozen=True, eq=False)
class MeasurementReport:
    """Every array is read-only: later calls on the same state share the report."""

    rho_s: DensityMatrix
    decomposition: OnticDecomposition
    born_targets: np.ndarray
    outcome_of_entry: tuple[int, ...]
    max_born_deviation: float
    max_offdiag: float
    overlap_apparatus: float
    overlap_environment: float


def _assign_outcomes(vectors: np.ndarray) -> tuple[int, ...]:
    """Match each eigenvector column to its nearest basis outcome, bijectively.

    Greedy on descending overlap magnitude, ties broken by entry, then
    outcome index (a stable sort of the flattened overlaps); for a
    decohered state this is just the argmax, but it stays well defined for
    null entries whose eigenvectors are arbitrary within the null space.
    When the per-entry argmaxes are pairwise distinct they are the greedy
    result (each entry's first pair in that order is its argmax, and no
    other entry claims it), so the sort runs only when two collide.
    """
    overlaps = np.abs(vectors.T)
    n, d = overlaps.shape
    best = overlaps.argmax(axis=1).tolist()
    if len(set(best)) == n:
        return tuple(best)
    outcome = [-1] * n
    used: set[int] = set()
    for flat in np.argsort(-overlaps, axis=None, kind="stable").tolist():
        s, m = divmod(flat, d)
        if outcome[s] < 0 and m not in used:
            outcome[s] = m
            used.add(m)
            if len(used) == n:
                break
    return tuple(outcome)


def simulate_measurement(model: MeasurementModel, psi: PureState) -> MeasurementReport:
    """Subject's reduced state after the interaction, with Born diagnostics.

    The report depends only on psi and the two pointer overlaps, so it is
    computed once per (state object, overlaps), and a repeat call with the
    same ones returns the same read-only report.  The state keeps only its
    latest report.
    """
    d = model.subject_dim
    if psi.space.total_dim != d:
        raise SpaceMismatch(f"state dimension {psi.space.total_dim}, model wants {d}")
    c_a = pointer_overlap(model, "apparatus")
    c_e = pointer_overlap(model, "environment")
    return _memo(psi, "report", (c_a, c_e), lambda: _measure(psi, c_a, c_e))


def _measure(psi: PureState, c_a: float, c_e: float) -> MeasurementReport:
    d = psi.space.total_dim
    suppression = np.full((d, d), c_a * c_e, dtype=np.complex128)
    np.fill_diagonal(suppression, 1.0)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conjugate()) * suppression
    rho_s = DensityMatrix(psi.space, rho)
    dec = ontic_decomposition(rho_s)
    born = np.abs(psi.amplitudes) ** 2
    born.setflags(write=False)
    outcome_of_entry = _assign_outcomes(dec.vectors)
    deviations = np.abs(dec.probabilities - born[list(outcome_of_entry)])
    off = rho.copy()
    np.fill_diagonal(off, 0.0)
    return MeasurementReport(
        rho_s=rho_s,
        decomposition=dec,
        born_targets=born,
        outcome_of_entry=outcome_of_entry,
        max_born_deviation=float(deviations.max()),
        max_offdiag=float(np.max(np.abs(off))),
        overlap_apparatus=c_a,
        overlap_environment=c_e,
    )


def born_conditional_check(model: MeasurementModel, psi: PureState) -> float:
    """Largest gap between conditioned outcome probabilities and Born weights.

    Computes <s|rho_s|s> for every post-interaction configuration directly,
    in one batched quadratic form independent of the reported eigenvalues,
    and compares each against the Born weight of the matched outcome.
    """
    report = simulate_measurement(model, psi)
    forms = _quadratic_forms(report.rho_s.matrix, report.decomposition.vectors)
    targets = report.born_targets[list(report.outcome_of_entry)]
    return float(np.max(np.abs(forms - targets)))


@dataclass(frozen=True)
class SweepPoint:
    n: int
    n_a: int
    n_e: int
    overlap_a: float
    overlap_e: float
    max_offdiag: float
    max_born_deviation: float
    s_max: float
    bound: float


def decoherence_scaling_sweep(
    model: MeasurementModel,
    psi: PureState,
    n_values: list[int],
) -> list[SweepPoint]:
    """Re-run the measurement across total factor counts.

    The template model's apparatus/environment ratio is preserved
    (rounded) at each total count; rates and duration carry over unchanged.
    """
    n0 = model.n_a + model.n_e
    points = []
    for raw in n_values:
        n = _integral(raw)
        if n is None or n < 0:
            raise NotADistribution(f"factor count {raw!r} is not a non-negative integer")
        n_a = round(n * model.n_a / n0) if n0 > 0 else n - n // 2
        variant = replace(model, n_a=n_a, n_e=n - n_a)
        report = simulate_measurement(variant, psi)
        bound = error_entropy_bound(variant, report.max_born_deviation)
        points.append(
            SweepPoint(
                n=n,
                n_a=variant.n_a,
                n_e=variant.n_e,
                overlap_a=report.overlap_apparatus,
                overlap_e=report.overlap_environment,
                max_offdiag=report.max_offdiag,
                max_born_deviation=report.max_born_deviation,
                s_max=bound.s_max,
                bound=bound.bound,
            )
        )
    return points


@dataclass(frozen=True)
class BoundReport:
    s_max: float
    bound: float
    satisfied: bool


def error_entropy_bound(model: MeasurementModel, observed_deviation: float) -> BoundReport:
    """Entropy floor on the Born deviation from the apparatus records.

    Each of the N_A apparatus factors contributes ln 2 of record entropy,
    so the deviation cannot be pushed below exp(-N_A ln 2).  The check
    passes when the observed deviation is no further than a factor of
    tol.ENTROPY_SLACK below that floor.  A deviation is a gap between two
    probabilities, so one that is not a real number in [0, 1] is refused.
    """
    if not isinstance(observed_deviation, numbers.Real):
        raise NotADistribution(f"Born deviation {observed_deviation!r} is not a real number")
    tol.check(-observed_deviation, 0.0, NotADistribution, "Born deviation negativity")
    tol.check(observed_deviation - 1.0, 0.0, NotADistribution, "Born deviation excess over 1")
    s_max = model.n_a * math.log(2.0)
    bound = math.exp(-s_max)
    satisfied = observed_deviation >= bound / tol.ENTROPY_SLACK
    return BoundReport(s_max=s_max, bound=bound, satisfied=satisfied)


def correlational_entropy(probs) -> float:
    """Shannon entropy of a probability list, in nats, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=float)
    tol.check(-p.min(initial=0.0), tol.DERIVED, NotADistribution, "probability negativity")
    tol.check(abs(p.sum() - 1.0), tol.DERIVED, NotADistribution, "probability sum defect")
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())

