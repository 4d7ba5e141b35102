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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tolerances as tol
from .errors import NotADistribution, SpaceMismatch, ToleranceBreach
from .ontic import OnticDecomposition, ontic_decomposition
from .qcore import DensityMatrix, PureState

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
    """Default per-factor record overlap, exp(-gamma * dt)."""
    return math.exp(-gamma * dt)


@dataclass(frozen=True)
class MeasurementModel:
    """Interaction parameters: factor counts, decay rates, duration.

    overlap_fn maps (rate, duration) to a per-factor record overlap in
    [0, 1]; it must equal 1 at zero duration and should be non-increasing
    in the duration.
    """

    subject_dim: int
    n_a: int
    n_e: int
    gamma_a: float
    gamma_e: float
    dt: float
    overlap_fn: Callable[[float, float], float] = exponential_overlap

    def __post_init__(self) -> None:
        if self.subject_dim < 2:
            raise SpaceMismatch(f"subject dimension {self.subject_dim} below 2")
        if self.n_a < 0 or self.n_e < 0:
            raise NotADistribution(
                f"factor counts must be non-negative, got n_a={self.n_a}, n_e={self.n_e}"
            )
        if not (self.gamma_a >= 0 and self.gamma_e >= 0 and self.dt >= 0):
            raise NotADistribution("rates and duration must be non-negative")
        for gamma in (self.gamma_a, self.gamma_e):
            if not (abs(self.overlap_fn(gamma, 0.0) - 1.0) <= 1e-9):
                raise ToleranceBreach("overlap_fn must equal 1 at zero duration")


def pointer_overlap(model: MeasurementModel, which: str) -> float:
    """Record overlap raised to the factor count, for one record keeper."""
    if which == "apparatus":
        gamma, n = model.gamma_a, model.n_a
    elif which == "environment":
        gamma, n = model.gamma_e, model.n_e
    else:
        raise NotADistribution(f"which must be 'apparatus' or 'environment', got {which!r}")
    c = model.overlap_fn(gamma, model.dt)
    if not -tol.CONSTRUCTION <= c <= 1.0 + tol.CONSTRUCTION:
        raise ToleranceBreach(f"overlap {c} outside [0, 1]")
    return float(min(max(c, 0.0), 1.0) ** n)


@dataclass(frozen=True, eq=False)
class MeasurementReport:
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
    """
    overlaps = np.abs(vectors.T)
    n, d = overlaps.shape
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


def simulate_measurement(
    model: MeasurementModel,
    psi: PureState,
    overlap_phases: np.ndarray | None = None,
    delta_deg: float = tol.DEGENERACY_GAP,
) -> MeasurementReport:
    """Subject's reduced state after the interaction, with Born diagnostics.

    overlap_phases, if given, is a real antisymmetric matrix of phase
    angles applied to the off-diagonal suppression factors, for record
    overlaps that are not real positive.
    """
    d = model.subject_dim
    if psi.space.total_dim != d:
        raise SpaceMismatch(f"state dimension {psi.space.total_dim}, model wants {d}")
    c_a = pointer_overlap(model, "apparatus")
    c_e = pointer_overlap(model, "environment")
    suppression = np.full((d, d), c_a * c_e, dtype=np.complex128)
    np.fill_diagonal(suppression, 1.0)
    if overlap_phases is not None:
        phases = np.asarray(overlap_phases, dtype=float)
        if phases.shape != (d, d) or not (
            np.max(np.abs(phases + phases.T)) <= tol.CONSTRUCTION
        ):
            raise SpaceMismatch("overlap_phases must be a real antisymmetric d x d matrix")
        suppression = suppression * np.exp(1j * phases)

    rho = np.outer(psi.amplitudes, psi.amplitudes.conjugate()) * suppression
    rho_s = DensityMatrix(psi.space, rho)
    dec = ontic_decomposition(rho_s, delta_deg)
    born = np.abs(psi.amplitudes) ** 2
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


def born_conditional_check(
    model: MeasurementModel,
    psi: PureState,
    delta_deg: float = tol.DEGENERACY_GAP,
) -> float:
    """Largest gap between conditioned outcome probabilities and Born weights.

    Computes <s|rho_s|s> for each post-interaction configuration directly
    as a quadratic form, independently of the eigenvalues the simulation
    reports, and compares against the Born weight of the matched outcome.
    """
    report = simulate_measurement(model, psi, delta_deg=delta_deg)
    worst = 0.0
    # contiguous rows: a strided column can take another BLAS path (last bits)
    for s, v in enumerate(report.decomposition.vectors.T.copy()):
        p = float(np.real(v.conjugate() @ report.rho_s.matrix @ v))
        worst = max(worst, abs(p - report.born_targets[report.outcome_of_entry[s]]))
    return worst


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
    (rounded) at each total count; rates, duration, and overlap function
    carry over unchanged.
    """
    n0 = model.n_a + model.n_e
    points = []
    for n in n_values:
        if n < 0:
            raise NotADistribution(f"factor count {n} is negative")
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


def error_entropy_bound(
    model: MeasurementModel, observed_deviation: float, slack: float = 10.0
) -> BoundReport:
    """Entropy floor on the Born deviation from the apparatus records.

    Each of the N_A apparatus factors contributes ln 2 of record entropy,
    so the deviation cannot be pushed below exp(-N_A ln 2).  The check
    passes when the observed deviation is no further than the slack
    factor below that floor.
    """
    if observed_deviation < 0:
        raise NotADistribution(f"deviation {observed_deviation} is negative")
    s_max = model.n_a * math.log(2.0)
    bound = math.exp(-s_max)
    return BoundReport(s_max=s_max, bound=bound, satisfied=observed_deviation >= bound / slack)


def correlational_entropy(probs) -> float:
    """Shannon entropy of a probability list, in nats, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=float)
    if not (p.min() >= -tol.DERIVED):
        raise NotADistribution(f"negative probability {p.min()}")
    total = p.sum()
    if not (abs(total - 1.0) <= tol.DERIVED):
        raise NotADistribution(f"probabilities sum to {total}")
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())

