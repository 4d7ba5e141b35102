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
only by floating-point range.  It is psi psi^dag o (c J + (1 - c) I) with
c the product of the overlaps: a Schur product of two positive matrices,
so positive.  It is also Phi R Phi^dag, with Phi = diag(psi_i / |psi_i|)
a diagonal unitary and R = |psi| |psi|^T o (c J + (1 - c) I) real
symmetric: its spectrum is R's, whatever psi's phases.  The measurement
is written for a stack of such states, one per overlap pair: they are
admitted (Hermiticity and trace) together, then solved in the real form,
whose eigenvalues give each state its positivity verdict.  R is
(1 - c) diag(|psi|^2) plus the rank-one c |psi| |psi|^T, so its eigenvalues
are the roots of a secular equation, one between each two neighbouring
poles (1 - c) |psi_j|^2.  Below a crossover dimension one real symmetric
eigh solves the stack of R; from it up each R is solved, never formed, from
its secular equation in O(d^2), with its eigenvectors by the Loewner
formula.  The eigenvectors are Phi Q for R's eigenvectors Q, checked in the
real gauge: orthonormality on Q, drift as max |Phi (Q p Q^T) Phi^dag - rho|.
A single measurement is a stack of one, and a sweep over record counts is
one stack per block of states.
Eigenvalues of the decohered state then deviate from the Born weights at
second order in the total overlap, lambda_i - p_i = c^2 p_i sum_{j != i}
p_j / (p_i - p_j), with a relative error of order c over the smallest gap
between Born weights, so where c is below that gap; the achievable
deviation is floored by the exponential of the apparatus record entropy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import tolerances as tol
from .errors import NotADistribution, SpaceMismatch, ToleranceBreach
from .ontic import OnticDecomposition, _decompositions, _quadratic_forms
from .qcore import _BLOCK_ENTRIES, DensityMatrix, PureState, _derived, _integral, _memo

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
]


def exponential_overlap(gamma: float, dt: float) -> float:
    """Per-factor record overlap, exp(-gamma * dt).  A zero rate records
    nothing, so its overlap is 1 at every duration, the infinite one included,
    where 0 * inf would be NaN."""
    return 1.0 if gamma == 0 and dt == math.inf else math.exp(-gamma * dt)


@dataclass(frozen=True)
class MeasurementModel:
    """Interaction parameters: factor counts, decay rates, duration.

    Each record factor overlaps its counterpart by exponential_overlap of
    its keeper's rate and the duration.  Factor counts must be non-negative
    integers no larger than the largest float, since overlaps and entropy
    floors take them as floats.  Rates must be finite, non-negative real
    numbers, and the duration a non-negative real number; an infinite
    duration with a zero rate gives that keeper overlap 1.
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
        _check_float_range(*counts)
        object.__setattr__(self, "n_a", counts[0])
        object.__setattr__(self, "n_e", counts[1])
        given = (self.gamma_a, self.gamma_e, self.dt)
        if not all(isinstance(x, numbers.Real) and x >= 0 for x in given) or math.inf in given[:2]:
            raise NotADistribution(f"need finite rates and a duration, all real >= 0, got {given}")


# the largest float, as an int: overlaps and entropies take factor counts as floats
_MAX_COUNT = 2**1024 - 2**971


def _check_float_range(*counts: int) -> None:
    """Refuse non-negative integer factor counts that no float can hold."""
    if max(counts) > _MAX_COUNT:
        raise NotADistribution(
            f"factor counts above {_MAX_COUNT:.4g}, the largest float, are refused"
        )


def pointer_overlap(model: MeasurementModel, which: str) -> float:
    """Record overlap raised to the factor count, for one record keeper."""
    if which == "apparatus":
        gamma, n = model.gamma_a, model.n_a
    elif which == "environment":
        gamma, n = model.gamma_e, model.n_e
    else:
        raise NotADistribution(f"which must be 'apparatus' or 'environment', got {which!r}")
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
    latest report.  It is a stack of one for `_measure`.
    """
    (report,) = _reports(psi, [_overlap_pair(model, psi)])
    return report


def _overlap_pair(model: MeasurementModel, psi: PureState) -> tuple[float, float]:
    """The apparatus and environment overlaps of a model, for a state it can measure."""
    d = model.subject_dim
    if psi.space.total_dim != d:
        raise SpaceMismatch(f"state dimension {psi.space.total_dim}, model wants {d}")
    return pointer_overlap(model, "apparatus"), pointer_overlap(model, "environment")


def _reports(psi: PureState, pairs: list[tuple[float, float]]) -> Iterator[MeasurementReport]:
    """One report per overlap pair, in order, one stacked `_measure` per block
    of states with _BLOCK_ENTRIES entries, so only one block is alive at once.

    The last pair's report goes through the state's memo, which keeps it: when
    it is already the kept report it is returned, and not measured again.  A
    report's arrays are views of its block's, so the kept one holds its block.
    """
    if not pairs:
        return
    size = max(1, _BLOCK_ENTRIES // psi.space.total_dim**2)
    final = (len(pairs) - 1) // size * size
    for first in range(0, final, size):
        yield from _measure(psi, pairs[first : first + size])
    block, fresh = pairs[final:], []

    def measured() -> MeasurementReport:
        fresh.extend(_measure(psi, block))
        return fresh[-1]

    kept = _memo(psi, "report", block[-1], measured)
    if not fresh and len(block) > 1:
        fresh.extend(_measure(psi, block[:-1]))
    yield from fresh[: len(block) - 1]
    yield kept


def _measure(psi: PureState, pairs: list[tuple[float, float]]) -> list[MeasurementReport]:
    """Reports for a block of overlap pairs (c_a, c_e), from one stacked pass.

    With c = c_a c_e, state k is psi psi^dag o (c J + (1 - c) I), a Schur
    product of two positive matrices, so it is positive.  The block is
    admitted by one `_derived` (Hermiticity and trace, no Cholesky) before
    anything is solved, then decomposed by one `_decompositions` on the
    eigensystems of `_real_form`: one real symmetric eigh for the block below
    the crossover dimension, one secular solve per state from it up.  The
    positivity verdict comes from those eigenvalues.  Orthonormality is
    checked on R's eigenvectors Q, and drift against the admitted states;
    only then are the eigenvectors Phi Q made.  Then each state's outcomes
    are matched.
    """
    amps = psi.amplitudes
    diagonal = np.arange(amps.size)
    overlaps = np.array([c_a * c_e for c_a, c_e in pairs])
    states = _decohered(amps, amps.conjugate(), overlaps)
    rhos = _derived(psi.space, states)
    decs = _decompositions(psi.space, states, lambda: _real_form(amps, overlaps))
    off = np.abs(states)
    off[:, diagonal, diagonal] = 0.0
    max_offdiag = off.max(axis=(1, 2)).tolist()
    born = np.abs(amps) ** 2
    born.setflags(write=False)
    reports = []
    for rho_s, (dec, _), (c_a, c_e), offdiag in zip(rhos, decs, pairs, max_offdiag):
        outcome_of_entry = _assign_outcomes(dec.vectors)
        deviations = np.abs(dec.probabilities - born[list(outcome_of_entry)])
        reports.append(
            MeasurementReport(
                rho_s=rho_s,
                decomposition=dec,
                born_targets=born,
                outcome_of_entry=outcome_of_entry,
                max_born_deviation=float(deviations.max()),
                max_offdiag=offdiag,
                overlap_apparatus=c_a,
                overlap_environment=c_e,
            )
        )
    return reports


# from this dimension up the real form is solved by `_secular_eigh`; below it
# LAPACK's eigh is the faster (the crossover was read off a timing ladder)
_SECULAR_DIM = 96


def _real_form(amps: np.ndarray, overlaps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real form of each state psi psi^dag o (c J + (1 - c) I), one per
    overlap c, solved: R's ascending eigenvalues and eigenvector columns Q and
    Phi's diagonal, as `_spectra` takes an eigensystem.

    That state is Phi R Phi^dag with Phi = diag(psi_i / |psi_i|), a diagonal
    unitary (phase 1 where psi_i = 0), and R = |psi| |psi|^T o (c J + (1 - c) I)
    real symmetric.  So the states share R's eigenvalues, and their
    eigenvectors are Phi Q for R's Q.  Below _SECULAR_DIM one real eigh
    solves the stack of R; from it up each R, (1 - c) diag(|psi|^2) plus the
    rank-one c |psi| |psi|^T, is solved by `_secular_eigh`, never formed.
    """
    moduli = np.hypot(amps.real, amps.imag)
    phases = np.ones(amps.size, dtype=np.complex128)
    np.divide(amps, moduli, out=phases, where=moduli > 0.0)
    if amps.size < _SECULAR_DIM:
        return (*np.linalg.eigh(_decohered(moduli, moduli, overlaps)), phases)
    rotations = np.zeros((overlaps.size, amps.size, amps.size))
    evals = np.array([_secular_eigh(moduli, c, q) for c, q in zip(overlaps.tolist(), rotations)])
    return evals, rotations, phases


def _secular_eigh(moduli: np.ndarray, c: float, q: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of R = D + c u u^T, D = (1 - c) diag(u^2) for the
    moduli u, with their eigenvector columns written into the zeroed (d, d) q.

    The poles (1 - c) u_j^2 are sorted, then deflated as LAPACK's dlaed2
    deflates them, at tol = 8 eps max(max D, c): a pole whose c |u_j| is at
    most tol (a zero modulus, or every pole at c = 0) is an eigenvalue, with
    eigenvector e_j; of two neighbouring poles whose Givens rotation, which
    moves u_j's weight onto its neighbour, leaves an off-diagonal at most tol
    (exact and near ties, every pole at c = 1), the first is.  The rest are
    the poles of the secular equation, solved by `_secular_roots`.
    """
    d = moduli.size
    order = np.argsort(moduli, kind="stable")
    z = moduli[order]
    poles = (1.0 - c) * (z * z)
    negligible = 8.0 * tol._EPS * max(float(poles[-1]), c)
    keep = c * z > negligible
    kept = np.flatnonzero(keep)
    rotations = []
    # the rotation leaves (poles_nj - poles_pj) cs sn, at most half the gap
    for i in np.flatnonzero(np.diff(poles[kept]) <= 2.0 * negligible).tolist():
        pj, nj = kept[i], kept[i + 1]
        norm = math.hypot(z[pj], z[nj])
        cs, sn = z[nj] / norm, -z[pj] / norm
        if abs((poles[nj] - poles[pj]) * cs * sn) <= negligible:
            a, b = poles[pj], poles[nj]
            poles[pj], poles[nj] = a * cs * cs + b * sn * sn, a * sn * sn + b * cs * cs
            z[nj] = norm
            keep[pj] = False
            rotations.append((order[pj], order[nj], cs, sn))
    kept, deflated = np.flatnonzero(keep), np.flatnonzero(~keep)
    roots, vectors = _secular_roots(poles[kept], z[kept], c)
    values = np.concatenate([poles[deflated], roots])
    rank = np.argsort(values, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[rank] = np.arange(d)
    q[order[deflated], column[: deflated.size]] = 1.0
    if deflated.size:
        q[np.ix_(order[kept], column[deflated.size :])] = vectors.T
    else:  # every pole is a root's, and the roots ascend as the poles do
        q[order] = vectors.T
    for i, j, cs, sn in reversed(rotations):
        q[[i, j]] = np.array([[cs, -sn], [sn, cs]]) @ q[[i, j]]
    return values[rank]


def _secular_roots(poles: np.ndarray, w: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """The roots of g(lam) = 1 / rho + sum_j w_j^2 / (poles_j - lam), for
    ascending poles and w > 0, and their Loewner eigenvectors, one row each.

    Root i lies in (poles_i, poles_i+1), and the last in (poles_-1, poles_-1
    + rho |w|^2].  Each is found as tau = lam - (its nearer pole), the
    origin, so it keeps its relative accuracy near that pole (LAPACK's
    dlaed4, after Li 1993, LAPACK Working Note 89): from the root of the
    bracket's two-pole model with the other terms frozen at the midpoint,
    by the "middle way" step, which fits each side of the sum by one pole
    and matches g and g' there.  A step that leaves the bracket halves it
    instead, and only the roots not yet converged are iterated.  Root i's
    eigenvector is zhat_j / (poles_j - lam_i), normalized, for the zhat of
    which the computed roots are the exact ones (Gu and Eisenstat, SIAM J.
    Matrix Anal. Appl. 15 (1994) 1266), so they are orthogonal to rounding.
    """
    k = poles.size
    if k < 2:
        return poles + rho * w * w, np.ones((k, k))
    w2 = w * w
    inv = 1.0 / rho
    spread = poles[None, :] - poles[:, None]  # spread[i, j] = poles_j - poles_i
    half = np.append(0.5 * np.diff(poles), 0.5 * rho * w2.sum())
    rows = np.arange(k)
    upper = np.minimum(rows + 1, k - 1)  # the model's poles: upper - 1 and upper
    work = np.empty((2, k, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(spread, half[:, None], out=work[0])
        mid = inv + np.divide(w2, work[0], out=work[0]).sum(axis=1)
        left = mid >= 0.0
        left[-1] = True
        origin = rows + ~left
        shift = spread[origin]  # shift[i, j] = poles_j - poles_origin
        lo, hi = np.where(left, 0.0, -half), np.where(left, half, 0.0)
        if mid[-1] < 0.0:
            lo[-1], hi[-1] = half[-1], 2.0 * half[-1]
        at_mid = np.where(left, half, -half)
        near, far = shift[rows, upper - 1], shift[rows, upper]
        frozen = mid - w2[upper - 1] / (near - at_mid) - w2[upper] / (far - at_mid)
        tau = _model_root(frozen, w2[upper - 1], w2[upper], near, far, lo, hi)
        live = np.ones(k, dtype=bool)
        # convergence is quadratic, in 2 to 6 passes; a root still live after
        # 64 keeps its last iterate, and `_spectra`'s checks judge the result
        for _ in range(64):
            sel = np.flatnonzero(live)
            m = sel.size
            if m == 0:
                break
            t, a, b = tau[sel], near[sel], far[sel]
            d_lo, d_hi = a - t, b - t
            ratio, below = work[0, :m], work[1, :m]
            np.subtract(shift if m == k else shift[sel], t[:, None], out=ratio)
            np.divide(w, ratio, out=ratio)
            # a middle root's poles left of it give g's negative terms; the
            # last root's model splits off the last pole's term
            np.minimum(ratio, 0.0, out=below)
            ratio -= below
            psi, phi = below @ w, ratio @ w
            dpsi, dphi = np.einsum("ij,ij->i", below, below), np.einsum("ij,ij->i", ratio, ratio)
            if sel[-1] == k - 1:
                tail = w[-1] / d_hi[-1]
                psi[-1], phi[-1] = psi[-1] - tail * w[-1], tail * w[-1]
                dpsi[-1], dphi[-1] = dpsi[-1] - tail * tail, tail * tail
            g = inv + psi + phi
            ends, tops = np.where(g < 0.0, t, lo[sel]), np.where(g > 0.0, t, hi[sel])
            lo[sel], hi[sel] = ends, tops
            # dlaed4's test: |g| within the rounding of its evaluation
            bound = 8.0 * (np.abs(psi) + np.abs(phi)) + 2.0 * inv + np.abs(t) * (dpsi + dphi)
            narrow = tops - ends <= 4.0 * tol._EPS * np.abs(t)
            done = (np.abs(g) <= tol._EPS * bound) | narrow
            model = g - d_lo * dpsi - d_hi * dphi
            step = _model_root(model, d_lo * d_lo * dpsi, d_hi * d_hi * dphi, a, b, ends, tops)
            tau[sel] = np.where(done, t, step)
            live[sel[done]] = False
        delta = np.subtract(shift, tau[:, None], out=work[0])  # poles_j - lam_i
        # lam_i - poles_j pairs with poles_i - poles_j left of pole j, and with
        # poles_i+1 - poles_j from it on: each ratio lies in (0, 1)
        pairs = np.divide(delta[:-1], spread[:-1], out=work[1, :-1])
        np.divide(delta[:-1], spread[1:], out=pairs, where=rows[:-1, None] >= rows)
        zhat = np.sqrt(np.prod(pairs, axis=0) * (-delta[-1] / rho))
        vectors = np.divide(zhat, delta, out=work[1])
    vectors /= np.sqrt(np.einsum("ij,ij->i", vectors, vectors))[:, None]
    return poles[origin] + tau, vectors


def _model_root(
    c: np.ndarray, wa: np.ndarray, wb: np.ndarray, a: np.ndarray, b: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> np.ndarray:
    """The root x in (lo, hi) of c + wa / (a - x) + wb / (b - x), each root
    of the quadratic taken in its cancellation-free form, else (lo + hi) / 2."""
    qb = -(c * (a + b) + wa + wb)
    qc = c * a * b + wa * b + wb * a
    q = -0.5 * (qb + np.copysign(np.sqrt(np.abs(qb * qb - 4.0 * c * qc)), qb))
    small, large = qc / q, q / c
    inside = (large > lo) & (large < hi)
    step = np.where(inside, large, 0.5 * (lo + hi))
    return np.where((small > lo) & (small < hi), small, step)


def _decohered(column: np.ndarray, row: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """The stack column row^T o (c J + (1 - c) I), one matrix per overlap c."""
    d = column.size
    diagonal = np.arange(d)
    stack = np.empty((overlaps.size, d, d), dtype=np.result_type(column, row))
    stack[:] = overlaps[:, None, None]
    stack[:, diagonal, diagonal] = 1.0
    return np.multiply(np.outer(column, row), stack, out=stack)


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
    (rounded) at each total count; rates and duration carry over unchanged,
    so each count's overlaps are the template's per-factor ones raised to
    its factor counts, and its entropy floor is error_entropy_bound's.
    Every count is validated before anything is measured, in order, the
    state's dimension with the first.  The states are measured in blocks of
    _BLOCK_ENTRIES entries, one stacked pass each, so a sweep holds one block
    at a time; each point is bit for bit the one a per-count
    simulate_measurement gives.  The state keeps the last count's report, as
    simulate_measurement would leave it.
    """
    n0 = model.n_a + model.n_e
    splits, per_factor = [], None
    for raw in n_values:
        n = _integral(raw)
        if n is None or n < 0:
            raise NotADistribution(f"factor count {raw!r} is not a non-negative integer")
        _check_float_range(n)
        if per_factor is None:
            # a one-factor model's pointer overlaps: the clamped, range-checked per-factor ones
            per_factor = _overlap_pair(replace(model, n_a=1, n_e=1), psi)
        n_a = round(n * model.n_a / n0) if n0 > 0 else n - n // 2
        splits.append((n_a, n - n_a))
    pairs = [(per_factor[0] ** n_a, per_factor[1] ** n_e) for n_a, n_e in splits]
    points = []
    for (n_a, n_e), report in zip(splits, _reports(psi, pairs)):
        s_max, bound = _entropy_floor(n_a)
        points.append(
            SweepPoint(
                n=n_a + n_e,
                n_a=n_a,
                n_e=n_e,
                overlap_a=report.overlap_apparatus,
                overlap_e=report.overlap_environment,
                max_offdiag=report.max_offdiag,
                max_born_deviation=report.max_born_deviation,
                s_max=s_max,
                bound=bound,
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
    s_max, bound = _entropy_floor(model.n_a)
    satisfied = observed_deviation >= bound / tol.ENTROPY_SLACK
    return BoundReport(s_max=s_max, bound=bound, satisfied=satisfied)


def _entropy_floor(n_a: int) -> tuple[float, float]:
    """Record entropy N_A ln 2 of the apparatus, and the floor exp(-N_A ln 2)."""
    s_max = n_a * math.log(2.0)
    return s_max, math.exp(-s_max)

