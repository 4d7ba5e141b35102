"""Spectral decompositions of density matrices and conditional probabilities.

A density matrix's eigendecomposition is read as an exhaustive list of
possible configurations with their probabilities.  Configurations are
ordered by descending probability; exact ties, and only they, are broken
by one lexsort on the (re, im) pairs of the phase-canonical eigenvectors,
amplitude by amplitude.  Null configurations, with a probability below
NULL_PROBABILITY, are kept so tables built from two decompositions stay
square.  Inside a degenerate eigenspace the eigenbasis is a numerically
arbitrary choice, so a table indexed by these eigenvectors is not
continuous in rho there.  The eigensolve, phase rule, order and checks are
written for a stack of density matrices (one stacked eigh, each check once
over the stack); a single state is a stack of one, and a trajectory chain
decomposes all its states together.

Conditional probabilities link a parent-space decomposition at one time
to subsystem decompositions at a later time through a channel:

    p(i1..in | w) = Tr[ (P_1(i1) (x) ... (x) P_n(in)) ch(P_W(w)) ]
                  = sum_k |<c| K_k |w>|^2,

where |w> is a parent eigenvector, K_k are the channel's Kraus operators
and |c> is the product of one subsystem eigenvector per factor group.
One kernel computes every table in this vector form from the amplitudes
K_k W, for the subsystem tables here (opendyn's system table is a marginal
of one) and every step of a trajectory chain, so no per-configuration
projector is ever formed.  Like the eigensolve it takes stacks, of
amplitudes and of group eigenvectors, and returns one table per slice.
Each group's reduced state is read off the same amplitudes, as the Gram
form of K W weighted by rho's unclipped eigenvalues, the group's axes first,
so no evolved state ch(rho) is formed either.  It is checked as a
`DensityMatrix` is, but takes its positivity verdict from its eigensolve.
Rows are distributions whenever the channel is trace preserving and the
subsystem eigenvectors complete, as the kernel and the table type check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tolerances as tol
from .channels import QuantumChannel, apply  # noqa: F401 (perfbench reads ontic.apply)
from .errors import NotADistribution, SpaceMismatch, ToleranceBreach
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    _admit,
    _as_complex,
    _canonical_phase,
    _check_partition,
    _memo,
)

__all__ = [
    "OnticDecomposition",
    "ConditionalProbabilityTable",
    "ontic_decomposition",
    "conditional_probabilities",
    "single_system_conditional",
    "bayesian_propagation_check",
]


@dataclass(frozen=True, eq=False)
class OnticDecomposition:
    """Complete eigensystem of a density matrix, in canonical order: read-only
    `probabilities` (n,) and phase-canonical eigenvector columns `vectors`
    (d, n).
    """

    source_space: HilbertSpace
    probabilities: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=float)
        probs.setflags(write=False)
        vecs = _as_complex(self.vectors, (self.source_space.total_dim, probs.size), "vectors")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "vectors", vecs)
        _check_spectra(probs[None], tol.isometry_defect(vecs[None]))
        tol.check(-probs.min(), tol.DERIVED, NotADistribution, "probability negativity")


def ontic_decomposition(rho: DensityMatrix) -> OnticDecomposition:
    """Eigendecompose a density matrix into its canonical configuration list.

    Computed once per state object, with every check on the first call; a
    repeat call returns the same read-only decomposition.
    """
    return _eigensystem(rho)[0]


def _eigensystem(rho: DensityMatrix) -> tuple[OnticDecomposition, np.ndarray]:
    """The memoized decomposition and rho's unclipped eigenvalues in its order:
    sum_w lambda_w |w><w| is rho even where the clip drops an admitted lambda < 0."""
    return _memo(
        rho, "decomposition", None, lambda: _decompositions(rho.space, rho.matrix[None])[0]
    )


def _decompositions(
    space: HilbertSpace,
    matrices: np.ndarray,
    eigensystem: Callable[[], tuple[np.ndarray, ...]] | None = None,
) -> list[tuple[OnticDecomposition, np.ndarray]]:
    """(decomposition, unclipped eigenvalues) of each matrix of an (n, d, d)
    stack on `space`, from one `_spectra` (which takes `eigensystem`): its
    eigenvalues give each matrix its positivity verdict.  The arrays are
    read-only views of the stacked ones."""
    probs, vecs, evals = _spectra(matrices, eigensystem)
    probs.setflags(write=False)
    vecs.setflags(write=False)
    decs = [object.__new__(OnticDecomposition) for _ in matrices]
    for dec, fields in zip(decs, zip(probs, vecs)):
        # _spectra has run every check of __post_init__: set the fields without it
        for name, value in zip(("source_space", "probabilities", "vectors"), (space, *fields)):
            object.__setattr__(dec, name, value)
    return list(zip(decs, evals))


def _spectra(
    matrices: np.ndarray, eigensystem: Callable[[], tuple[np.ndarray, ...]] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical eigensystems of an (n, d, d) stack of density matrices, by one
    stacked eigh: probabilities (n, d) clipped to [0, 1], phase-canonical
    eigenvector columns (n, d, d) and the eigenvalues (n, d) before the clip,
    each matrix's in configuration order.

    A caller whose matrices are Phi R Phi^dag, with Phi a diagonal unitary and
    R real symmetric (the measurement's real form), passes `eigensystem`,
    called with no argument for R's ascending eigenvalues and eigenvector
    columns Q and Phi's diagonal, in place of the eigh.  The eigenvectors are
    then Phi Q, made here, so only this function holds them.

    Checked, each check once over the stack: positivity off the eigenvalues,
    then the probability sum, the orthonormality of the eigenvectors and the
    drift of the rebuilt stack from `matrices`.  Without `eigensystem` the
    last two are V^dag V - I and V lambda V^dag - rho on the complex
    eigenvectors V.  With it they are taken in the real gauge, before Phi Q is
    made (`_real_gauge_defects`), plus `_gauge_rounding(d)`, so neither reads
    below the complex defect it replaces."""
    count, d = matrices.shape[:2]
    if eigensystem is None:
        evals, evecs = np.linalg.eigh(matrices)
        # (d, n, d): every eigenvector of the stack as one column of a (d, n d) matrix
        evecs = evecs.reshape(count, d, d).transpose(1, 0, 2)
    else:
        evals, rotations, phases = eigensystem()
        # one complex buffer holds the drift's temporary, then the eigenvectors:
        # a fresh d = 128 complex matrix is above malloc's mmap threshold
        evecs = np.empty((d, count, d), dtype=np.complex128)
        gauge = _real_gauge_defects(
            matrices, np.clip(evals, 0.0, 1.0), rotations, phases, evecs.reshape(count, d, d)
        )
        ortho, drift = (defect + _gauge_rounding(d) for defect in gauge)
        np.multiply(phases[:, None, None], rotations.transpose(1, 0, 2), out=evecs)
        del rotations
    tol.check(-float(evals[..., 0].min()), -tol.EIG_FLOOR, ToleranceBreach, "eigenvalue negativity")
    probs = np.clip(evals, 0.0, 1.0).reshape(count, d)
    columns = _canonical_phase(evecs.reshape(d, -1))
    # a chain's stack holds every state it evolves: keep few copies of it alive
    del evecs
    offsets = d * np.arange(count)[:, None]
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = probs.take(order + offsets)
    for k in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)):
        tied = columns[:, k * d : (k + 1) * d]
        # rows re_0, im_0, re_1, im_1, ...: the lexicographic tie-break keys
        keys = np.stack([tied.real, tied.imag], axis=1).reshape(-1, d)
        order[k] = np.lexsort((*keys[::-1], -probs[k]))
        ranked[k] = probs[k, order[k]]
    ordered = columns.take((order + offsets).ravel(), axis=1).reshape(d, count, d)
    del columns
    # C-ordered matrices, as every matrix here is: products with them round alike
    vecs = np.ascontiguousarray(ordered.transpose(1, 0, 2))
    del ordered
    if eigensystem is None:
        rebuilt = (vecs * ranked[:, None, :]) @ vecs.conjugate().swapaxes(1, 2)
        ortho, drift = tol.isometry_defect(vecs), float(np.max(np.abs(rebuilt - matrices)))
    _check_spectra(ranked, ortho)
    tol.check(drift, tol.DERIVED, ToleranceBreach, "reconstruction drift")
    return ranked, vecs, evals.take(order + offsets)


def _real_gauge_defects(
    matrices: np.ndarray, probs: np.ndarray, rotations: np.ndarray, phases: np.ndarray,
    out: np.ndarray,
) -> tuple[float, float]:
    """Orthonormality and drift of the eigenvectors Phi Q of an (n, d, d) stack
    `matrices` = Phi R Phi^dag, for the clipped eigenvalues p: max |Q^T Q - I|
    and max |Phi (Q p Q^T) Phi^dag - matrices|, in exact arithmetic those of
    V^dag V - I and V p V^dag - matrices for V = Phi Q.  Q p Q^T is float64; its
    phase products are formed in `out`, a complex buffer the caller owns."""
    ortho = tol.isometry_defect(rotations)
    rebuilt = (rotations * probs[:, None, :]) @ rotations.swapaxes(1, 2)
    np.multiply(rebuilt, phases[:, None], out=out)
    out *= phases.conjugate()
    out -= matrices
    return ortho, float(np.max(np.abs(out, out=rebuilt)))


def _gauge_rounding(d: int) -> float:
    """A bound, to first order in the unit roundoff u = eps / 2, on how far a
    complex defect of `_spectra` can read above its real-gauge counterpart
    from `_real_gauge_defects` through rounding alone, at dimension d.  A
    complex inner product of length d rounds within sqrt(2) (d + 2) u and a
    real one within d u (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3.1 and 3.6); the phases, Phi Q, its
    canonical phase, and the drift's two unit-phase products and one
    subtraction add at most 34 u.  In all sqrt(2) (d + 2) u + d u + 34 u,
    below 2 (d + 9) eps for every d >= 1."""
    return 2 * (d + 9) * tol._EPS


def _check_spectra(probs: np.ndarray, ortho: float) -> None:
    """Probability sum of an (n, m) stack of eigensystems, once for the whole
    stack, then their eigenvectors' orthonormality defect `ortho`."""
    total = float(np.abs(probs.sum(axis=1) - 1.0).max())
    tol.check(total, tol.DERIVED, ToleranceBreach, "probability sum defect")
    tol.check(ortho, tol.DERIVED, ToleranceBreach, "eigenvector orthonormality defect")


# ---------------------------------------------------------------------------
# conditional probability tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionalProbabilityTable:
    """Rows: parent configurations at t.  Columns: joint subsystem
    configurations at t'.  Values: conditional probabilities.

    Rows must be probability distributions; entries may undershoot zero
    only within the eigenvalue floor and are clamped to zero for output.
    `splits` records which factor labels each column index position refers
    to; synthetic kernels may leave it None.
    """

    parent_indices: tuple[int, ...]
    column_indices: tuple[tuple[int, ...], ...]
    values: np.ndarray
    splits: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        shape = (len(self.parent_indices), len(self.column_indices))
        if vals.shape != shape:
            raise SpaceMismatch(f"values shape {vals.shape}, expected {shape}")
        object.__setattr__(self, "values", _checked_values(vals[None])[0])
        object.__setattr__(self, "parent_indices", tuple(int(i) for i in self.parent_indices))
        object.__setattr__(
            self, "column_indices", tuple(tuple(int(i) for i in c) for c in self.column_indices)
        )
        if self.splits is not None:
            object.__setattr__(
                self, "splits", tuple(tuple(str(l) for l in g) for g in self.splits)
            )


def _checked_values(values: np.ndarray) -> np.ndarray:
    """An (n, rows, cols) stack of table values, each check once over the stack:
    entry negativity, then row sums.  Returned clipped at zero and read-only."""
    tol.check(-float(values.min()), tol.DERIVED, ToleranceBreach, "table entry negativity")
    worst = float(np.max(np.abs(values.sum(axis=2) - 1.0)))
    tol.check(worst, tol.ROW_SUM, ToleranceBreach, "row sum defect")
    values = np.clip(values, 0.0, None)
    values.setflags(write=False)
    return values


def _kernel_table(
    out: HilbertSpace,
    amp: np.ndarray,
    groups: Sequence[tuple[Sequence[str], np.ndarray]],
    splits: Sequence[Sequence[str]],
) -> list[ConditionalProbabilityTable]:
    """Tables values[w, c] = sum_k |<c| K_k |w>|^2, one per slice of a stack.

    `amp` is an (n, n_k, d_out, n_w) stack of K_k W, the Kraus operators
    applied to each slice's parent eigenvector columns, on the output space
    `out`.  `groups` partitions its factors into (labels, bases) pairs;
    `bases` is an (n, d_g, m_g) stack of a group's eigenvectors as columns,
    on the group's factors in the order its labels list them.  Each |c>
    takes one column per group, enumerated in itertools.product order.
    The table checks run once over the stack, so no `__post_init__` runs;
    table k's values are slice k of the clipped stack, laid out as the
    constructor's copy would be.  `splits` is stored on every table.
    """
    order = [2 + out.axis(label) for labels, _ in groups for label in labels]
    n, n_k, _, n_w = amp.shape
    amp = amp.reshape(n, n_k, *out.dims, n_w).transpose(0, 1, *order, len(order) + 2)
    shape = [n_k]
    for labels, bases in groups:
        d_g = math.prod(out.dim_of(label) for label in labels)
        amp = bases.conjugate().swapaxes(1, 2)[:, None] @ amp.reshape(n, math.prod(shape), d_g, -1)
        shape.append(amp.shape[2])
    probs = (amp.real ** 2 + amp.imag ** 2).reshape(n, *shape, n_w)
    values = _checked_values(probs.sum(axis=1).reshape(n, -1, n_w).swapaxes(1, 2))
    fields = {
        "parent_indices": tuple(range(n_w)),
        "column_indices": tuple(itertools.product(*map(range, shape[1:]))),
        "splits": tuple(tuple(str(l) for l in g) for g in splits),
    }
    tables = [object.__new__(ConditionalProbabilityTable) for _ in values]
    for table, vals in zip(tables, values):
        for name, value in {**fields, "values": vals}.items():
            object.__setattr__(table, name, value)
    return tables


def _conditional_core(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
):
    """(table, parent, reduced_states, reduced_decs), validated on every call
    and computed once per (state, channel object, splits)."""
    if rho_w_t.space != ch_w.in_space:
        raise SpaceMismatch(
            f"state on {rho_w_t.space.labels}, channel takes {ch_w.in_space.labels}"
        )
    split_labels = tuple(tuple(g) for g in splits)
    _check_partition(ch_w.out_space, split_labels)
    # the channel is compared by identity: QuantumChannel has eq=False
    key = (ch_w, split_labels)
    return _memo(rho_w_t, "table", key, lambda: _tabulate(ch_w, rho_w_t, split_labels))


def _tabulate(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    split_labels: tuple[tuple[str, ...], ...],
):
    """Reduced states as Gram forms amp lambda amp^dag of amp = K W, partial traces of K rho K^dag.
    Axes before a group's first are one batched matmul's batch: only non-adjacent factors copy."""
    out = ch_w.out_space
    parent, evals = _eigensystem(rho_w_t)
    amp = ch_w.kraus @ parent.vectors
    amps = amp.reshape(len(amp), *out.dims, -1)
    weighted = amps.conjugate()
    weighted *= evals
    reduced_states, reduced_decs = [], []
    for space in map(out.subspace, split_labels):
        axes = [1 + out.axis(label) for label in space.labels]
        perm = [*range(axes[0]), *axes, *(a for a in range(axes[0], amps.ndim) if a not in axes)]
        shape = (math.prod(amps.shape[: axes[0]]), space.total_dim, -1)
        x, y = (a.transpose(perm).reshape(shape) for a in (amps, weighted))
        state = (x @ y.swapaxes(1, 2)).sum(axis=0)
        state.setflags(write=False)
        _admit(state[None])
        reduced_states.append(state)
        reduced_decs.append(_decompositions(space, state[None])[0][0])
    del weighted, x, y  # freed before the kernel's own temporaries
    groups = [(dec.source_space.labels, dec.vectors[None]) for dec in reduced_decs]
    (table,) = _kernel_table(out, amp[None], groups, split_labels)
    return table, parent, tuple(reduced_states), tuple(reduced_decs)


def conditional_probabilities(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
) -> ConditionalProbabilityTable:
    """Joint subsystem configuration probabilities conditioned on the parent.

    The parent's eigenvectors at t are pushed through the Kraus operators and
    projected onto the eigenconfigurations of each subsystem's reduced state
    at t', read off the same amplitudes: ch(rho) is never formed.  Null parent
    configurations get rows too: valid conditioning events of probability zero.

    The arguments are validated on every call.  The amplitudes, the
    decompositions and the table are computed once per (state object,
    channel object, splits) and kept on the state, which holds only its
    latest table; a repeat call returns the same read-only table.
    """
    return _conditional_core(ch_w, rho_w_t, splits)[0]


def single_system_conditional(
    ch: QuantumChannel, rho_t: DensityMatrix
) -> ConditionalProbabilityTable:
    """Conditional table for the undivided output system, linking t to t'."""
    return _conditional_core(ch, rho_t, [list(ch.out_space.labels)])[0]


def bayesian_propagation_check(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
) -> float:
    """Largest gap between direct and chained first-subsystem probabilities.

    Direct route: v^dag rho_1 v for each eigenvector v of the first
    subsystem's reduced state rho_1.  Chained route: the table summed against
    the parent probabilities, the other subsystems marginalized; they agree
    for any trace-preserving channel.  rho_1 is a second contraction, the Gram
    form, of the amplitudes K_k W the table contracts, so the gap tests the
    kernel's group contraction and the completeness of the other groups'
    bases, not the evolution.  It reuses the core memoized for its arguments.
    """
    table, parent, reduced_states, reduced_decs = _conditional_core(ch_w, rho_w_t, splits)
    vecs = reduced_decs[0].vectors
    direct = _quadratic_forms(reduced_states[0], vecs)
    chained = parent.probabilities @ _first_group_marginal(table, vecs.shape[1])
    return float(np.max(np.abs(direct - chained)))


def _quadratic_forms(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Re v^dag M v for every column v of a (d, n) stack, in one matrix product."""
    return np.real(np.sum(vectors.conjugate() * (matrix @ vectors), axis=0))


def _first_group_marginal(table: ConditionalProbabilityTable, n_first: int) -> np.ndarray:
    """A joint table's values with every group after the first summed out."""
    return table.values.reshape(len(table.parent_indices), n_first, -1).sum(axis=2)

