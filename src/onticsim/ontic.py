"""Spectral decompositions of density matrices and conditional probabilities.

A density matrix's eigendecomposition is read as an exhaustive list of
possible configurations with their probabilities.  Configurations are
ordered by descending probability; exact ties, and only they, are broken
by one lexsort on the (re, im) pairs of the phase-canonical eigenvectors,
amplitude by amplitude.
Null configurations, with a probability below NULL_PROBABILITY, are kept
so tables built from two decompositions stay square.  Inside a degenerate
eigenspace the eigenbasis is a numerically arbitrary choice, so a table
indexed by these eigenvectors is not continuous in rho there.  The eigensolve,
phase rule, order and checks are written for a stack of density matrices
(one stacked eigh, each check once over the stack); a single state is a
stack of one, and a trajectory chain decomposes all its states together.

Conditional probabilities link a parent-space decomposition at one time
to subsystem decompositions at a later time through a channel:

    p(i1..in | w) = Tr[ (P_1(i1) (x) ... (x) P_n(in)) ch(P_W(w)) ]
                  = sum_k |<c| K_k |w>|^2,

where |w> is a parent eigenvector, K_k are the channel's Kraus operators
and |c> is the product of one subsystem eigenvector per factor group.
One kernel computes every table in this vector form and builds the
table object around it, for the subsystem tables here (opendyn's system
table is a marginal of one) and every step of a trajectory chain, so no
per-configuration projector is ever formed or stored.  Like the eigensolve
it is written for a stack: it takes stacks of parent and group eigenvectors
as plain arrays and returns one table per slice.  A single table is a stack
of one; a chain passes slices of its stacked eigensolve.

Each row is a probability distribution whenever the channel is trace
preserving and the subsystem eigenvectors are complete, which the kernel
checks once over its stack and the table type checks at construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import QuantumChannel, apply
from .errors import SpaceMismatch, ToleranceBreach
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    _as_complex,
    _canonical_phase,
    _check_partition,
    _csv_text,
    _memo,
    partial_trace,
)

__all__ = [
    "OnticDecomposition",
    "ConditionalProbabilityTable",
    "ontic_decomposition",
    "conditional_probabilities",
    "single_system_conditional",
    "bayesian_propagation_check",
    "table_to_csv",
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
        _check_spectra(probs[None], vecs[None])


def ontic_decomposition(rho: DensityMatrix) -> OnticDecomposition:
    """Eigendecompose a density matrix into its canonical configuration list.

    Computed once per state object, with every check on the first call; a
    repeat call returns the same read-only decomposition.
    """
    return _memo(rho, "decomposition", None, lambda: _decompose(rho))


def _decompose(rho: DensityMatrix) -> OnticDecomposition:
    stacked_probs, stacked_vecs = _spectra(rho.matrix[None])
    probs, vecs = stacked_probs[0], stacked_vecs[0]
    probs.setflags(write=False)
    vecs.setflags(write=False)
    # _spectra has run every check of __post_init__: set the fields without it
    dec = object.__new__(OnticDecomposition)
    for name, value in zip(("source_space", "probabilities", "vectors"), (rho.space, probs, vecs)):
        object.__setattr__(dec, name, value)
    return dec


def _spectra(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigensystems of an (n, d, d) stack of density matrices, by one
    stacked eigh: probabilities (n, d) clipped to [0, 1] and phase-canonical
    eigenvector columns (n, d, d), each matrix's in configuration order.
    Checked, each check once over the stack: the probability sum and
    orthonormality of `OnticDecomposition`, then the reconstruction drift."""
    evals, evecs = np.linalg.eigh(matrices)
    count, d = matrices.shape[:2]
    probs = np.clip(evals, 0.0, 1.0).reshape(count, d)
    # every eigenvector of the stack as one column of a (d, n d) matrix
    columns = _canonical_phase(evecs.reshape(count, d, d).transpose(1, 0, 2).reshape(d, -1))
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
    _check_spectra(ranked, vecs)
    rebuilt = (vecs * ranked[:, None, :]) @ vecs.conjugate().swapaxes(1, 2)
    drift = float(np.max(np.abs(rebuilt - matrices)))
    tol.check(drift, tol.DERIVED, ToleranceBreach, "reconstruction drift")
    return ranked, vecs


def _check_spectra(probs: np.ndarray, vecs: np.ndarray) -> None:
    """Probability sum and orthonormality of an (n, m) and (n, d, m) stack of
    eigensystems, each once for the whole stack."""
    total = float(np.abs(probs.sum(axis=1) - 1.0).max())
    tol.check(total, tol.DERIVED, ToleranceBreach, "probability sum defect")
    ortho = tol.isometry_defect(vecs)
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
    ch: QuantumChannel,
    parents: np.ndarray,
    groups: Sequence[tuple[Sequence[str], np.ndarray]],
    splits: Sequence[Sequence[str]],
) -> list[ConditionalProbabilityTable]:
    """Tables values[w, c] = sum_k |<c| K_k |w>|^2, one per slice of a stack.

    `parents` is an (n, d_in, n_w) stack of parent eigenvectors as columns,
    on the channel's input space.  `groups` partitions the channel's output
    factors into (labels, bases) pairs; `bases` is an (n, d_g, m_g) stack
    of a group's eigenvectors as columns, on the group's factors in the
    order its labels list them.  Each |c> takes one column per group,
    enumerated in itertools.product order.  K_k W is computed once for the
    stack, its output factors are moved into group order by one transpose,
    and each group axis is contracted with V_g^dag by one batched matmul.
    The table checks run once over the stack, so no `__post_init__` runs;
    table k's values are slice k of the clipped stack, laid out as the
    constructor's copy would be.  `splits` is stored on every table.
    """
    out = ch.out_space
    order = [2 + out.axis(label) for labels, _ in groups for label in labels]
    amp = ch.kraus[None] @ parents[:, None]
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
    return _memo(rho_w_t, "table", key, lambda: _evolve_and_tabulate(ch_w, rho_w_t, split_labels))


def _evolve_and_tabulate(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    split_labels: tuple[tuple[str, ...], ...],
):
    parent = ontic_decomposition(rho_w_t)
    evolved = apply(ch_w, rho_w_t)

    reduced_states = tuple(
        partial_trace(evolved, g) if len(g) < len(evolved.space.factors) else evolved
        for g in split_labels
    )
    reduced_decs = tuple(map(ontic_decomposition, reduced_states))

    (table,) = _kernel_table(
        ch_w,
        parent.vectors[None],
        [(dec.source_space.labels, dec.vectors[None]) for dec in reduced_decs],
        split_labels,
    )
    return table, parent, reduced_states, reduced_decs


def conditional_probabilities(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
) -> ConditionalProbabilityTable:
    """Joint subsystem configuration probabilities conditioned on the parent.

    The parent state at t is decomposed, pushed through the channel, and
    projected onto the eigenconfigurations of each subsystem's reduced
    state at t'.  Null parent configurations get rows too: they are valid
    conditioning events of probability zero.

    The arguments are validated on every call.  The evolution, the
    decompositions and the table are computed once per (state object,
    channel object, splits) and kept on the state, which holds only its
    latest table; a repeat call returns the same read-only table.
    """
    table, _, _, _ = _conditional_core(ch_w, rho_w_t, splits)
    return table


def single_system_conditional(
    ch: QuantumChannel, rho_t: DensityMatrix
) -> ConditionalProbabilityTable:
    """Conditional table for the undivided system, linking t to t'."""
    table, _, _, _ = _conditional_core(ch, rho_t, [list(rho_t.space.labels)])
    return table


def bayesian_propagation_check(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
) -> float:
    """Largest gap between direct and chained first-subsystem probabilities.

    Direct route: the quadratic form v^dag rho_1 v of each first-subsystem
    eigenvector on the first subsystem's reduced state after the channel.
    Chained route: sum the conditional table against the parent
    probabilities and marginalize the other subsystems.  The two must
    agree for any trace-preserving channel.  After `conditional_probabilities`
    on the same state, channel object and splits, it reuses that call's
    evolved state, reduced decompositions and table.
    """
    table, parent, reduced_states, reduced_decs = _conditional_core(ch_w, rho_w_t, splits)
    vecs = reduced_decs[0].vectors
    direct = _quadratic_forms(reduced_states[0].matrix, vecs)
    chained = parent.probabilities @ _first_group_marginal(table, vecs.shape[1])
    return float(np.max(np.abs(direct - chained)))


def _quadratic_forms(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Re v^dag M v for every column v of a (d, n) stack, in one matrix product."""
    return np.real(np.sum(vectors.conjugate() * (matrix @ vectors), axis=0))


def _first_group_marginal(table: ConditionalProbabilityTable, n_first: int) -> np.ndarray:
    """A joint table's values with every group after the first summed out."""
    return table.values.reshape(len(table.parent_indices), n_first, -1).sum(axis=2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def table_to_csv(table: ConditionalProbabilityTable) -> str:
    """Rows of `w,i1,...,in,p`, one line per table cell."""
    header = ["w", *(f"i{k + 1}" for k in range(len(table.column_indices[0]))), "p"]
    rows, cols = table.values.shape
    combos = np.tile(np.array(table.column_indices, dtype=np.int64), (rows, 1))
    parents = np.repeat(np.array(table.parent_indices, dtype=np.int64), cols)
    return _csv_text(header, [parents, *combos.T, table.values.ravel()])
