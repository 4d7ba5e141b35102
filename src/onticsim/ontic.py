"""Spectral decompositions of density matrices and conditional probabilities.

A density matrix's eigendecomposition is read as an exhaustive list of
possible configurations with their probabilities.  Entries are ordered by
descending probability; one lexsort breaks exact ties by the (re, im)
pairs of the phase-canonical eigenvectors, amplitude by amplitude.
Near-zero eigenvalues are kept but flagged null so tables built from two
decompositions stay square, and near-coincident eigenvalues are reported
as degeneracy groups because the eigenbasis inside such a group is a
numerically arbitrary choice.

Conditional probabilities link a parent-space decomposition at one time
to subsystem decompositions at a later time through a channel:

    p(i1..in | w) = Tr[ (P_1(i1) (x) ... (x) P_n(in)) ch(P_W(w)) ]
                  = sum_k |<c| K_k |w>|^2,

where |w> is a parent eigenvector, K_k are the channel's Kraus operators
and |c> is the product of one subsystem eigenvector per factor group.
One kernel computes every table in this vector form and builds the
table object around it, for the subsystem tables here, the system table
in opendyn and each step of a trajectory chain, so no per-configuration
projector is ever formed or stored.

Each row is a probability distribution whenever the channel is trace
preserving and the subsystem eigenvectors are complete, which the table
type checks at construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import QuantumChannel, apply
from .errors import NotPSD, SpaceMismatch, ToleranceBreach
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    PureState,
    _as_complex,
    _canonical_phase,
    _check_partition,
    _csv_text,
    partial_trace,
)

__all__ = [
    "OnticEntry",
    "OnticDecomposition",
    "ConditionalProbabilityTable",
    "ontic_decomposition",
    "conditional_probabilities",
    "single_system_conditional",
    "bayesian_propagation_check",
    "psd_pairing_check",
    "table_to_csv",
    "table_to_json",
]


@dataclass(frozen=True, eq=False)
class OnticEntry:
    """One eigenvalue/eigenvector pair of a density matrix."""

    probability: float
    state: PureState
    null: bool

    @property
    def projector(self) -> np.ndarray:
        return self.state.projector()


@dataclass(frozen=True, eq=False)
class OnticDecomposition:
    """Complete eigensystem of a density matrix, in canonical order: read-only
    `probabilities` (n,) and phase-canonical eigenvector columns `vectors`
    (d, n).  `entries` is a view built on demand, one OnticEntry per column;
    its PureState re-applies the phase rule, so may differ in the last bit.
    """

    source_space: HilbertSpace
    probabilities: np.ndarray
    vectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=float)
        probs.setflags(write=False)
        vecs = _as_complex(self.vectors, (self.source_space.total_dim, probs.size), "vectors")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "vectors", vecs)
        total = probs.sum()
        if not (abs(total - 1.0) <= tol.DERIVED):
            raise ToleranceBreach(f"probabilities sum to {total}")
        gram = vecs.conjugate().T @ vecs
        ortho = np.max(np.abs(gram - np.eye(probs.size)))
        if not (ortho <= tol.DERIVED):
            raise ToleranceBreach(f"eigenvectors not orthonormal, defect {ortho}")

    @property
    def entries(self) -> tuple[OnticEntry, ...]:
        return tuple(
            OnticEntry(p, PureState(self.source_space, v), p < tol.NULL_PROBABILITY)
            for p, v in zip(self.probabilities.tolist(), self.vectors.T)
        )

    def reconstruct(self) -> np.ndarray:
        vecs = self.vectors
        return (vecs * self.probabilities) @ vecs.conjugate().T


def ontic_decomposition(
    rho: DensityMatrix, delta_deg: float = tol.DEGENERACY_GAP
) -> OnticDecomposition:
    """Eigendecompose a density matrix into its canonical configuration list."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    probs = np.clip(evals, 0.0, 1.0)
    vecs = _canonical_phase(evecs)
    # rows re_0, im_0, re_1, im_1, ...: the lexicographic tie-break keys
    keys = np.stack([vecs.real, vecs.imag], axis=1).reshape(-1, probs.size)
    order = np.lexsort((*keys[::-1], -probs))
    # take keeps the stack C-ordered, as every matrix here is; [:, order] would not
    probs, vecs = probs[order], vecs.take(order, axis=1)

    groups: list[tuple[int, ...]] = []
    start = 0
    for k in range(1, probs.size + 1):
        if k == probs.size or probs[start] - probs[k] >= delta_deg:
            if k - start > 1:
                groups.append(tuple(range(start, k)))
            start = k

    dec = OnticDecomposition(rho.space, probs, vecs, tuple(groups))
    drift = np.max(np.abs(dec.reconstruct() - rho.matrix))
    if not (drift <= tol.DERIVED):
        raise ToleranceBreach(f"decomposition reconstructs source within {drift} only")
    return dec


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
        lo = float(vals.min())
        if not (lo >= -tol.DERIVED):
            raise ToleranceBreach(f"conditional probability {lo} below floor")
        sums = vals.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0)))
        if not (worst <= tol.ROW_SUM):
            raise ToleranceBreach(f"row sum deviates from 1 by {worst}")
        vals = np.clip(vals, 0.0, None)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "parent_indices", tuple(int(i) for i in self.parent_indices))
        object.__setattr__(
            self, "column_indices", tuple(tuple(int(i) for i in c) for c in self.column_indices)
        )
        if self.splits is not None:
            object.__setattr__(
                self, "splits", tuple(tuple(str(l) for l in g) for g in self.splits)
            )


def _kernel_table(
    ch: QuantumChannel,
    parent: OnticDecomposition,
    groups: Sequence[tuple[Sequence[str], np.ndarray | None]],
    splits: Sequence[Sequence[str]],
) -> ConditionalProbabilityTable:
    """The table values[w, c] = sum_k |<c| K_k |w>|^2 over the parent eigenvectors |w>.

    `groups` partitions the channel's output factors into (labels, basis)
    pairs; a basis holds a group's eigenvectors as columns, on the group's
    factors in the order its labels list them.  Each |c> takes one column per
    group, enumerated in itertools.product order.  A group whose basis is
    None is summed out, which marginalizes it.  K_k W is computed once,
    its output factors are moved into group order by one transpose, and
    each group axis is contracted with V_g^dag.  `splits` is stored on the
    table as given.
    """
    out = ch.out_space
    order = [1 + out.axis(label) for labels, _ in groups for label in labels]
    amp = ch.kraus @ parent.vectors
    n_k, _, n_w = amp.shape
    amp = amp.reshape(n_k, *out.dims, n_w).transpose(0, *order, len(order) + 1)
    shape = [n_k]
    for labels, basis in groups:
        d_g = math.prod(out.dim_of(label) for label in labels)
        amp = amp.reshape(math.prod(shape), d_g, -1)
        if basis is not None:
            amp = basis.conjugate().T @ amp
        shape.append(amp.shape[1])
    probs = (amp.real ** 2 + amp.imag ** 2).reshape(*shape, n_w)
    kept = [n for n, (_, basis) in zip(shape[1:], groups) if basis is not None]
    summed = (0, *(1 + g for g, (_, basis) in enumerate(groups) if basis is None))
    return ConditionalProbabilityTable(
        parent_indices=tuple(range(n_w)),
        column_indices=tuple(itertools.product(*map(range, kept))),
        values=probs.sum(axis=summed).reshape(-1, n_w).T,
        splits=splits,
    )


def _conditional_core(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
    delta_deg: float,
):
    if rho_w_t.space != ch_w.in_space:
        raise SpaceMismatch(
            f"state on {rho_w_t.space.labels}, channel takes {ch_w.in_space.labels}"
        )
    split_labels = [tuple(g) for g in splits]
    _check_partition(rho_w_t.space, split_labels)
    _check_partition(ch_w.out_space, split_labels)

    parent = ontic_decomposition(rho_w_t, delta_deg)
    evolved = apply(ch_w, rho_w_t)

    reduced_states = [
        partial_trace(evolved, g) if len(g) < len(evolved.space.factors) else evolved
        for g in split_labels
    ]
    reduced_decs = [ontic_decomposition(r, delta_deg) for r in reduced_states]

    table = _kernel_table(
        ch_w,
        parent,
        [(dec.source_space.labels, dec.vectors) for dec in reduced_decs],
        split_labels,
    )
    return table, parent, reduced_states, reduced_decs


def conditional_probabilities(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
    delta_deg: float = tol.DEGENERACY_GAP,
) -> ConditionalProbabilityTable:
    """Joint subsystem configuration probabilities conditioned on the parent.

    The parent state at t is decomposed, pushed through the channel, and
    projected onto the eigenconfigurations of each subsystem's reduced
    state at t'.  Null parent configurations get rows too: they are valid
    conditioning events of probability zero.
    """
    table, _, _, _ = _conditional_core(ch_w, rho_w_t, splits, delta_deg)
    return table


def single_system_conditional(
    ch: QuantumChannel,
    rho_t: DensityMatrix,
    delta_deg: float = tol.DEGENERACY_GAP,
) -> ConditionalProbabilityTable:
    """Conditional table for the undivided system, linking t to t'."""
    table, _, _, _ = _conditional_core(ch, rho_t, [list(rho_t.space.labels)], delta_deg)
    return table


def bayesian_propagation_check(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    splits: Sequence[Sequence[str]],
    delta_deg: float = tol.DEGENERACY_GAP,
) -> float:
    """Largest gap between direct and chained first-subsystem probabilities.

    Direct route: the quadratic form v^dag rho_1 v of each first-subsystem
    eigenvector on the first subsystem's reduced state after the channel.
    Chained route: sum the conditional table against the parent
    probabilities and marginalize the other subsystems.  The two must
    agree for any trace-preserving channel.
    """
    table, parent, reduced_states, reduced_decs = _conditional_core(
        ch_w, rho_w_t, splits, delta_deg
    )
    vecs = reduced_decs[0].vectors
    direct = np.real(np.sum(vecs.conjugate() * (reduced_states[0].matrix @ vecs), axis=0))
    joint = table.values.reshape(len(parent.probabilities), vecs.shape[1], -1).sum(axis=2)
    chained = parent.probabilities @ joint
    return float(np.max(np.abs(direct - chained)))


def psd_pairing_check(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] for two PSD matrices; the pairing every table value reduces to."""
    for name, m in (("first", a), ("second", b)):
        arr = np.asarray(m, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NotPSD(f"{name} argument is not square")
        if not (np.max(np.abs(arr - arr.conjugate().T)) <= tol.DERIVED):
            raise NotPSD(f"{name} argument is not Hermitian")
        if not (float(np.linalg.eigvalsh(arr)[0]) >= tol.EIG_FLOOR):
            raise NotPSD(f"{name} argument has an eigenvalue below {tol.EIG_FLOOR}")
    return float(np.real(np.trace(np.asarray(a) @ np.asarray(b))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def table_to_csv(table: ConditionalProbabilityTable) -> str:
    """Rows of `w,i1,...,in,p`, one line per table cell."""
    columns = ["w", *(f"i{k + 1}" for k in range(len(table.column_indices[0]))), "p"]
    return _csv_text(
        columns,
        (
            (w, *combo, p)
            for w, row in zip(table.parent_indices, table.values.tolist())
            for combo, p in zip(table.column_indices, row)
        ),
    )


def table_to_json(table: ConditionalProbabilityTable) -> dict:
    return {
        "parent_indices": list(table.parent_indices),
        "splits": None if table.splits is None else [list(g) for g in table.splits],
        "column_indices": [list(c) for c in table.column_indices],
        "values": [[float(x) for x in row] for row in table.values],
    }
