"""Labeled composite Hilbert spaces and the dense operators living on them.

Everything downstream works with density matrices over spaces built as
tensor products of named finite-dimensional factors.  Keeping the factor
labels on the objects lets partial traces, factor permutations, and
subsystem embeddings be requested by name instead of by axis arithmetic,
which is where composite-system code usually goes wrong.

Matrices are stored dense (numpy, complex128) and row-major in the
Kronecker convention: the first factor varies slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import (
    BadPartition,
    LabelClash,
    NothingToTrace,
    SpaceMismatch,
    ToleranceBreach,
    UnknownSubsystem,
)

__all__ = [
    "HilbertSpace",
    "PureState",
    "DensityMatrix",
    "CorrelationOperator",
    "tensor",
    "partial_trace",
    "correlation_operator",
    "trace_distance",
    "permute_factors",
    "embed_operator",
    "basis_state",
    "maximally_mixed",
    "space_to_json",
    "space_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "density_matrix_to_json",
    "density_matrix_from_json",
]


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of named finite-dimensional factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(label), int(dim)) for label, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise BadPartition("a space needs at least one factor")
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelClash(f"duplicate factor labels in {labels}")
        for label, dim in factors:
            if dim < 1:
                raise BadPartition(f"factor {label!r} has non-positive dimension {dim}")

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "HilbertSpace":
        return cls(tuple(factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Position of a factor, raising UnknownSubsystem for missing labels."""
        for k, (name, _) in enumerate(self.factors):
            if name == label:
                return k
        raise UnknownSubsystem(f"no factor labeled {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis(label)][1]

    def subspace(self, labels: Iterable[str]) -> "HilbertSpace":
        """Factors named in `labels`, kept in this space's own order."""
        wanted = set(labels)
        for label in wanted:
            self.axis(label)
        return HilbertSpace(tuple(f for f in self.factors if f[0] in wanted))

    def tensor(self, other: "HilbertSpace") -> "HilbertSpace":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise LabelClash(f"labels {sorted(clash)} appear on both sides")
        return HilbertSpace(self.factors + other.factors)


def _check_partition(space: HilbertSpace, groups: Sequence[Sequence[str]]) -> None:
    """Raise BadPartition unless the groups split the labels exactly."""
    seen: list[str] = []
    for group in groups:
        seen.extend(group)
    if len(seen) != len(set(seen)):
        raise BadPartition(f"labels repeated across groups: {seen}")
    if set(seen) != set(space.labels):
        raise BadPartition(
            f"groups cover {sorted(seen)} but the space has {sorted(space.labels)}"
        )


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def _as_complex(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise SpaceMismatch(f"{what} has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _canonical_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a vector, or of each column of a (d, n) stack,
    so its first significant amplitude is real positive.  Factors and pivot
    moduli use scalar abs, which np.abs on an array can miss by 1 ulp."""
    stack = vectors.reshape(len(vectors), -1)
    significant = np.abs(stack) > tol.PHASE_PIVOT
    cols = np.flatnonzero(significant.any(axis=0))
    rows = significant.argmax(axis=0)[cols]
    factors = np.ones(stack.shape[1], dtype=np.complex128)
    factors[cols] = [value.conjugate() / abs(value) for value in stack[rows, cols]]
    out = stack * factors
    out[rows, cols] = [abs(value) for value in out[rows, cols]]
    return out.reshape(vectors.shape)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a labeled space, stored with a canonical global phase."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.shape != (self.space.total_dim,):
            raise SpaceMismatch(
                f"amplitude vector has shape {arr.shape}, expected ({self.space.total_dim},)"
            )
        norm = np.linalg.norm(arr)
        if not (abs(norm - 1.0) <= tol.CONSTRUCTION):
            raise ToleranceBreach(f"state norm {norm} is not 1 within {tol.CONSTRUCTION}")
        arr = _canonical_phase(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conjugate())

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, self.projector())


def basis_state(space: HilbertSpace, index: int) -> PureState:
    vec = np.zeros(space.total_dim, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(space, vec)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a labeled space.

    All three conditions are checked at construction: Hermiticity and trace
    at the construction tolerance, positivity down to the eigenvalue floor.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.space.total_dim
        arr = _as_complex(self.matrix, (d, d), "density matrix")
        object.__setattr__(self, "matrix", arr)
        herm = np.max(np.abs(arr - arr.conjugate().T))
        if not (herm <= tol.CONSTRUCTION):
            raise ToleranceBreach(f"Hermiticity defect {herm} exceeds {tol.CONSTRUCTION}")
        tr = arr.trace()
        if not (abs(tr - 1.0) <= tol.CONSTRUCTION):
            raise ToleranceBreach(f"trace {tr} is not 1 within {tol.CONSTRUCTION}")
        lo = float(np.linalg.eigvalsh(arr)[0])
        if not (lo >= tol.EIG_FLOOR):
            raise ToleranceBreach(f"eigenvalue {lo} below floor {tol.EIG_FLOOR}")


def maximally_mixed(space: HilbertSpace) -> DensityMatrix:
    d = space.total_dim
    return DensityMatrix(space, np.eye(d, dtype=np.complex128) / d)


# ---------------------------------------------------------------------------
# factor bookkeeping on raw arrays
# ---------------------------------------------------------------------------

def _permute_matrix(matrix: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a square matrix, or of each one in a stack."""
    n, b = len(dims), matrix.ndim - 2
    arr = matrix.reshape(*matrix.shape[:b], *dims, *dims)
    axes = [*range(b), *(b + p for p in perm), *(b + n + p for p in perm)]
    return arr.transpose(axes).reshape(matrix.shape)


def permute_factors(
    matrix: np.ndarray, space: HilbertSpace, order: Sequence[str]
) -> tuple[np.ndarray, HilbertSpace]:
    """Rewrite an operator, or a stack of them, with its factors in the requested order."""
    order = list(order)
    if sorted(order) != sorted(space.labels):
        raise BadPartition(f"order {order} does not permute {list(space.labels)}")
    perm = [space.axis(label) for label in order]
    new_space = HilbertSpace(tuple(space.factors[p] for p in perm))
    return _permute_matrix(matrix, space.dims, perm), new_space


def embed_operator(op: np.ndarray, op_labels: Sequence[str], space: HilbertSpace) -> np.ndarray:
    """Extend an operator on some factors by identity on the rest.

    `op` must act on the listed labels in the listed order; the result acts
    on the full space in the space's own factor order.
    """
    op_labels = list(op_labels)
    rest = [label for label in space.labels if label not in op_labels]
    sub = space.subspace(op_labels)
    ordered_op, _ = (op, sub) if list(sub.labels) == op_labels else permute_factors(
        op, HilbertSpace(tuple((l, space.dim_of(l)) for l in op_labels)), sub.labels
    )
    rest_dim = math.prod(space.dim_of(label) for label in rest) if rest else 1
    big = np.kron(ordered_op, np.eye(rest_dim, dtype=np.complex128))
    big_space = sub if not rest else sub.tensor(space.subspace(rest))
    out, _ = permute_factors(big, big_space, space.labels)
    return out


def _partial_trace_matrix(
    matrix: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]
) -> np.ndarray:
    """Trace out every axis not in keep_axes, preserving kept-axis order."""
    n = len(dims)
    keep = list(keep_axes)
    drop = [k for k in range(n) if k not in keep]
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    d_drop = math.prod(dims[k] for k in drop) if drop else 1
    arr = matrix.reshape(tuple(dims) * 2)
    axes = keep + drop + [n + k for k in keep] + [n + k for k in drop]
    arr = arr.transpose(axes).reshape(d_keep, d_drop, d_keep, d_drop)
    return np.trace(arr, axis1=1, axis2=3)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states on label-disjoint spaces."""
    return DensityMatrix(a.space.tensor(b.space), np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on the named factors, in their original relative order."""
    keep = list(keep)
    if not keep:
        raise BadPartition("must keep at least one factor")
    keep_axes = sorted(rho.space.axis(label) for label in set(keep))
    if len(keep_axes) == len(rho.space.factors):
        raise NothingToTrace(f"keeping all of {rho.space.labels} traces nothing")
    out = _partial_trace_matrix(rho.matrix, rho.space.dims, keep_axes)
    return DensityMatrix(rho.space.subspace(keep), out)


@dataclass(frozen=True, eq=False)
class CorrelationOperator:
    """Difference between a parent state and the product of its marginals.

    Hermitian and traceless by construction, and its partial trace over
    either designated group vanishes, so it carries exactly the
    correlations between the two groups.
    """

    space: HilbertSpace
    s_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.space.total_dim
        arr = _as_complex(self.matrix, (d, d), "correlation operator")
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "s_labels", tuple(self.s_labels))
        object.__setattr__(self, "e_labels", tuple(self.e_labels))
        _check_partition(self.space, [self.s_labels, self.e_labels])
        herm = np.max(np.abs(arr - arr.conjugate().T))
        if not (herm <= tol.CONSTRUCTION):
            raise ToleranceBreach(f"Hermiticity defect {herm} exceeds {tol.CONSTRUCTION}")
        for group in (self.s_labels, self.e_labels):
            axes = sorted(self.space.axis(label) for label in group)
            reduced = _partial_trace_matrix(arr, self.space.dims, axes)
            worst = np.max(np.abs(reduced))
            if not (worst <= tol.DERIVED):
                raise ToleranceBreach(
                    f"partial trace over complement of {group} leaves {worst}"
                )


def correlation_operator(
    rho_w: DensityMatrix, split: tuple[Sequence[str], Sequence[str]]
) -> CorrelationOperator:
    """Parent state minus the tensor product of its two marginals.

    The result lives on the parent space with factors reordered so the
    first group comes first; each group keeps its parent-relative order.
    """
    s_labels, e_labels = [list(g) for g in split]
    _check_partition(rho_w.space, [s_labels, e_labels])
    rho_s = partial_trace(rho_w, s_labels)
    rho_e = partial_trace(rho_w, e_labels)
    order = list(rho_s.space.labels) + list(rho_e.space.labels)
    big, big_space = permute_factors(rho_w.matrix, rho_w.space, order)
    product = np.kron(rho_s.matrix, rho_e.matrix)
    return CorrelationOperator(
        big_space, rho_s.space.labels, rho_e.space.labels, big - product
    )


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space.labels} vs {b.space.labels}")
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eigs).sum())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def space_to_json(space: HilbertSpace) -> list[dict]:
    return [{"label": label, "dim": dim} for label, dim in space.factors]


def space_from_json(payload: list[dict]) -> HilbertSpace:
    return HilbertSpace(tuple((f["label"], int(f["dim"])) for f in payload))


def matrix_to_json(matrix: np.ndarray) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    return {
        "re": [[float(x) for x in row] for row in arr.real],
        "im": [[float(x) for x in row] for row in arr.imag],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    arr = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("matrix has a non-finite entry")
    return arr


def density_matrix_to_json(rho: DensityMatrix) -> dict:
    out = {"space": space_to_json(rho.space)}
    out.update(matrix_to_json(rho.matrix))
    return out


def density_matrix_from_json(payload: dict) -> DensityMatrix:
    return DensityMatrix(space_from_json(payload["space"]), matrix_from_json(payload))


def _float_cell(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r}")
    return repr(x)


# keyed by exact type: rows hold Python scalars, and bool must not fall to int
_CELL_TEXT = {bool: ("false", "true").__getitem__, int: int.__repr__, float: _float_cell, str: str}


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row.

    A bool cell is written true/false, an int with str, a float with repr
    so every digit survives a round-trip, and a str as is.  A non-finite
    float raises ValueError.
    """
    cell = _CELL_TEXT
    lines = [",".join(columns)]
    lines.extend(",".join([cell[type(x)](x) for x in row]) for row in rows)
    lines.append("")
    return "\n".join(lines)
