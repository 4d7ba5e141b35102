"""Labeled composite Hilbert spaces and the dense operators living on them.

Everything downstream works with density matrices over spaces built as
tensor products of named finite-dimensional factors.  Keeping the factor
labels on the objects lets partial traces, factor permutations, and
subsystem spaces be requested by name instead of by axis arithmetic,
which is where composite-system code usually goes wrong.

Matrices are stored dense (numpy, complex128) and row-major in the
Kronecker convention: the first factor varies slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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
    "tensor",
    "partial_trace",
    "trace_distance",
    "permute_factors",
    "basis_state",
    "maximally_mixed",
    "space_to_json",
    "space_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _integral(raw) -> int | None:
    """`raw` as an int when it is a finite number equal to one, else None."""
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if value == raw else None


def _memo(owner, kind, key, compute):
    """`compute()` once per (owner, kind, key); repeating a kind's last key returns the same object.

    The owner keeps one (key, result) slot per kind in its `__dict__`,
    replaced when that kind's key changes, so it holds at most one result
    of each kind, stays out of a dataclass's repr and equality and is freed
    with the owner.  The kinds are "decomposition" and "table" on a
    `DensityMatrix` and "report" on a `PureState`; each is written once, at
    its call site.  Only frozen states use it, and only for results that
    depend on nothing but the state and the key.  A compute that raises
    stores nothing.
    """
    memo = owner.__dict__
    name = "_memo_" + kind
    slot = memo.get(name)
    if slot is not None and slot[0] == key:
        return slot[1]
    value = compute()
    memo[name] = (key, value)
    return value


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of named finite-dimensional factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        given = tuple(self.factors)
        factors = tuple((str(label), _integral(dim)) for label, dim in given)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise BadPartition("a space needs at least one factor")
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelClash(f"duplicate factor labels in {labels}")
        for (label, dim), (_, raw) in zip(factors, given):
            if dim is None or dim < 1:
                raise BadPartition(f"factor {label!r} dimension {raw!r} is not a positive integer")

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
    moduli use np.hypot(re, im), equal to scalar abs, which np.abs can miss by 1 ulp."""
    stack = vectors.reshape(len(vectors), -1)
    significant = np.abs(stack) > tol.PHASE_PIVOT
    cols = np.flatnonzero(significant.any(axis=0))
    rows = significant.argmax(axis=0)[cols]
    pivots = stack[rows, cols]
    factors = np.ones(stack.shape[1], dtype=np.complex128)
    factors[cols] = pivots.conjugate() / np.hypot(pivots.real, pivots.imag)
    out = stack * factors
    rotated = out[rows, cols]
    out[rows, cols] = np.hypot(rotated.real, rotated.imag)
    return out.reshape(vectors.shape)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on a labeled space, stored with a canonical global phase.

    The state is immutable, so a result derived from it alone (the
    measurement report of `simulate_measurement`) is computed once per
    state object and kept on it.
    """

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.shape != (self.space.total_dim,):
            raise SpaceMismatch(
                f"amplitude vector has shape {arr.shape}, expected ({self.space.total_dim},)"
            )
        norm = np.linalg.norm(arr)
        tol.check(abs(norm - 1.0), tol.CONSTRUCTION, ToleranceBreach, "state norm defect")
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

    All three conditions are checked at construction, by `_admit`, the trust
    boundary: Hermiticity and trace at the construction tolerance, positivity
    to the eigenvalue floor by a Cholesky certificate.  The state is
    immutable, so its ontic decomposition is computed once per state object,
    and its table core once per channel object and splits; each is kept on it.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.space.total_dim
        arr = _as_complex(self.matrix, (d, d), "density matrix")
        object.__setattr__(self, "matrix", arr)
        _admit(arr[None])


def _admit(matrices: np.ndarray, positivity: bool = True) -> None:
    """The density-matrix checks over an (n, d, d) stack, each once for the
    whole stack: Hermiticity, trace, then positivity.

    Positivity is first certified by one stacked Cholesky factorization
    (`tolerances.psd_certified`); only a stack it cannot certify pays the
    eigensolve, which gives the verdict and the refusal message.  A derived
    stack decomposed next skips both (positivity=False): `ontic._spectra`
    reads its verdict off that eigh.  A stack passes exactly when each of
    its matrices would; a refusal names the largest defect.
    """
    herm = tol.hermiticity_defect(matrices)
    tol.check(herm, tol.CONSTRUCTION, ToleranceBreach, "Hermiticity defect")
    trace = float(np.abs(matrices.trace(axis1=1, axis2=2) - 1.0).max())
    tol.check(trace, tol.CONSTRUCTION, ToleranceBreach, "trace defect")
    if positivity and not tol.psd_certified(matrices):
        tol.check(tol.negativity(matrices), -tol.EIG_FLOOR, ToleranceBreach, "eigenvalue negativity")


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
    return HilbertSpace(tuple((f["label"], f["dim"]) for f in payload))


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


# the leaf type of an array column, by dtype kind
_DTYPE_KINDS = {"b": bool, "i": int, "u": int, "f": float}
# rows _csv_text formats at once: a block's texts are freed before the next
_CSV_BLOCK_ROWS = 2**16


def _leaf_kind(column) -> type:
    """The one leaf type of a column: an array's by its dtype, else its values' type."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind not in _DTYPE_KINDS:
            raise TypeError(f"an array of dtype {column.dtype} is not an artifact column")
        return _DTYPE_KINDS[column.dtype.kind]
    kinds = set(map(type, column))
    if len(kinds) != 1:
        raise TypeError(f"a column holds one leaf type, got {sorted(k.__name__ for k in kinds)}")
    return kinds.pop()


def _gather(texts: list[str], inverse: np.ndarray) -> np.ndarray:
    """texts[i] for each i of inverse, as an object array: slices are views."""
    return np.array(texts, dtype=object)[inverse]


def _leaf_texts(column, kind: type, json: bool = False) -> Sequence[str]:
    """The text of each value in a column of one leaf type, each distinct value formatted once.

    A bool is written true/false, an int or a float by repr, so every
    digit of a float survives a round-trip, and a str as is or, for json,
    as an escaped quoted literal.  Floats are matched by bit pattern, so
    -0.0 keeps its sign; a non-finite one raises ValueError.  Ints are
    matched by value: an array's with np.unique, a list's in a dict, since
    a Python int can pass 64 bits.
    """
    if kind is bool:
        return _gather(["false", "true"], np.asarray(column, dtype=bool).view(np.uint8))
    if issubclass(kind, str):
        return list(map(encode_basestring_ascii, column)) if json else list(column)
    if issubclass(kind, int) and isinstance(column, np.ndarray):
        distinct, inverse = np.unique(column, return_inverse=True)
        return _gather(list(map(int.__repr__, distinct.tolist())), inverse)
    if issubclass(kind, int):
        distinct = dict.fromkeys(column)
        texts = dict(zip(distinct, map(int.__repr__, distinct)))
        return list(map(texts.__getitem__, column))
    if issubclass(kind, float):
        values = np.asarray(column, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
        if not np.isfinite(distinct).all():
            bad = values[~np.isfinite(values)][0].item()
            if json:
                raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
            raise ValueError(f"non-finite value {bad!r}")
        return _gather(list(map(float.__repr__, distinct.tolist())), inverse)
    raise TypeError(f"Object of type {kind.__name__} is not an artifact leaf")


def _csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text: the header line, then one line per row of the columns.

    Each column is a sequence of one leaf type, or a bool, int or float
    array, written by _leaf_texts: a bool true/false, an int or a float
    by repr and a str as is.  A non-finite float raises ValueError.
    """
    lines = [",".join(header) + "\n"]
    for first in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK_ROWS):
        block = [c[first : first + _CSV_BLOCK_ROWS] for c in columns]
        # a generator, so no block's texts outlive its join
        texts = (_leaf_texts(c, _leaf_kind(c)) for c in block)
        lines.append("\n".join(map(",".join, zip(*texts))) + "\n")
    return "".join(lines)
