"""CPTP channels in Kraus form, built directly or by unitary dilation.

The dilation construction is the workhorse: given a unitary on a parent
space and the initial state of the environment factors, the reduced
dynamics of the remaining factors is completely positive and trace
preserving, with one Kraus operator per pair of environment
eigendirections,

    K[e, e'] = sqrt(p_e) <e'| U |e>,

where the bra and ket act on the environment indices only and p_e are the
eigenvalues of the initial environment state.  Null environment
configurations (p_e below the null-probability floor) are skipped, and
pairs whose Kraus operator falls below the pruning norm are dropped; they
contribute nothing beyond rounding to the map.  Conditioning a parent
channel on an environment configuration (opendyn) is the same reduction,
with each parent Kraus operator in place of U and the rank-one
configuration projector as the environment state.  Kraus decompositions
are not unique, so channel equality is decided on Choi matrices, never on
Kraus lists.

Composability of such reduced maps is not automatic.  semigroup_defect
measures how far a two-segment composition (with the environment re-fed
its reduced state at the cut, correlations deliberately discarded) lands
from the single-segment map.  The defect vanishes for factorized
evolutions and for evolutions that return the parent to a product state
at the cut, and is generically large for entangling couplings.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import BadInterval, NotUnitary, OnticSimError, SpaceMismatch, ToleranceBreach
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    _as_complex,
    _check_partition,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    permute_factors,
    space_from_json,
    space_to_json,
    tensor,
    trace_distance,
)

__all__ = [
    "UnitaryOperator",
    "QuantumChannel",
    "CPTPReport",
    "unitary_channel",
    "dilation_channel",
    "apply",
    "compose",
    "choi_matrix",
    "verify_cptp",
    "channel_distance",
    "semigroup_defect",
    "UnitaryFamily",
    "factorized_family",
    "swap_refactorizing_family",
    "entangling_cnot_family",
    "SWAP_REFACTOR_TIME",
    "channel_to_json",
    "channel_from_json",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "CNOT",
    "SWAP",
]


PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

# two-qubit gates on a (control, target) ordering of factors
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix on a labeled space."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.space.total_dim
        arr = np.array(self.matrix, dtype=np.complex128)
        if arr.shape != (d, d):
            raise SpaceMismatch(f"unitary has shape {arr.shape}, expected ({d}, {d})")
        defect = np.max(np.abs(arr.conjugate().T @ arr - np.eye(d)))
        if not (defect <= tol.CONSTRUCTION):
            raise NotUnitary(f"U†U deviates from identity by {defect}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Trace-preserving completely positive map as a pruned Kraus family.

    `kraus` is stored as one read-only (k, d_out, d_in) array.  A map in
    Kraus form is completely positive by construction (its Choi matrix is a
    sum of rank-one PSD terms), so construction checks only completeness,
    sum_k K_k^dag K_k = I.  Pass validate=False only to wrap raw data for
    diagnosis by verify_cptp.
    """

    in_space: HilbertSpace
    out_space: HilbertSpace
    kraus: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        din, dout = self.in_space.total_dim, self.out_space.total_dim
        for k in self.kraus:
            if np.shape(k) != (dout, din):
                raise SpaceMismatch(
                    f"Kraus operator has shape {np.shape(k)}, expected ({dout}, {din})"
                )
        if not len(self.kraus):
            raise SpaceMismatch("a channel needs at least one Kraus operator")
        ops = _as_complex(self.kraus, (len(self.kraus), dout, din), "Kraus stack")
        object.__setattr__(self, "kraus", ops)
        if validate:
            defect = _completeness_defect(ops)
            if not (defect <= tol.DERIVED):
                raise ToleranceBreach(f"Kraus completeness defect {defect}")


@dataclass(frozen=True)
class CPTPReport:
    trace_preserving: bool
    completely_positive: bool
    min_choi_eigenvalue: float
    completeness_defect: float


def unitary_channel(u: UnitaryOperator) -> QuantumChannel:
    return QuantumChannel(u.space, u.space, (u.matrix,))


def _prune(ops: np.ndarray) -> np.ndarray:
    kept = ops[np.linalg.norm(ops, axis=(1, 2)) >= tol.KRAUS_PRUNE]
    return kept if len(kept) else ops[:1]


def _reduced_channel(
    parent_kraus: np.ndarray,
    space: HilbertSpace,
    rho_e: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
) -> QuantumChannel:
    """X -> Tr_E[sum_K K (X (x) rho_e) K^dag] for parent Kraus operators on `space`.

    One pruned Kraus operator sqrt(p_e) <e'|K|e> per parent operator K,
    non-null eigenpair (p_e, |e>) of rho_e and eigenvector |e'> of rho_e.
    """
    s_labels, e_labels = [list(g) for g in split]
    _check_partition(space, [s_labels, e_labels])
    s_space, e_space = space.subspace(s_labels), space.subspace(e_labels)
    if rho_e.space != e_space:
        raise SpaceMismatch(
            f"environment state lives on {rho_e.space.factors}, expected {e_space.factors}"
        )
    ds, de = s_space.total_dim, e_space.total_dim
    aligned, _ = permute_factors(parent_kraus, space, s_space.labels + e_space.labels)
    k5 = aligned.reshape(-1, ds, de, ds, de)
    p_env, vecs = np.linalg.eigh(rho_e.matrix)
    ops = []
    for p, v in zip(p_env, vecs.T):
        if p < tol.NULL_PROBABILITY:
            continue
        # amp[k, a, f, b] = sum_g K[(a, f), (b, g)] <g|e>, then one operator
        # per output environment direction e'
        amp = np.einsum("kafbg,g->kafb", k5, v)
        ops.append(np.sqrt(p) * np.einsum("kafb,fy->kyab", amp, vecs.conjugate()))
    return QuantumChannel(s_space, s_space, _prune(np.concatenate(ops).reshape(-1, ds, ds)))


def dilation_channel(
    u_w: UnitaryOperator,
    rho_e0: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
) -> QuantumChannel:
    """Reduced dynamics of the first group under a parent unitary.

    `split` names (system labels, environment labels); together they must
    partition the parent factors.  `rho_e0` is the initial environment
    state and must live on the environment factors in their parent order.
    The channel acts on the system subspace, also in parent order.
    """
    return _reduced_channel(u_w.matrix[None], u_w.space, rho_e0, split)


def apply(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    if rho.space != ch.in_space:
        raise SpaceMismatch(f"state on {rho.space.labels}, channel takes {ch.in_space.labels}")
    terms = ch.kraus @ rho.matrix @ ch.kraus.conjugate().transpose(0, 2, 1)
    return DensityMatrix(ch.out_space, terms.sum(axis=0))


def compose(later: QuantumChannel, earlier: QuantumChannel) -> QuantumChannel:
    """Channel running `earlier` first, then `later`."""
    if earlier.out_space != later.in_space:
        raise SpaceMismatch(
            f"cannot feed {earlier.out_space.labels} into {later.in_space.labels}"
        )
    dout, din = later.out_space.total_dim, earlier.in_space.total_dim
    products = (later.kraus[:, None] @ earlier.kraus).reshape(-1, dout, din)
    return QuantumChannel(earlier.in_space, later.out_space, _prune(products))


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Sum over input basis pairs |i><j| (x) ch(|i><j|), as sum_k vec(K_k) vec(K_k)^dag."""
    vecs = ch.kraus.transpose(0, 2, 1).reshape(len(ch.kraus), -1)
    return vecs.T @ vecs.conjugate()


def _completeness_defect(kraus: np.ndarray) -> float:
    """Largest entry of sum_k K_k^dag K_k - I."""
    flat = kraus.reshape(-1, kraus.shape[2])
    return float(np.max(np.abs(flat.conjugate().T @ flat - np.eye(kraus.shape[2]))))


def verify_cptp(ch: QuantumChannel) -> CPTPReport:
    """Completeness and Choi positivity of any finite Kraus set, however broken.

    The O((d_in d_out)^3) Choi eigensolve runs here, never at construction.
    Entries so large that the products overflow give an infinite defect, or
    an eigensolve that does not converge, which raises OnticSimError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _completeness_defect(ch.kraus)
        try:
            lo = float(np.linalg.eigvalsh(choi_matrix(ch))[0])
        except np.linalg.LinAlgError as err:
            raise OnticSimError(f"Choi eigensolve failed: {err}") from err
    return CPTPReport(
        trace_preserving=defect <= tol.DERIVED,
        completely_positive=lo >= tol.EIG_FLOOR,
        min_choi_eigenvalue=lo,
        completeness_defect=defect,
    )


def channel_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Largest entry of the Choi-matrix difference; zero iff the maps agree."""
    if a.in_space != b.in_space or a.out_space != b.out_space:
        raise SpaceMismatch("channels act on different spaces")
    return float(np.max(np.abs(choi_matrix(a) - choi_matrix(b))))


# ---------------------------------------------------------------------------
# time-parameterized unitaries and the composability probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryFamily:
    """exp(-i H t) for a fixed Hermitian generator, via eigendecomposition.

    Diagonalizing once keeps every U(t) unitary to rounding and avoids
    integrator error entirely.
    """

    space: HilbertSpace
    generator: np.ndarray

    def __post_init__(self) -> None:
        d = self.space.total_dim
        arr = np.array(self.generator, dtype=np.complex128)
        if arr.shape != (d, d):
            raise SpaceMismatch(f"generator has shape {arr.shape}, expected ({d}, {d})")
        herm = np.max(np.abs(arr - arr.conjugate().T))
        if not (herm <= tol.CONSTRUCTION):
            raise ToleranceBreach(f"generator Hermiticity defect {herm}")
        arr.setflags(write=False)
        object.__setattr__(self, "generator", arr)
        evals, evecs = np.linalg.eigh(arr)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    def at(self, t: float) -> UnitaryOperator:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NaN, refused below
            phases = np.exp(-1j * self._evals * t)
        u = (self._evecs * phases) @ self._evecs.conjugate().T
        return UnitaryOperator(self.space, u)

    def __call__(self, t: float) -> UnitaryOperator:
        return self.at(t)


def semigroup_defect(
    u_w_family: Callable[[float], UnitaryOperator],
    rho_e0: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
    t1: float,
    t2: float,
    probe: DensityMatrix,
) -> float:
    """Trace distance between one-segment and two-segment reduced dynamics.

    The second segment is dilated with the environment's reduced state at
    the cut, so any system-environment correlations built up during the
    first segment are thrown away.  That discard is exactly what the
    defect measures.
    """
    if not 0.0 < t1 < t2:
        raise BadInterval(f"need 0 < t1 < t2, got t1={t1}, t2={t2}")
    u1 = u_w_family(t1)
    u2 = u_w_family(t2)
    e_labels = list(split[1])
    seg10 = dilation_channel(u1, rho_e0, split)
    seg20 = dilation_channel(u2, rho_e0, split)

    prod = tensor(probe, rho_e0)
    aligned, _ = permute_factors(prod.matrix, prod.space, u1.space.labels)
    rho_w_t1 = apply(unitary_channel(u1), DensityMatrix(u1.space, aligned))
    rho_e_t1 = partial_trace(rho_w_t1, e_labels)

    u_seg = UnitaryOperator(u1.space, u2.matrix @ u1.matrix.conjugate().T)
    seg21 = dilation_channel(u_seg, rho_e_t1, split)

    lhs = apply(compose(seg21, seg10), probe)
    rhs = apply(seg20, probe)
    return trace_distance(lhs, rhs)


# the SWAP generator satisfies exp(-i (pi/2) SWAP) = -i SWAP, so at this
# time the parent state is an exact product again and composability holds
SWAP_REFACTOR_TIME = np.pi / 2


def _two_qubit_space(s_label: str = "s", e_label: str = "e") -> HilbertSpace:
    return HilbertSpace.of((s_label, 2), (e_label, 2))


def factorized_family(s_label: str = "s", e_label: str = "e") -> UnitaryFamily:
    """Non-interacting generator: Pauli-Z on the system, Pauli-X on the environment."""
    h = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_X)
    return UnitaryFamily(_two_qubit_space(s_label, e_label), h)


def swap_refactorizing_family(s_label: str = "s", e_label: str = "e") -> UnitaryFamily:
    """SWAP generator; the parent refactorizes exactly at SWAP_REFACTOR_TIME."""
    return UnitaryFamily(_two_qubit_space(s_label, e_label), SWAP)


def entangling_cnot_family(s_label: str = "s", e_label: str = "e") -> UnitaryFamily:
    """CNOT generator (system controls environment); entangles at generic times."""
    return UnitaryFamily(_two_qubit_space(s_label, e_label), CNOT)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def channel_to_json(ch: QuantumChannel) -> dict:
    return {
        "in_space": space_to_json(ch.in_space),
        "out_space": space_to_json(ch.out_space),
        "kraus": [matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(payload: dict, validate: bool = True) -> QuantumChannel:
    return QuantumChannel(
        space_from_json(payload["in_space"]),
        space_from_json(payload["out_space"]),
        tuple(matrix_from_json(k) for k in payload["kraus"]),
        validate=validate,
    )
