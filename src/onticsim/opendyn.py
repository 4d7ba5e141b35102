"""Conditioning open dynamics on the environment, and where linearity breaks.

Conditioning a parent channel on a definite environment configuration,

    X  |->  Tr_E[ ch_W { X (x) P_E(e) } ],

always yields a completely positive trace-preserving map on the system,
because P_E(e) is a normalized state and the parent channel preserves
trace.  What fails in general is the assumption that the system's own
dynamics is a fixed linear map independent of the parent state: two
parent states with identical system marginals can evolve to different
system marginals whenever the parent channel couples the subsystems.
nonlinearity_witness measures exactly that gap, and the shipped witness
pairs (a maximally entangled state against the uncorrelated state with
the same marginals, and Werner-family pairs) make it large under an
entangling gate and exactly zero under factorized channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import CPTPReport, QuantumChannel, _reduced_channel, apply, verify_cptp
from .errors import BadPartition, NotAProjector, NotAWitnessPair, SpaceMismatch
from .ontic import ConditionalProbabilityTable, _kernel_table, ontic_decomposition
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    PureState,
    _check_partition,
    _partial_trace_matrix,
    partial_trace,
    permute_factors,
    trace_distance,
)

__all__ = [
    "ConditionedChannel",
    "FactorizationCheck",
    "NonlinearityWitnessReport",
    "WitnessPair",
    "conditional_channel_given_env",
    "parent_conditioned_probabilities",
    "projector_factorization_check",
    "nonlinearity_witness",
    "bell_state",
    "werner_state",
    "witness_pair_bell_vs_product",
    "witness_pair_werner",
    "witness_report_to_json",
]


@dataclass(frozen=True, eq=False)
class ConditionedChannel:
    """System channel conditioned on an environment configuration."""

    channel: QuantumChannel

    @property
    def report(self) -> CPTPReport:
        """CPTP diagnosis of the channel, computed on demand."""
        return verify_cptp(self.channel)


def _check_projector(p: np.ndarray, dim: int) -> np.ndarray:
    """The matrix as a complex array, if it is a dim x dim orthogonal projector."""
    arr = np.asarray(p, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise NotAProjector(f"projector has shape {arr.shape}, expected ({dim}, {dim})")
    if not (np.max(np.abs(arr - arr.conjugate().T)) <= tol.DERIVED):
        raise NotAProjector("matrix is not Hermitian")
    if not (np.max(np.abs(arr @ arr - arr)) <= tol.DERIVED):
        raise NotAProjector("matrix is not idempotent")
    return arr


def conditional_channel_given_env(
    ch_w: QuantumChannel,
    p_e: np.ndarray,
    split: tuple[Sequence[str], Sequence[str]],
) -> ConditionedChannel:
    """The system map obtained by fixing the environment input configuration.

    The rank-one projector P_E(e) is the environment state of the reduced
    map Tr_E[ch_W(X (x) P_E(e))], built by the same reduction as a unitary
    dilation; trace preservation is inherited from the parent channel.
    """
    if ch_w.in_space != ch_w.out_space:
        raise SpaceMismatch("conditioning needs a channel square on one parent space")
    e_space = ch_w.in_space.subspace(split[1])
    arr = _check_projector(p_e, e_space.total_dim)
    if not (abs(arr.trace() - 1.0) <= tol.DERIVED):
        raise NotAProjector(f"projector has rank {arr.trace().real:.3f}, need rank 1")
    # a projector within the derived tolerance, made exactly a unit-trace state
    rho_e = DensityMatrix(e_space, (arr + arr.conjugate().T) / (2.0 * arr.trace().real))
    return ConditionedChannel(_reduced_channel(ch_w.kraus, ch_w.in_space, rho_e, split))


def parent_conditioned_probabilities(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    s_split: Sequence[str],
    delta_deg: float = tol.DEGENERACY_GAP,
) -> ConditionalProbabilityTable:
    """System configurations at t' conditioned on parent configurations at t.

    Marginalizes nothing away from the conditioning side: rows are the
    full parent decomposition, columns the system's reduced decomposition
    after the channel, with the remaining factors summed out.
    """
    s_labels = list(s_split)
    if len(set(s_labels)) != len(s_labels):
        raise BadPartition(f"labels repeated in the system split: {s_labels}")
    parent = ontic_decomposition(rho_w_t, delta_deg)
    evolved = apply(ch_w, rho_w_t)
    reduced = partial_trace(evolved, s_labels)
    dec_s = ontic_decomposition(reduced, delta_deg)

    rest = [l for l in evolved.space.labels if l not in s_labels]
    return _kernel_table(
        ch_w, parent, [(reduced.space.labels, dec_s.vectors), (rest, None)], [s_labels]
    )


@dataclass(frozen=True)
class FactorizationCheck:
    factorizable: bool
    defect: float


def projector_factorization_check(
    p_w: np.ndarray,
    space: HilbertSpace,
    split: tuple[Sequence[str], Sequence[str]],
    threshold: float = 1e-8,
) -> FactorizationCheck:
    """Whether a parent projector splits as P_S (x) P_E across the groups.

    Candidate factors come from the partial traces: for a true product
    projector the reduced matrix is the factor projector scaled by the
    other factor's rank, so thresholding its spectrum at half the top
    eigenvalue recovers the factor exactly.  The defect is the Frobenius
    distance to the best candidate product.
    """
    s_labels, e_labels = [list(g) for g in split]
    _check_partition(space, [s_labels, e_labels])
    arr = _check_projector(p_w, space.total_dim)
    if not (arr.trace().real >= 0.5):
        raise NotAProjector("zero projector cannot factorize")

    def candidate(labels: list[str]) -> np.ndarray:
        axes = sorted(space.axis(l) for l in labels)
        reduced = _partial_trace_matrix(arr, space.dims, axes)
        evals, evecs = np.linalg.eigh(reduced)
        keep = evals > 0.5 * evals[-1]
        v = evecs[:, keep]
        return v @ v.conjugate().T

    p_s = candidate(s_labels)
    p_e = candidate(e_labels)
    s_space = space.subspace(s_labels)
    e_space = space.subspace(e_labels)
    product = np.kron(p_s, p_e)
    product, _ = permute_factors(product, s_space.tensor(e_space), space.labels)
    defect = float(np.linalg.norm(arr - product))
    return FactorizationCheck(factorizable=defect <= threshold, defect=defect)


@dataclass(frozen=True, eq=False)
class NonlinearityWitnessReport:
    rho_w_pair: tuple[DensityMatrix, DensityMatrix]
    marginal_distance_before: float
    reduced_distance_after: float


def nonlinearity_witness(
    ch_w: QuantumChannel,
    rho_w_1: DensityMatrix,
    rho_w_2: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
) -> NonlinearityWitnessReport:
    """Distance between evolved system marginals of two marginal-equal parents.

    The pair must agree on the system marginal before evolution; any
    distance afterwards certifies that no fixed system-only linear map
    reproduces the parent dynamics for both states.
    """
    s_labels = list(split[0])
    _check_partition(rho_w_1.space, [list(g) for g in split])
    before_1 = partial_trace(rho_w_1, s_labels)
    before_2 = partial_trace(rho_w_2, s_labels)
    before = trace_distance(before_1, before_2)
    if not (before <= tol.DERIVED):
        raise NotAWitnessPair(
            f"system marginals differ by {before} before evolution; not a witness pair"
        )
    after_1 = partial_trace(apply(ch_w, rho_w_1), s_labels)
    after_2 = partial_trace(apply(ch_w, rho_w_2), s_labels)
    return NonlinearityWitnessReport(
        rho_w_pair=(rho_w_1, rho_w_2),
        marginal_distance_before=before,
        reduced_distance_after=trace_distance(after_1, after_2),
    )


# ---------------------------------------------------------------------------
# witness pair library
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WitnessPair:
    pair_id: str
    rho_1: DensityMatrix
    rho_2: DensityMatrix
    split: tuple[tuple[str, ...], tuple[str, ...]]


def _qubit_pair_space(s_label: str, e_label: str) -> HilbertSpace:
    return HilbertSpace.of((s_label, 2), (e_label, 2))


def bell_state(s_label: str = "s", e_label: str = "e") -> PureState:
    """(|00> + |11>) / sqrt 2 on a labeled two-qubit space."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    return PureState(_qubit_pair_space(s_label, e_label), amps)


def werner_state(lam: float, s_label: str = "s", e_label: str = "e") -> DensityMatrix:
    """Convex mix of the maximally entangled and maximally mixed two-qubit states."""
    if not 0.0 <= lam <= 1.0:
        raise NotAWitnessPair(f"mixing weight {lam} outside [0, 1]")
    space = _qubit_pair_space(s_label, e_label)
    bell = bell_state(s_label, e_label).projector()
    return DensityMatrix(space, lam * bell + (1.0 - lam) * np.eye(4) / 4.0)


def witness_pair_bell_vs_product(s_label: str = "s", e_label: str = "e") -> WitnessPair:
    """Maximally entangled parent against the uncorrelated one; both marginals I/2."""
    space = _qubit_pair_space(s_label, e_label)
    return WitnessPair(
        pair_id="bell_vs_product",
        rho_1=bell_state(s_label, e_label).density_matrix(),
        rho_2=DensityMatrix(space, np.eye(4, dtype=np.complex128) / 4.0),
        split=((s_label,), (e_label,)),
    )


def witness_pair_werner(
    lam_1: float, lam_2: float, s_label: str = "s", e_label: str = "e"
) -> WitnessPair:
    """Two Werner states; every member of the family has both marginals I/2."""
    return WitnessPair(
        pair_id=f"werner_{lam_1:g}_{lam_2:g}",
        rho_1=werner_state(lam_1, s_label, e_label),
        rho_2=werner_state(lam_2, s_label, e_label),
        split=((s_label,), (e_label,)),
    )


def witness_report_to_json(
    report: NonlinearityWitnessReport, channel_name: str, pair_id: str
) -> dict:
    return {
        "distance_before": float(report.marginal_distance_before),
        "distance_after": float(report.reduced_distance_after),
        "channel": channel_name,
        "pair_id": pair_id,
    }
