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

parent_conditioned_probabilities evolves and decomposes nothing itself: it
sums the channel's other output factors out of ontic's memoized joint table.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .channels import _QUBIT_PAIR, QuantumChannel, _reduced_channel, apply
from .errors import NotAProjector, NotAWitnessPair, NothingToTrace, SpaceMismatch
from .ontic import ConditionalProbabilityTable, _conditional_core, _first_group_marginal
from .qcore import DensityMatrix, PureState, _check_partition, partial_trace, trace_distance

__all__ = [
    "NonlinearityWitnessReport",
    "WitnessPair",
    "conditional_channel_given_env",
    "parent_conditioned_probabilities",
    "nonlinearity_witness",
    "bell_state",
    "werner_state",
    "witness_pair_bell_vs_product",
    "witness_pair_werner",
    "witness_report_to_json",
]


def conditional_channel_given_env(
    ch_w: QuantumChannel,
    p_e: np.ndarray,
    split: tuple[Sequence[str], Sequence[str]],
) -> QuantumChannel:
    """The system map obtained by fixing the environment input configuration.

    The rank-one projector P_E(e) is the environment state of the reduced
    map Tr_E[ch_W(X (x) P_E(e))], built by the same reduction as a unitary
    dilation; trace preservation is inherited from the parent channel.
    """
    if ch_w.in_space != ch_w.out_space:
        raise SpaceMismatch("conditioning needs a channel square on one parent space")
    e_space = ch_w.in_space.subspace(split[1])
    dim = e_space.total_dim
    arr = np.asarray(p_e, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise NotAProjector(f"projector has shape {arr.shape}, expected ({dim}, {dim})")
    tol.check(tol.hermiticity_defect(arr), tol.DERIVED, NotAProjector, "Hermiticity defect")
    tol.check(np.max(np.abs(arr @ arr - arr)), tol.DERIVED, NotAProjector, "idempotence defect")
    tol.check(abs(arr.trace() - 1.0), tol.DERIVED, NotAProjector, "rank-one trace defect")
    # a projector within the derived tolerance, made exactly a unit-trace state
    rho_e = DensityMatrix(e_space, (arr + arr.conjugate().T) / (2.0 * arr.trace().real))
    return _reduced_channel(ch_w.kraus, ch_w.in_space, rho_e, split)


def parent_conditioned_probabilities(
    ch_w: QuantumChannel,
    rho_w_t: DensityMatrix,
    s_split: Sequence[str],
) -> ConditionalProbabilityTable:
    """System configurations at t' conditioned on parent configurations at t.

    Marginalizes nothing away from the conditioning side: rows are the
    full parent decomposition, columns the system's reduced decomposition
    after the channel, with the remaining factors summed out.
    """
    s_labels, out = tuple(s_split), ch_w.out_space
    if out.subspace(s_labels) == out:
        raise NothingToTrace(f"the system split {list(s_labels)} leaves no factor to sum out")
    rest = tuple(l for l in out.labels if l not in s_labels)
    # a repeated label fails the core's partition check with BadPartition
    table, _, _, reduced_decs = _conditional_core(ch_w, rho_w_t, [s_labels, rest])
    values = _first_group_marginal(table, reduced_decs[0].probabilities.size)
    columns = tuple((i,) for i in range(values.shape[1]))
    return ConditionalProbabilityTable(table.parent_indices, columns, values, [s_labels])


@dataclass(frozen=True, eq=False)
class NonlinearityWitnessReport:
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
    tol.check(before, tol.DERIVED, NotAWitnessPair, "system marginal distance before evolution")
    after_1 = partial_trace(apply(ch_w, rho_w_1), s_labels)
    after_2 = partial_trace(apply(ch_w, rho_w_2), s_labels)
    return NonlinearityWitnessReport(
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


def bell_state() -> PureState:
    """(|00> + |11>) / sqrt 2 on the two-qubit space s, e."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    return PureState(_QUBIT_PAIR, amps)


def werner_state(lam: float) -> DensityMatrix:
    """Convex mix of the maximally entangled and maximally mixed two-qubit states."""
    if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
        raise NotAWitnessPair(f"mixing weight {lam!r} is not a real number in [0, 1]")
    bell = bell_state().projector()
    return DensityMatrix(_QUBIT_PAIR, lam * bell + (1.0 - lam) * np.eye(4) / 4.0)


def witness_pair_bell_vs_product() -> WitnessPair:
    """Maximally entangled parent against the uncorrelated one; both marginals I/2."""
    return WitnessPair(
        pair_id="bell_vs_product",
        rho_1=bell_state().density_matrix(),
        rho_2=DensityMatrix(_QUBIT_PAIR, np.eye(4, dtype=np.complex128) / 4.0),
        split=(("s",), ("e",)),
    )


def witness_pair_werner(lam_1: float, lam_2: float) -> WitnessPair:
    """Two Werner states; every member of the family has both marginals I/2."""
    rho_1, rho_2 = werner_state(lam_1), werner_state(lam_2)
    return WitnessPair(
        pair_id=f"werner_{float(lam_1):g}_{float(lam_2):g}",
        rho_1=rho_1,
        rho_2=rho_2,
        split=(("s",), ("e",)),
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
