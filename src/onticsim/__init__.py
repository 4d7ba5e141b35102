"""Finite-dimensional quantum dynamics with configuration-level bookkeeping.

Density matrices are decomposed into weighted configurations, channels
carry them forward in time, conditional probability tables connect the
configurations of a parent system to those of its subsystems, and
trajectory tools enumerate or sample the resulting stochastic processes.
"""

from .channels import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SWAP,
    SWAP_REFACTOR_TIME,
    CPTPReport,
    QuantumChannel,
    UnitaryFamily,
    UnitaryOperator,
    apply,
    channel_distance,
    channel_from_json,
    channel_to_json,
    choi_matrix,
    compose,
    dilation_channel,
    entangling_cnot_family,
    factorized_family,
    semigroup_defect,
    swap_refactorizing_family,
    unitary_channel,
    verify_cptp,
)
from .errors import (
    BadInterval,
    BadPartition,
    GridMismatch,
    LabelClash,
    NotADistribution,
    NotAProjector,
    NotAWitnessPair,
    NothingToTrace,
    NotUnitary,
    OnticSimError,
    SpaceMismatch,
    ToleranceBreach,
    TooManyTrajectories,
    UnknownSubsystem,
)
from .measurement import (
    BoundReport,
    MeasurementModel,
    MeasurementReport,
    SweepPoint,
    born_conditional_check,
    decoherence_scaling_sweep,
    error_entropy_bound,
    exponential_overlap,
    pointer_overlap,
    simulate_measurement,
)
from .ontic import (
    ConditionalProbabilityTable,
    OnticDecomposition,
    bayesian_propagation_check,
    conditional_probabilities,
    ontic_decomposition,
    single_system_conditional,
)
from .opendyn import (
    NonlinearityWitnessReport,
    WitnessPair,
    bell_state,
    conditional_channel_given_env,
    nonlinearity_witness,
    parent_conditioned_probabilities,
    werner_state,
    witness_pair_bell_vs_product,
    witness_pair_werner,
    witness_report_to_json,
)
from .qcore import (
    DensityMatrix,
    HilbertSpace,
    PureState,
    basis_state,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    partial_trace,
    permute_factors,
    space_from_json,
    space_to_json,
    tensor,
    trace_distance,
)
from .trajectories import (
    ENUMERATION_GUARD,
    MarkovKernelChain,
    OnticTrajectory,
    bloch_helix,
    enumerate_trajectory_measure,
    kernel_from_matrix,
    markov_chain_from_repeated_interaction,
    measure_to_json,
    sample_trajectories,
    sample_trajectory,
    trajectory_to_csv,
)

__version__ = "0.1.0"
