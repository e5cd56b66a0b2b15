"""Probabilistic coherence distillation under strictly incoherent operations.

The package decides whether a target pure coherent state can be distilled
from a (generally mixed) source state with nonzero probability, computes the
exact maximal success probability, synthesizes an explicit Kraus protocol
attaining it, and answers two catalyst questions: can an auxiliary pure
state raise that probability, and can it push it all the way to 1.
"""

__version__ = "0.1.0"

from .catalysis import (
    CatalystSearchReport,
    DeterministicGateMemberRecord,
    DeterministicGateReport,
    EnhancementGateReport,
    EnhancementRecord,
    catalyst_candidates,
    catalyzed_pmax,
    default_alpha_grid,
    deterministic_gate,
    enhancement_gate,
    search_catalyst,
)
from .distill import (
    BranchCheck,
    DistillationPlan,
    MixedPmaxResult,
    PlanBranch,
    StrictlyIncoherentKraus,
    SubspaceYield,
    conversion_kraus,
    full_plan,
    optimal_protocol,
    pmax_mixed,
    pmax_pure,
    verify_branch_outputs,
)
from .errors import (
    CohdistError,
    DegenerateStateError,
    DimensionTooLargeError,
    IncoherentTargetError,
    IncompletePlanError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    NotStrictlyIncoherentError,
    PreconditionError,
    ProtocolSynthesisError,
    RankDeficitError,
    TraceNotOneError,
    ValidationError,
)
from .measures import (
    cl_profile,
    coherence_rank,
    majorizes,
    min_profile_ratio,
    power_mean,
    power_means,
    shannon_entropy,
    sorted_descending,
    suffix_profile,
    tensor,
)
from .oracles import (
    SimulationResult,
    branch_probabilities,
    brute_subspaces,
    random_block_state,
    random_mixture_state,
    random_pure_state,
    simulate,
)
from .states import (
    DensityMatrix,
    PureStateVector,
    as_distribution,
    dephase,
    entrywise_abs,
    validate_density,
)
from .subspaces import (
    CoherenceSupportGraph,
    DisjointFamily,
    PureSubspace,
    a_matrix,
    has_rank2_subspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
)

__all__ = [
    "__version__",
    # states
    "DensityMatrix",
    "PureStateVector",
    "validate_density",
    "as_distribution",
    "dephase",
    "entrywise_abs",
    # measures
    "sorted_descending",
    "coherence_rank",
    "suffix_profile",
    "cl_profile",
    "min_profile_ratio",
    "majorizes",
    "tensor",
    "power_mean",
    "power_means",
    "shannon_entropy",
    # subspaces
    "a_matrix",
    "CoherenceSupportGraph",
    "PureSubspace",
    "DisjointFamily",
    "maximal_pure_subspaces",
    "optimize_disjoint_selection",
    "has_rank2_subspace",
    # distillation
    "StrictlyIncoherentKraus",
    "PlanBranch",
    "DistillationPlan",
    "SubspaceYield",
    "MixedPmaxResult",
    "BranchCheck",
    "pmax_pure",
    "pmax_mixed",
    "conversion_kraus",
    "optimal_protocol",
    "full_plan",
    "verify_branch_outputs",
    # catalysis
    "EnhancementRecord",
    "EnhancementGateReport",
    "DeterministicGateMemberRecord",
    "DeterministicGateReport",
    "CatalystSearchReport",
    "enhancement_gate",
    "deterministic_gate",
    "default_alpha_grid",
    "catalyzed_pmax",
    "catalyst_candidates",
    "search_catalyst",
    # oracles
    "brute_subspaces",
    "branch_probabilities",
    "simulate",
    "SimulationResult",
    "random_pure_state",
    "random_block_state",
    "random_mixture_state",
    # errors
    "CohdistError",
    "ValidationError",
    "NonSquareError",
    "NotHermitianError",
    "NotPSDError",
    "TraceNotOneError",
    "NotStrictlyIncoherentError",
    "DegenerateStateError",
    "IncoherentTargetError",
    "RankDeficitError",
    "DimensionTooLargeError",
    "IncompletePlanError",
    "PreconditionError",
    "ProtocolSynthesisError",
]
