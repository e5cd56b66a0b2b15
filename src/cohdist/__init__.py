"""Probabilistic coherence distillation under strictly incoherent operations.

The package decides whether a target pure coherent state can be distilled
from a (generally mixed) source state with nonzero probability, computes the
exact maximal success probability, synthesizes an explicit Kraus protocol
attaining it, and answers two catalyst questions: can an auxiliary pure
state raise that probability, and can it push it all the way to 1.
"""

__version__ = "0.1.0"

from .catalysis import (
    ALPHAS_ABOVE_ONE,
    ALPHAS_BELOW_ONE,
    CatalystSearchReport,
    DeterministicGateMemberRecord,
    DeterministicGateReport,
    EnhancementGateReport,
    EnhancementRecord,
    catalyst_gates,
    catalyzed_pmax,
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
    full_plan,
    optimal_protocol,
    pmax_mixed,
    pmax_pure,
    verify_branch_outputs,
)
from .errors import (
    CohdistError,
    DegenerateStateError,
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
    majorizes,
    min_profile_ratio,
    power_mean,
    shannon_entropy,
    tensor,
)
from .oracles import (
    SimulationResult,
    branch_probabilities,
    simulate,
)
from .states import (
    DensityMatrix,
    PureStateVector,
    as_distribution,
    validate_density,
)
from .subspaces import (
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
    # measures
    "min_profile_ratio",
    "majorizes",
    "tensor",
    "power_mean",
    "shannon_entropy",
    # subspaces
    "a_matrix",
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
    "catalyst_gates",
    "ALPHAS_BELOW_ONE",
    "ALPHAS_ABOVE_ONE",
    "catalyzed_pmax",
    "search_catalyst",
    # oracles
    "branch_probabilities",
    "simulate",
    "SimulationResult",
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
    "IncompletePlanError",
    "PreconditionError",
    "ProtocolSynthesisError",
]
