"""Monte Carlo replay of a distillation plan.

The simulator samples branch outcomes from the analytic branch
distribution with a counter-based generator keyed by the seed, so a run is
bit-reproducible.  ``cohdist simulate`` reports it; the brute-force
subspace oracle and the random instance generators live in the test suite.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IncompletePlanError, ValidationError
from .distill import DistillationPlan, _require_source_dim
from .states import PROB_TOL, DensityMatrix

RNG_ALGORITHM = "Philox4x64"


@dataclass(frozen=True)
class SimulationResult:
    """Seeded Monte Carlo run of a distillation plan."""

    shots: int
    seed: int
    successes: int
    empirical_probability: float
    standard_error: float
    analytic_probability: float
    per_branch_counts: dict[str, int]
    failure_count: int
    rng_algorithm: str = RNG_ALGORITHM


def branch_probabilities(plan: DistillationPlan, rho: DensityMatrix) -> np.ndarray:
    """Analytic outcome probabilities tr(K rho K†) = tr(K†K rho) per success branch.

    A plan whose dimension differs from rho's is a :class:`ValidationError`.
    """
    _require_source_dim("plan", plan.dim, rho.dim)
    weights = plan.monomials.weights(rho.diagonal())
    return np.where(weights > 0.0, weights, 0.0)


def simulate(
    plan: DistillationPlan, rho: DensityMatrix, shots: int, seed: int
) -> SimulationResult:
    """Sample branch outcomes and report the empirical success rate.

    The failure branch absorbs the leftover probability.  Runs with equal
    seeds return identical results; the counter-based generator named in
    ``rng_algorithm`` is keyed with the seed directly.  ``shots`` must be
    an integer in [1, 2^63) and ``seed`` a nonnegative integer, neither a
    ``bool``; anything else is a :class:`ValidationError`, and so is a
    plan whose dimension differs from rho's, refused before any other work.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or not 1 <= shots < 2**63:
        raise ValidationError(f"shots must be an integer in [1, 2^63), got {shots!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    _require_source_dim("plan", plan.dim, rho.dim)
    gap = plan.completeness_gap()
    if not gap <= PROB_TOL:     # inf when a Kraus entry overflows when squared
        raise IncompletePlanError(f"sum K†K exceeds identity by {gap:.3e}")
    probs = branch_probabilities(plan, rho)
    total = float(probs.sum())
    failure = max(0.0, 1.0 - total)
    pvals = np.append(probs, failure)
    pvals = pvals / pvals.sum()
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(shots, pvals)
    successes = int(shots - counts[-1])
    empirical = successes / shots
    return SimulationResult(
        shots=shots,
        seed=seed,
        successes=successes,
        empirical_probability=empirical,
        standard_error=float(np.sqrt(empirical * (1.0 - empirical) / shots)),
        analytic_probability=min(1.0, total),
        per_branch_counts={
            b.branch_id: int(c) for b, c in zip(plan.branches, counts[:-1])
        },
        failure_count=int(counts[-1]),
    )

