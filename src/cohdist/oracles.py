"""Independent cross-checks: brute-force enumeration and Monte Carlo.

Nothing here reuses the clique machinery: the subspace enumerator tests
every index subset directly against the rank-1 definition, and the
simulator samples branch outcomes from the analytic branch distribution.
Agreement between these oracles and the fast paths is what the test suite
leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionTooLargeError, IncompletePlanError
from .distill import DistillationPlan, _require_source_dim
from .states import DensityMatrix, PureStateVector, SUPPORT_TOL
from .subspaces import RANK1_TOL, PureSubspace

BRUTE_DIM_CAP = 16
RNG_ALGORITHM = "Philox4x64"


# ===========================================================================
# exhaustive subspace enumeration
# ===========================================================================

def _pure_restriction(rho: DensityMatrix, idx: tuple[int, ...]) -> PureSubspace | None:
    """The restriction to idx as a subspace, or None when it is not pure."""
    sel = list(idx)
    sub = rho.matrix[np.ix_(sel, sel)]
    weight = float(np.real(np.trace(sub)))
    vals, vecs = np.linalg.eigh(sub / weight)
    if len(vals) > 1 and float(vals[-2]) > RANK1_TOL:
        return None
    vec = vecs[:, -1]
    lead = np.argmax(np.abs(vec) > 1e-8)
    vec = vec * np.conj(vec[lead] / abs(vec[lead]))
    vec = vec / np.linalg.norm(vec)
    return PureSubspace(idx, weight, np.abs(vec) ** 2, vec, rho.dim)


def brute_subspaces(rho: DensityMatrix) -> list[PureSubspace]:
    """All maximal pure subspaces by checking every index subset.

    Exponential in dimension; refuses above BRUTE_DIM_CAP.  Output matches
    the ordering of ``subspaces.maximal_pure_subspaces`` so the two can be
    compared element by element.
    """
    if rho.dim > BRUTE_DIM_CAP:
        raise DimensionTooLargeError(
            f"brute force capped at dimension {BRUTE_DIM_CAP}, got {rho.dim}"
        )
    verts = [i for i in range(rho.dim) if rho.diagonal()[i] > SUPPORT_TOL]
    if not verts:
        raise DegenerateStateError("state has no strictly positive population")
    pure_sets: list[tuple[int, ...]] = []
    for mask in range(1, 1 << len(verts)):
        idx = tuple(verts[b] for b in range(len(verts)) if mask >> b & 1)
        if _pure_restriction(rho, idx) is not None:
            pure_sets.append(idx)
    maximal = [
        s for s in pure_sets
        if not any(set(s) < set(t) for t in pure_sets)
    ]
    maximal.sort(key=lambda s: (-len(s), s))
    return [_pure_restriction(rho, idx) for idx in maximal]


# ===========================================================================
# Monte Carlo protocol simulation
# ===========================================================================

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
    ``rng_algorithm`` is keyed with the seed directly.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    gap = plan.completeness_gap()
    if not gap <= 1e-9:     # inf when a Kraus entry overflows when squared
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


# ===========================================================================
# random instance generators
# ===========================================================================

def random_pure_state(
    rng: np.random.Generator, dim: int, support: list[int] | None = None
) -> PureStateVector:
    """Complex-Gaussian pure state, optionally confined to a support set."""
    if support is None:
        support = list(range(dim))
    amps = np.zeros(dim, dtype=complex)
    vec = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    # keep amplitudes bounded away from zero so the support is exact
    mags = 0.15 + np.abs(vec)
    amps[support] = mags * np.exp(1j * np.angle(vec))
    amps /= np.linalg.norm(amps)
    return PureStateVector(amps)


def random_block_state(
    rng: np.random.Generator, dim: int
) -> tuple[DensityMatrix, list[tuple[int, ...]]]:
    """Block-structured mixed state with known maximal pure subspaces.

    Random disjoint index blocks each carry a pure coherent state; leftover
    indices carry plain diagonal weight.  The returned ground truth lists
    every block and singleton, ordered like the enumeration routines.
    """
    perm = list(rng.permutation(dim))
    blocks: list[list[int]] = []
    pos = 0
    while pos < dim:
        size = int(rng.integers(1, min(4, dim - pos) + 1))
        blocks.append(sorted(perm[pos:pos + size]))
        pos += size
    weights = rng.dirichlet(np.ones(len(blocks))) * 0.9 + 0.1 / len(blocks)
    weights /= weights.sum()
    mat = np.zeros((dim, dim), dtype=complex)
    for w, block in zip(weights, blocks):
        psi = random_pure_state(rng, dim, support=block)
        mat += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    truth = sorted((tuple(b) for b in blocks), key=lambda s: (-len(s), s))
    return DensityMatrix(mat), truth


def random_mixture_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Mixture of 1-3 random pure states plus optional diagonal noise."""
    k = int(rng.integers(1, 4))
    parts = []
    for _ in range(k):
        size = int(rng.integers(1, dim + 1))
        support = sorted(rng.choice(dim, size=size, replace=False).tolist())
        psi = random_pure_state(rng, dim, support=support)
        parts.append(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    weights = rng.dirichlet(np.ones(k))
    mat = sum(w * p for w, p in zip(weights, parts))
    if rng.random() < 0.5:
        lam = float(rng.uniform(0.05, 0.3))
        noise = rng.dirichlet(np.ones(dim))
        mat = (1.0 - lam) * mat + lam * np.diag(noise.astype(complex))
    return DensityMatrix(mat)
