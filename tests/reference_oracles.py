"""Reference machinery for the test suite: a brute-force subspace oracle,
seeded random instances and test-only helpers.

Nothing here reuses the component machinery: the subspace enumerator
tests every index subset directly against the rank-1 definition.  Agreement
between it and :func:`cohdist.maximal_pure_subspaces` is what the subspace
tests lean on.  The generators draw states with known structure, and the
helpers give the single-operator conversion baseline, the dephased state,
the coherence rank, tail-sum profiles, a subspace's d-length state and the
catalyst search's candidates in scan order.  The package itself reads none
of this.
"""

from __future__ import annotations

import numbers

import numpy as np

from cohdist import catalysis
from cohdist.distill import StrictlyIncoherentKraus, _require_source_dim
from cohdist.errors import CohdistError, DegenerateStateError, RankDeficitError, ValidationError
from cohdist.states import DensityMatrix, PureStateVector, SUPPORT_TOL, support_profile, validate_density
from cohdist.subspaces import A_ONE_TOL, RANK1_TOL, PureSubspace

BRUTE_DIM_CAP = 16


class DimensionTooLargeError(CohdistError):
    """Input dimension beyond the brute-force oracle's cap."""


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
    return PureSubspace(idx, weight, np.abs(vec) ** 2, vec)


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
    pure = np.array([
        mask for mask in range(1, 1 << len(verts))
        if _pure_restriction(rho, tuple(verts[b] for b in range(len(verts)) if mask >> b & 1))
    ], dtype=np.int64)
    # a pure set is maximal when no other pure set holds all of its levels
    maximal = [
        tuple(verts[b] for b in range(len(verts)) if mask >> b & 1)
        for mask in pure.tolist()
        if np.count_nonzero(pure & mask == mask) == 1
    ]
    maximal.sort(key=lambda s: (-len(s), s))
    return [_pure_restriction(rho, idx) for idx in maximal]


# ===========================================================================
# random instance generators
# ===========================================================================
# Each generator checks its arguments before any random draw, so a refused
# call leaves ``rng`` where it was.

def _is_index(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_dim(dim) -> None:
    if not (_is_index(dim) and dim >= 1):
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")


def random_pure_state(
    rng: np.random.Generator, dim: int, support: list[int] | None = None
) -> PureStateVector:
    """Complex-Gaussian pure state, optionally confined to a support set.

    ``dim`` must be a positive integer and ``support`` a nonempty sequence
    of distinct indices in [0, dim); anything else is a :class:`ValidationError`.
    """
    _require_dim(dim)
    if support is None:
        support = list(range(dim))
    elif not (0 < len(set(support)) == len(support)
              and all(_is_index(i) and 0 <= i < dim for i in support)):
        raise ValidationError(
            f"support must be distinct indices in [0, {dim}), got {support!r}"
        )
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
    _require_dim(dim)
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
    _require_dim(dim)
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


def overlapping_state() -> DensityMatrix:
    """Borderline coherences: the unit graph on three levels is a path, not a clique.

    Gram vectors at tiny relative angles put the (0,1) and (1,2) coherences
    inside the unit tolerance while (0,2) stays outside.  The one component
    (0, 1, 2) passes the rank-1 check (second eigenvalue about 5e-10).
    """
    theta = np.sqrt(2 * 4e-10)
    pops = np.array([0.4, 0.35, 0.25])
    angles = np.array([0.0, theta, 2 * theta])
    g = np.sqrt(pops)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return validate_density((g @ g.T).astype(complex))


def chain_state(n: int) -> DensityMatrix:
    """``overlapping_state`` extended to n levels of equal population: a path
    of n - 1 unit edges, whose component fails the rank-1 check from n = 5 on."""
    angles = np.arange(n) * np.sqrt(8e-10)
    g = np.stack([np.cos(angles), np.sin(angles)], axis=1) / np.sqrt(n)
    return validate_density((g @ g.T).astype(complex))


def edge_state(graph) -> DensityMatrix:
    """A state of equal populations whose unit-coherence graph is ``graph``.

    ``graph`` is a symmetric boolean adjacency matrix.  Distinct components
    get orthogonal Gram vectors.  Within a component the Gram matrix is
    M = J - a (J - I) - b B, with B the non-edges, so 1 - A_ij is a =
    0.99 A_ONE_TOL on an edge and a + b, just past A_ONE_TOL, on a non-edge.
    With b = a / (2 max(1, lambda_max(B))), M stays positive semidefinite
    and every component passes the rank-1 check.  The complement of n / 3
    disjoint triangles (:func:`moon_moser_graph`) gives the most maximal
    cliques.
    """
    adj = np.array(graph, dtype=bool)
    n = len(adj)
    label = np.arange(n)
    for _ in range(n):
        label = np.array([label[adj[i] | (np.arange(n) == i)].min() for i in range(n)])
    gram = np.zeros((n, n))
    for c in np.unique(label):
        members = np.flatnonzero(label == c)
        non_edges = ~adj[np.ix_(members, members)] & ~np.eye(members.size, dtype=bool)
        a = 0.99 * A_ONE_TOL
        b = a / (2.0 * max(1.0, float(np.linalg.eigvalsh(non_edges.astype(float)).max())))
        gram[np.ix_(members, members)] = 1.0 - a * (members[:, None] != members) - b * non_edges
    return validate_density((gram / n).astype(complex))


def moon_moser_graph(n: int) -> np.ndarray:
    """The complement of n / 3 disjoint triangles: 3^(n/3) maximal cliques."""
    group = np.arange(n) // 3
    return group[:, None] != group


def dust_state(levels: int) -> DensityMatrix:
    """A pure qubit of profile (0.6, 0.4) beside ``levels`` diagonal levels of population SUPPORT_TOL.

    Those populations count as zero, so no maximal pure subspace holds them
    and the subspaces' total weight falls short of 1 by levels * SUPPORT_TOL.
    """
    amps = np.sqrt(np.array([0.6, 0.4]) * (1.0 - levels * SUPPORT_TOL))
    mat = np.diag(np.r_[0.0, 0.0, np.full(levels, SUPPORT_TOL)]).astype(complex)
    mat[:2, :2] = np.outer(amps, amps)
    return validate_density(mat)


# ===========================================================================
# test-only helpers
# ===========================================================================

def conversion_kraus(psi: PureStateVector, phi: PureStateVector) -> StrictlyIncoherentKraus:
    """Single success operator at the largest admissible scale.

    Aligns both support profiles by descending amplitude, divides target by
    source amplitude entrywise and rescales so the largest coefficient has
    unit modulus.  Its success probability is the smallest aligned ratio
    min_t |psi_t / phi_t|^2, which multi-branch protocols can beat.  A
    target whose dimension differs from psi's is a :class:`ValidationError`.
    """
    _require_source_dim("target", phi.dim, psi.dim)
    src, _ = support_profile(psi.probabilities())
    tgt, _ = support_profile(phi.probabilities())
    if src.size < tgt.size:
        raise RankDeficitError(
            f"source coherence rank {src.size} below target rank {tgt.size}"
        )
    src = src[:tgt.size]
    coeffs = phi.amplitudes[tgt] / psi.amplitudes[src]
    scale = 1.0 / np.abs(coeffs).max()
    return StrictlyIncoherentKraus._from_triples(psi.dim, tgt, src, scale * coeffs)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Apply the diagonal-keeping (fully dephasing) map."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)))


def coherence_rank(psi: PureStateVector) -> int:
    """Number of amplitudes in :func:`~cohdist.states.support_profile`."""
    return support_profile(psi.probabilities())[0].size


def suffix_profile(weights) -> np.ndarray:
    """Tail sums of the descending-sorted weights.

    Entry ``l`` (0-based) is the sum of entries ``l..d-1`` after sorting,
    ties in index order, so entry 0 is the full total.
    """
    w = np.array(weights, dtype=float)
    out = np.cumsum(w[np.argsort(-w, kind="stable")][::-1])[::-1]
    out[out < 0.0] = 0.0
    return out


def subspace_state(subspace: PureSubspace, dim: int) -> PureStateVector:
    """The subspace's pure state embedded in all ``dim`` levels."""
    amps = np.zeros(dim, dtype=complex)
    amps[list(subspace.indices)] = subspace.amplitudes
    return PureStateVector(amps)


def catalyst_candidates(max_dim, grid_step) -> list[tuple[float, ...]]:
    """The catalyst search's grid profiles as tuples, in its scan order.

    Each is the positive part of its zero-padded grid row.
    """
    grid = catalysis._catalyst_grid(max_dim, grid_step)
    return [tuple(v for v in row if v > 0.0) for row in grid.tolist()]
