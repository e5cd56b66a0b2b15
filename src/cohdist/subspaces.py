"""Pure coherent-state subspace detection.

A subset of basis indices is a *pure subspace* of rho when the projected,
renormalized state P rho P / tr(P rho P) is pure.  For a valid density
matrix this happens exactly when the normalized modulus matrix

    A_ij = |rho_ij| / sqrt(rho_ii * rho_jj)      (0 when a population is 0)

equals 1 on every pair inside the subset, so the maximal pure subspaces
are the maximal cliques of the graph with edges {i, j : A_ij = 1}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .states import (
    DensityMatrix,
    PureStateVector,
    SUPPORT_TOL,
    positive_diagonal_indices,
)

A_ONE_TOL = 1e-9        # |A_ij - 1| tolerance for a unit-coherence edge
RANK1_TOL = 1e-9        # second eigenvalue ceiling for a pure restriction
_TIE_TOL = 1e-12


def a_matrix(rho: DensityMatrix) -> np.ndarray:
    """Normalized modulus matrix of ``rho``.

    Rows/columns with vanishing population are zeroed; on the rest the
    entries obey 0 <= A_ij <= 1 (+ tolerance) by Cauchy-Schwarz, with
    A_ii = 1.
    """
    diag = rho.diagonal()
    scale = np.zeros_like(diag)
    pos = diag > SUPPORT_TOL
    scale[pos] = 1.0 / np.sqrt(diag[pos])
    a = np.abs(rho.matrix) * np.outer(scale, scale)
    a[np.diag_indices_from(a)] = np.where(pos, 1.0, 0.0)
    return a


@dataclass(frozen=True)
class CoherenceSupportGraph:
    """Unit-coherence graph: vertices are populated indices, edges A_ij = 1."""

    vertices: tuple[int, ...]
    adjacency: dict[int, frozenset[int]]

    @classmethod
    def from_state(cls, rho: DensityMatrix) -> "CoherenceSupportGraph":
        verts = positive_diagonal_indices(rho)
        # unpopulated rows and columns of the A-matrix are 0, so never edges
        unit = np.abs(a_matrix(rho) - 1.0) <= A_ONE_TOL
        np.fill_diagonal(unit, False)
        # np.nonzero lists the columns row by row, so cut them at the row ends
        cols = np.split(np.nonzero(unit)[1], np.cumsum(unit.sum(axis=1))[:-1])
        return cls(verts, {i: frozenset(cols[i].tolist()) for i in verts})

    def maximal_cliques(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal cliques, sorted by size desc then indices.

        Unit coherence is transitive, so a component is normally a clique:
        when every member's closed neighbourhood equals the first one's, that
        neighbourhood is emitted whole.  Bron-Kerbosch runs only on the
        remaining components, whose edges sit at the tolerance edge.
        """
        found: list[tuple[int, ...]] = []
        adj = self.adjacency
        done: set[int] = set()
        rest: set[int] = set()
        for v in self.vertices:
            if v in done:
                continue
            nbhd = adj[v] | {v}
            if all(adj[u] | {u} == nbhd for u in nbhd):
                found.append(tuple(sorted(nbhd)))
                done |= nbhd
            else:
                rest.add(v)

        def expand(clique: set, candidates: set, excluded: set):
            if not candidates and not excluded:
                found.append(tuple(sorted(clique)))
                return
            # pivot on the vertex covering the most candidates
            pivot = max(candidates | excluded, key=lambda u: len(candidates & adj[u]))
            for v in sorted(candidates - adj[pivot]):
                expand(clique | {v}, candidates & adj[v], excluded & adj[v])
                candidates = candidates - {v}
                excluded = excluded | {v}

        if rest:
            expand(set(), rest, set())
        found.sort(key=lambda c: (-len(c), c))
        return found


@dataclass(frozen=True)
class PureSubspace:
    """One maximal pure subspace: index set, weight tr(P rho P), pure state."""

    indices: tuple[int, ...]
    weight: float
    state: PureStateVector

    @property
    def rank(self) -> int:
        return len(self.indices)


def _restricted_pure_state(rho: DensityMatrix, indices: tuple[int, ...]):
    """Weight and embedded pure state of a restriction known to be rank-1.

    Returns (weight, state, second_eigenvalue); the caller decides what to
    do when the second eigenvalue is not small.
    """
    idx = list(indices)
    sub = rho.matrix[np.ix_(idx, idx)]
    weight = float(np.real(np.trace(sub)))
    vals, vecs = np.linalg.eigh(sub / weight)
    second = float(vals[-2]) if len(vals) > 1 else 0.0
    vec = vecs[:, -1]
    # fix global phase: first sizeable amplitude made real positive
    lead = np.argmax(np.abs(vec) > 1e-8)
    phase = vec[lead] / abs(vec[lead])
    vec = vec * np.conj(phase)
    amps = np.zeros(rho.dim, dtype=complex)
    amps[idx] = vec / np.linalg.norm(vec)
    return weight, PureStateVector(amps), second


def maximal_pure_subspaces(rho: DensityMatrix) -> list[PureSubspace]:
    """Enumerate all maximal pure subspaces of ``rho``.

    Output is sorted by descending coherence rank, then lexicographic index
    sets.  Every returned restriction passes the rank-1 check (second
    eigenvalue at most RANK1_TOL).
    """
    graph = CoherenceSupportGraph.from_state(rho)
    out = []
    for clique in graph.maximal_cliques():
        weight, state, second = _restricted_pure_state(rho, clique)
        if second > RANK1_TOL:
            raise ValidationError(
                f"restriction to {clique} not rank-1 (second eigenvalue {second:.3e}); "
                "input violates density-matrix invariants"
            )
        out.append(PureSubspace(clique, weight, state))
    return out


def has_rank2_subspace(rho: DensityMatrix) -> bool:
    """True iff some pair of indices carries unit coherence (A_ij = 1).

    Equivalent to: some pure coherent state of rank >= 2 is reachable from
    ``rho`` with nonzero probability.
    """
    a = a_matrix(rho)
    mask = ~np.eye(rho.dim, dtype=bool)
    return bool(np.any(np.abs(a[mask] - 1.0) <= A_ONE_TOL))


@dataclass(frozen=True)
class DisjointFamily:
    """Pairwise-disjoint subspace selection with its objective value."""

    members: tuple[PureSubspace, ...]
    total_weight: float
    total_value: float

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.indices for s in self.members)


def optimize_disjoint_selection(
    entries: list[tuple[tuple[int, ...], float, float]],
) -> tuple[tuple[int, ...], float, float]:
    """Exact maximum-value selection of pairwise-disjoint index sets.

    ``entries`` holds (indices, weight, value) triples with positive weight
    and nonnegative value.  Returns positions of the chosen entries, in
    ascending order of their index sets, plus their total weight and value.
    Ties on value prefer larger total weight, then the lexicographically
    smallest tuple of index sets, so the result is deterministic.

    An entry that shares no index with another is always taken.  Unit
    coherence is transitive, so only entries sharing a level at the
    tolerance edge go through the branch-and-bound search (tail-sum bound).
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    uses = Counter(j for idx, _, _ in entries for j in idx)
    shared = [i for i in order if any(uses[j] > 1 for j in entries[i][0])]
    tail_value = [*accumulate(entries[i][2] for i in reversed(shared))][::-1] + [0.0]

    best = {"value": -1.0, "weight": -1.0, "key": None, "chosen": ()}

    def consider(chosen: tuple, value: float, weight: float):
        key = tuple(entries[i][0] for i in chosen)
        tied = value > best["value"] - _TIE_TOL
        if (
            value > best["value"] + _TIE_TOL
            or (tied and weight > best["weight"] + _TIE_TOL)
            or (tied and weight > best["weight"] - _TIE_TOL
                and (best["key"] is None or key < best["key"]))
        ):
            best.update(value=value, weight=weight, key=key, chosen=chosen)

    n = len(shared)

    def walk(i: int, chosen: tuple, used: frozenset, value: float, weight: float):
        if value + tail_value[i] < best["value"] - _TIE_TOL:
            return
        if i == n:
            consider(chosen, value, weight)
            return
        idx, w, v = entries[shared[i]]
        if not used & set(idx):
            walk(i + 1, chosen + (shared[i],), used | frozenset(idx), value + v, weight + w)
        walk(i + 1, chosen, used, value, weight)

    walk(0, (), frozenset(), 0.0, 0.0)
    dropped = set(shared) - set(best["chosen"])
    chosen = tuple(i for i in order if i not in dropped)
    # left-to-right sums in index-set order, the order a full search adds in
    weight = value = 0.0
    for i in chosen:
        weight += entries[i][1]
        value += entries[i][2]
    return chosen, float(weight), float(value)
