"""Pure coherent-state subspace detection.

A subset of basis indices is a *pure subspace* of rho when the projected,
renormalized state P rho P / tr(P rho P) is pure.  For a valid density
matrix this happens exactly when the normalized modulus matrix

    A_ij = |rho_ij| / sqrt(rho_ii * rho_jj)      (0 when a population is 0)

equals 1 on every pair inside the subset.  On a PSD matrix unit coherence
is an equivalence relation (Cauchy-Schwarz equality means parallel Gram
vectors), so the maximal pure subspaces are the connected components of
the graph with edges {i, j : A_ij = 1}, and they partition the populated
levels.  Within A_ONE_TOL unit coherence is not transitive: at the
tolerance edge a component need not be a clique.  Each component is
checked to be rank-1 as a whole, and one that is not is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ValidationError
from .states import A_ONE_TOL, PHASE_LEAD_TOL, RANK1_TOL, SUPPORT_TOL
from .states import DensityMatrix, _components, positive_diagonal_indices


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
    np.fill_diagonal(a, pos)
    return a


def _unit_mask(rho: DensityMatrix) -> np.ndarray:
    """Unit-coherence mask |A_ij - 1| <= A_ONE_TOL as a boolean d x d array.

    The diagonal is True exactly on the populated levels; unpopulated rows
    and columns are False throughout.
    """
    a = a_matrix(rho)
    a -= 1.0
    np.abs(a, out=a)
    return a <= A_ONE_TOL


@dataclass(frozen=True)
class CoherenceSupportGraph:
    """Unit-coherence graph: vertices are populated indices, edges A_ij = 1."""

    vertices: tuple[int, ...]
    adjacency: dict[int, frozenset[int]]

    @classmethod
    def from_state(cls, rho: DensityMatrix) -> "CoherenceSupportGraph":
        verts = np.array(positive_diagonal_indices(rho))
        unit = _unit_mask(rho)[verts]
        unit[np.arange(len(verts)), verts] = False
        # np.nonzero lists the columns row by row, so cut them at the row ends
        cols = np.split(np.nonzero(unit)[1], np.cumsum(unit.sum(axis=1))[:-1])
        verts = verts.tolist()
        return cls(tuple(verts), {i: frozenset(c.tolist()) for i, c in zip(verts, cols)})

    def maximal_cliques(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal cliques by Bron-Kerbosch, sorted by size desc then indices.

        Vertex sets are Python ints used as bitsets (bit i for the i-th
        smallest vertex), and the search keeps its frames on an explicit
        stack, so a clique of any size is found without recursion.
        :func:`maximal_pure_subspaces` reads components, not cliques, and
        does not call it.
        """
        verts = sorted(self.vertices)
        pos = {v: i for i, v in enumerate(verts)}
        nbrs = [sum(1 << pos[u] for u in self.adjacency[v]) for v in verts]
        found: list[tuple[int, ...]] = []
        # a frame: clique, candidates, excluded, and the vertices left to branch on
        stack = [[0, (1 << len(verts)) - 1, 0, None]] if verts else []
        while stack:
            frame = stack[-1]
            clique, candidates, excluded, todo = frame
            if todo is None:
                if not candidates and not excluded:
                    found.append(tuple(verts[i] for i in _bits(clique)))
                    stack.pop()
                    continue
                # pivot on the vertex covering the most candidates
                pivot = max(_bits(candidates | excluded),
                            key=lambda u: (candidates & nbrs[u]).bit_count())
                todo = frame[3] = _bits(candidates & ~nbrs[pivot])
            v = next(todo, None)
            if v is None:
                stack.pop()
                continue
            stack.append([clique | 1 << v, candidates & nbrs[v], excluded & nbrs[v], None])
            frame[1] = candidates & ~(1 << v)
            frame[2] = excluded | 1 << v
        found.sort(key=lambda c: (-len(c), c))
        return found


def _bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PureSubspace:
    """One maximal pure subspace of a state.

    ``weight`` is tr(P rho P).  ``amplitudes`` holds the restricted pure
    state on ``indices``, its first sizeable entry real positive, and
    ``profile`` its squared moduli.
    """

    indices: tuple[int, ...]
    weight: float
    profile: np.ndarray
    amplitudes: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.indices)


def _top_vectors(blocks: np.ndarray, components) -> np.ndarray:
    """Top eigenvectors of stacked trace-1 restrictions, checked to be rank-1.

    One ``eigh`` call covers the stack.  In each vector the first
    amplitude above PHASE_LEAD_TOL in modulus is made real positive.
    """
    vals, vecs = np.linalg.eigh(blocks)
    for k in np.flatnonzero(vals[:, -2] > RANK1_TOL)[:1].tolist():
        raise ValidationError(
            f"restriction to {components[k]} not rank-1 (second eigenvalue {vals[k, -2]:.3e}); "
            "no pure subspace spans this unit-coherence component"
        )
    vec = vecs[:, :, -1]
    lead = vec[np.arange(len(vec)), np.argmax(np.abs(vec) > PHASE_LEAD_TOL, axis=1)]
    vec = vec * np.conj(lead / np.abs(lead))[:, None]
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def maximal_pure_subspaces(rho: DensityMatrix) -> list[PureSubspace]:
    """Enumerate all maximal pure subspaces of ``rho``.

    They are the components of the unit-coherence graph, sorted by
    descending coherence rank, then lexicographic index sets.  Every
    component's restriction must pass the rank-1 check (second eigenvalue
    at most RANK1_TOL); one that fails raises ValidationError naming the
    component and its second eigenvalue.  Restrictions of one size are
    stacked and go through one ``eigh`` call.

    A state is enumerated once: it keeps the result as a tuple of the
    immutable subspaces, and every call returns a new list of them.  A
    restriction that fails the rank-1 check is not kept, so every call on
    that state raises the ValidationError again.
    """
    kept = vars(rho).get("_pure_subspaces")
    if kept is None:
        # stored as functools.cached_property stores, past the frozen dataclass's __setattr__
        kept = vars(rho)["_pure_subspaces"] = tuple(_enumerate(rho))
    return list(kept)


def _enumerate(rho: DensityMatrix) -> list[PureSubspace]:
    """The maximal pure subspaces of ``rho``, computed; see :func:`maximal_pure_subspaces`."""
    components = _components(_unit_mask(rho), positive_diagonal_indices(rho))
    populations = rho.diagonal()
    out = []
    # components come sorted by size, so each size is one run
    for r, run in groupby(components, key=len):
        run = list(run)
        idx = np.array(run)
        weights = populations[idx].sum(axis=1)
        if r == 1:
            amps = np.ones((len(run), 1), dtype=complex)
        else:
            blocks = rho.matrix[idx[:, :, None], idx[:, None, :]] / weights[:, None, None]
            amps = _top_vectors(blocks, run)
        profiles = np.abs(amps) ** 2
        for arr in (profiles, amps):
            arr.flags.writeable = False
        out += map(PureSubspace, run, weights.tolist(), profiles, amps)
    return out


def has_rank2_subspace(rho: DensityMatrix) -> bool:
    """True iff some maximal pure subspace of ``rho`` has coherence rank >= 2.

    Reads the subspaces the state keeps (:func:`maximal_pure_subspaces`),
    so it raises that function's ValidationError on a component that
    fails the rank-1 check.  Equivalent to: some pair of indices carries unit
    coherence (A_ij = 1), so some pure coherent state of rank >= 2 is
    reachable from ``rho`` with nonzero probability.
    """
    return any(s.rank >= 2 for s in maximal_pure_subspaces(rho))


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
    """The maximum-value selection of pairwise-disjoint index sets: all of them.

    ``entries`` holds (indices, weight, value) triples with positive weight
    and nonnegative value, such as the maximal pure subspaces, which
    partition the populated levels.  Returns the positions of every entry,
    in ascending order of their index sets, plus their total weight and
    value, each added left to right in that order.  Entries that share a
    level raise ValidationError.
    """
    levels = [j for idx, _, _ in entries for j in idx]
    if len(set(levels)) < len(levels):
        raise ValidationError("entries share a level; maximal pure subspaces are disjoint")
    chosen = tuple(sorted(range(len(entries)), key=lambda i: entries[i][0]))
    weight = value = 0.0
    for i in chosen:
        weight += entries[i][1]
        value += entries[i][2]
    return chosen, float(weight), float(value)
