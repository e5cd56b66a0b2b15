"""Pure coherent-state subspace detection.

A subset of basis indices is a *pure subspace* of rho when the projected,
renormalized state P rho P / tr(P rho P) is pure.  For a valid density
matrix this happens exactly when the normalized modulus matrix

    A_ij = |rho_ij| / sqrt(rho_ii * rho_jj)      (0 when a population is 0)

equals 1 on every pair inside the subset, so the maximal pure subspaces
are the maximal cliques of the graph with edges {i, j : A_ij = 1}.  On a
PSD matrix unit coherence is an equivalence relation (Cauchy-Schwarz
equality means parallel Gram vectors), so the cliques partition the
populated levels; only coherences at the tolerance edge make them overlap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .errors import ValidationError
from .states import A_ONE_TOL, PHASE_LEAD_TOL, RANK1_TOL, SUPPORT_TOL, TIE_TOL
from .states import DensityMatrix, positive_diagonal_indices


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
        return cls._from_mask(_unit_mask(rho), positive_diagonal_indices(rho))

    @classmethod
    def _from_mask(cls, unit: np.ndarray, verts) -> "CoherenceSupportGraph":
        """The graph of ``unit`` on ``verts``, a union of its components."""
        verts = np.asarray(verts, dtype=int)
        unit = unit[verts]
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
        :func:`maximal_pure_subspaces` passes only the components that are
        not cliques here.
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


def _cliques(unit: np.ndarray, verts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The maximal cliques of the unit-coherence graph, sorted by size desc then indices.

    Each populated level is labelled by the first member of its closed
    neighbourhood.  A label's levels form a clique component when all
    their rows of ``unit`` equal the label's row and that row holds just
    them; those components are read off in one pass.  Only the remaining
    levels (coherences at the tolerance edge) go to Bron-Kerbosch.
    """
    v = np.array(verts)
    rows = unit[v]
    label = rows.argmax(axis=1)
    differs = np.bincount(label, ~(rows == unit[label]).all(axis=1), minlength=len(unit))
    size = np.bincount(label, minlength=len(unit))
    whole = (differs[label] == 0) & (rows.sum(axis=1) == size[label])
    # disjoint cliques of one size compare by their first members
    order = np.lexsort((v, label, -size[label]))
    order = order[whole[order]]
    members, label = v[order].tolist(), label[order]
    cuts = [0, *(np.flatnonzero(label[1:] != label[:-1]) + 1).tolist(), len(members)]
    found = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
    if not whole.all():
        found += CoherenceSupportGraph._from_mask(unit, v[~whole]).maximal_cliques()
        found.sort(key=lambda c: (-len(c), c))
    return found


def _top_vectors(blocks: np.ndarray, cliques) -> np.ndarray:
    """Top eigenvectors of stacked trace-1 restrictions, checked to be rank-1.

    One ``eigh`` call covers the stack.  In each vector the first
    amplitude above PHASE_LEAD_TOL in modulus is made real positive.
    """
    vals, vecs = np.linalg.eigh(blocks)
    for k in np.flatnonzero(vals[:, -2] > RANK1_TOL)[:1].tolist():
        raise ValidationError(
            f"restriction to {cliques[k]} not rank-1 (second eigenvalue {vals[k, -2]:.3e}); "
            "input violates density-matrix invariants"
        )
    vec = vecs[:, :, -1]
    lead = vec[np.arange(len(vec)), np.argmax(np.abs(vec) > PHASE_LEAD_TOL, axis=1)]
    vec = vec * np.conj(lead / np.abs(lead))[:, None]
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def maximal_pure_subspaces(rho: DensityMatrix) -> list[PureSubspace]:
    """Enumerate all maximal pure subspaces of ``rho``.

    Output is sorted by descending coherence rank, then lexicographic index
    sets.  Every returned restriction passes the rank-1 check (second
    eigenvalue at most RANK1_TOL).  Restrictions of one size are stacked
    and go through one ``eigh`` call.

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
    cliques = _cliques(_unit_mask(rho), positive_diagonal_indices(rho))
    populations = rho.diagonal()
    out = []
    # cliques come sorted by size, so each size is one run
    for r, run in groupby(cliques, key=len):
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
    so it raises that function's ValidationError on a clique that fails
    the rank-1 check.  Equivalent to: some pair of indices carries unit
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
    """Exact maximum-value selection of pairwise-disjoint index sets.

    ``entries`` holds (indices, weight, value) triples with positive weight
    and nonnegative value.  Returns positions of the chosen entries, in
    ascending order of their index sets, plus their total weight and value.
    Ties on value prefer larger total weight, then the lexicographically
    smallest tuple of index sets, so the result is deterministic.

    An entry that shares no index with another is always taken.  Unit
    coherence is transitive, so only entries sharing a level at the
    tolerance edge go through the branch-and-bound search (tail-sum bound).
    That search is one loop over an explicit stack of frames, with each
    entry's levels as an int bitmask, so it has no recursion limit; a long
    chain of overlapping entries still costs exponential time.
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    uses = Counter(j for idx, _, _ in entries for j in idx)
    shared = [i for i in order if any(uses[j] > 1 for j in entries[i][0])]
    tail_value = [*accumulate(entries[i][2] for i in reversed(shared))][::-1] + [0.0]
    masks = [sum(1 << j for j in entries[i][0]) for i in shared]
    best_value, best_weight, best_key, best_chosen = -1.0, -1.0, None, ()
    # a frame: position in shared, chosen entries, used levels, value, weight;
    # "leave it out" is pushed before "take it", so frames pop in depth-first
    # order, taking first, and every prune test sees the same best result
    stack = [(0, (), 0, 0.0, 0.0)]
    while stack:
        i, chosen, used, value, weight = stack.pop()
        if value + tail_value[i] < best_value - TIE_TOL:
            continue
        if i == len(shared):
            key = tuple(entries[k][0] for k in chosen)
            tied = value > best_value - TIE_TOL
            if (
                value > best_value + TIE_TOL
                or (tied and weight > best_weight + TIE_TOL)
                or (tied and weight > best_weight - TIE_TOL
                    and (best_key is None or key < best_key))
            ):
                best_value, best_weight, best_key, best_chosen = value, weight, key, chosen
            continue
        _, w, v = entries[shared[i]]
        stack.append((i + 1, chosen, used, value, weight))
        if not used & masks[i]:
            stack.append((i + 1, chosen + (shared[i],), used | masks[i], value + v, weight + w))
    dropped = set(shared) - set(best_chosen)
    chosen = tuple(i for i in order if i not in dropped)
    # left-to-right sums in index-set order, the order a full search adds in
    weight = value = 0.0
    for i in chosen:
        weight += entries[i][1]
        value += entries[i][2]
    return chosen, float(weight), float(value)
