"""Exact distillation probabilities and explicit Kraus protocol synthesis.

A strictly incoherent Kraus operator has at most one nonzero entry per row
and per column, so it factors as  K = P_pi * K_delta * P  (permutation x
diagonal x incoherent projector); only its nonzero entries are stored, and
the dense matrix is built on demand.  A success branch for target |phi> is
a strictly incoherent K with K|psi> proportional to |phi>.

Every state is read through the support rule,
:func:`~cohdist.states.support_profile`.  Protocol synthesis for a pure
source runs in three steps:

1. the optimal probability P is the smallest tail-sum ratio of the two
   support profiles (source over target);
2. an intermediate profile x is built with  x >= P * q  entrywise and the
   source profile p majorized by x: entry l is the larger of its floor
   P*q_l and what the prefix of p still needs beyond the entries before
   it, so the floor holds exactly even for a tiny q_l.  The slack both
   conditions leave is exactly 1 - P, so x sums to 1;
3. p lies in the permutohedron of x, so it is a convex combination of at
   most n permuted copies of x (Caratheodory); each copy is one
   deterministic pre-processing branch, found by walking the tight sets of
   p against x, and one saturated success operator on the intermediate
   state finishes the job.

Composing each pre-processing branch with the success operator yields a
flat branch list whose total success probability equals P exactly.  (A
single saturated operator alone is not optimal in general: saturating it
can strand the failure branch on a profile of too-low coherence rank, so
the two-stage route is required.)

A mixed-state plan synthesizes each selected subspace from its own levels
and amplitudes.  Every stage runs in array passes: the split returns its
weights and permutations as stacked arrays, sorting the running point
once per step, and one pass turns them into the subspace's entry table,
(branch, row, column, value) rows with no operator built.  One
:meth:`StrictlyIncoherentKraus._stack` call then builds every operator of
a plan from the concatenated tables, for synthesized plans and plans read
from a file alike.  A plan carries one stacked monomial view of its
branches (:class:`MonomialStack`), built once: each branch's entries
padded to the largest branch, so no array grows with d.  The completeness
gap, the branch probabilities, sampling and the replay check all read it;
weights add each branch's entries in column order, with no BLAS call.
Replay is restricted to each branch's support: with v = K†|phi> nonzero
only on the used columns S, it evaluates v_S† rho_SS v_S.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncoherentTargetError,
    NonSquareError,
    NotStrictlyIncoherentError,
    ProtocolSynthesisError,
    RankDeficitError,
    ValidationError,
)
from .measures import _padded_rows, min_profile_ratio, min_profile_ratios
from .states import BRANCH_WEIGHT_FLOOR, ENTRY_TOL, PROB_TOL, TIE_TOL, _SPLIT_TOL
from .states import DensityMatrix, PureStateVector, _as_array, require_finite, support_profile
from .subspaces import (
    DisjointFamily,
    PureSubspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
)

_GATHER_CAP = 1 << 18    # entries of one replay gather (rho_SS blocks of many branches)


def _require_source_dim(name: str, dim: int, source_dim: int) -> None:
    """Raise ValidationError unless ``name``'s dimension ``dim`` is the source's."""
    if dim != source_dim:
        raise ValidationError(f"{name} dimension {dim} != source dimension {source_dim}")


# ===========================================================================
# strictly incoherent Kraus operators
# ===========================================================================

@dataclass(frozen=True)
class StrictlyIncoherentKraus:
    """Square matrix with at most one nonzero entry per row and per column.

    Stored as its nonzero entries only: column ``columns[t]`` (ascending)
    feeds row ``rows[t]`` with coefficient ``coefficients[t]``, in a
    ``dim`` x ``dim`` matrix; the three arrays are read-only.  ``matrix``,
    the dense form, is built from them on demand.
    """

    dim: int
    columns: np.ndarray
    rows: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def from_matrix(cls, raw) -> "StrictlyIncoherentKraus":
        mat = _as_array(raw, complex, "Kraus matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NonSquareError(f"Kraus matrix must be square, got {mat.shape}")
        rows, cols = np.nonzero(mat)
        return cls._from_triples(mat.shape[0], rows, cols, mat[rows, cols])

    @classmethod
    def from_entries(cls, dim: int, entries) -> "StrictlyIncoherentKraus":
        """Build from a sequence of (row, column, value) triples.

        Anything that is not such a sequence, with integer indices and
        numeric values, is a ValidationError.
        """
        try:
            triples = [tuple(entry) for entry in entries]
        except TypeError:
            raise ValidationError("Kraus entries must be a sequence of (row, column, value) triples") from None
        if any(len(entry) != 3 for entry in triples):
            raise ValidationError("Kraus entries must be (row, column, value) triples")
        rows, cols, values = zip(*triples) if triples else ((), (), ())
        index = _as_array((rows, cols), None, "Kraus row and column indices")
        if index.ndim != 2:
            raise ValidationError("Kraus row and column indices must be integers")
        return cls._from_triples(dim, *index, _as_array(values, complex, "Kraus values"))

    @classmethod
    def _from_triples(cls, dim: int, rows, cols, values) -> "StrictlyIncoherentKraus":
        """One operator from (row, column, value) entries; see :meth:`_stack`."""
        values = np.asarray(values, dtype=complex)
        return cls._stack(1, dim, np.zeros(values.size, dtype=np.intp), rows, cols, values)[0]

    @classmethod
    def _stack(cls, count: int, dim: int, branch, rows, cols, values) -> list["StrictlyIncoherentKraus"]:
        """``count`` operators from (branch, row, column, value) entries, in one pass.

        ``dim`` must be a positive integer.  Entries of modulus <= ENTRY_TOL
        are dropped; the rest need integer row and column indices in
        [0, dim), distinct within a branch.
        """
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValidationError(f"Kraus dimension must be a positive integer, got {dim!r}")
        values = np.asarray(values, dtype=complex)
        require_finite(values, "Kraus matrix")
        keep = np.abs(values) > ENTRY_TOL
        index = np.array((rows, cols))[:, keep]
        if index.size and index.dtype.kind not in "iu":
            raise ValidationError(f"Kraus row and column indices must be integers, got {index.dtype}")
        index = index.astype(np.intp, copy=False)
        # read as unsigned, a negative index lies past dim too
        if index.size and index.view(np.uintp).max() >= dim:
            raise ValidationError(f"Kraus indices must lie in [0, {dim}), got {index.min()} to {index.max()}")
        branch = np.asarray(branch, dtype=np.intp)[keep]
        # row keys a*dim + i and column keys a*dim + j, each sorted
        keys = branch * dim + index
        order = keys[1].argsort()
        keys.sort(axis=1)
        repeated = keys[:, 1:] == keys[:, :-1]
        if repeated.any():
            axis, at = np.argwhere(repeated)[0]
            k, n = keys[axis, at], np.count_nonzero(keys[axis] == keys[axis, at])
            raise NotStrictlyIncoherentError(f"{('row', 'column')[axis]} {k % dim} has {n} nonzero entries")
        # in column-key order the entries run branch by branch, columns ascending
        index, coefficients = index[:, order], values[keep][order]
        index.flags.writeable = coefficients.flags.writeable = False
        rows, cols = index
        ends = np.bincount(branch, minlength=count).cumsum().tolist()
        return [cls(int(dim), cols[lo:hi], rows[lo:hi], coefficients[lo:hi])
                for lo, hi in zip([0, *ends], ends)]

    def __eq__(self, other) -> bool:
        """Entry-wise: equal dimension, columns, rows and coefficients."""
        if not isinstance(other, StrictlyIncoherentKraus):
            return NotImplemented
        mine = (self.columns, self.rows, self.coefficients)
        theirs = (other.columns, other.rows, other.coefficients)
        return self.dim == other.dim and all(map(np.array_equal, mine, theirs))

    def __hash__(self) -> int:
        """Over dim, columns and rows, so equal operators hash equal."""
        return hash((self.dim, tuple(self.columns.tolist()), tuple(self.rows.tolist())))

    def reconstruct(self) -> np.ndarray:
        """Dense d x d form, a fresh array scattered from the entries."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.rows, self.columns] = self.coefficients
        return mat

    matrix = property(reconstruct)


# ===========================================================================
# plan containers
# ===========================================================================

@dataclass(frozen=True)
class PlanBranch:
    """One success branch: id, Kraus operator, analytic probability."""

    branch_id: str
    kraus: StrictlyIncoherentKraus
    probability: float


@dataclass(frozen=True)
class SubspaceYield:
    """Contribution of one selected subspace to the total probability."""

    subspace: PureSubspace
    ratio: float          # pure-state conversion probability for this branch
    achieved: float       # weight * ratio


@dataclass(frozen=True)
class MixedPmaxResult:
    """Maximal distillation probability of a mixed state, with breakdown."""

    p_max: float
    family: DisjointFamily
    per_subspace: tuple[SubspaceYield, ...]
    all_subspaces: tuple[PureSubspace, ...]
    overlap_adjusted: bool    # True when overlapping cliques forced a choice


@dataclass(frozen=True)
class MonomialStack:
    """All branches of a plan as arrays, one row per branch and one column per entry.

    Row a of ``columns``, ``rows`` and ``coefficients`` lists the used
    columns of branch a in ascending order, the row each one feeds and its
    coefficient, padded with column 0, row 0 and coefficient 0 up to the
    largest number of used columns; ``effects`` holds |c|^2 of those
    coefficients (inf where a square overflows), the diagonal of K†K on
    the used columns.  No array has a d-length axis.
    """

    effects: np.ndarray
    columns: np.ndarray
    rows: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def of(cls, operators) -> "MonomialStack":
        sizes = np.array([k.columns.size for k in operators], dtype=np.intp)
        filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
        columns, rows, coefficients = (np.zeros(filled.shape, t) for t in (np.intp, np.intp, complex))
        # a boolean mask fills its places row by row, so each branch's entries keep their order
        for out, parts in zip((columns, rows, coefficients),
                              zip(*((k.columns, k.rows, k.coefficients) for k in operators))):
            out[filled] = np.concatenate(parts)
        with np.errstate(over="ignore"):
            effects = np.abs(coefficients) ** 2
        return cls(effects, columns, rows, coefficients)

    def weights(self, populations: np.ndarray) -> np.ndarray:
        """tr(K†K rho) per branch: |c_t|^2 rho_{j_t j_t} added left to right over its entries.

        The padding adds exact zeros, and no BLAS call is made, so each
        weight has the bits of a plain loop over the branch's own entries.
        An overflowed effect gives inf, or nan on an empty level, silently.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.effects * populations[self.columns]
            return functools.reduce(np.add, terms.T, np.zeros(len(terms)))

    def overlaps(self, rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """<phi|K rho K†|phi> per branch, on each branch's used columns only.

        With v = K†|phi>, nonzero only on the used columns S, this is
        v_S† rho_SS v_S: one gather of the rho_SS blocks per chunk of
        branches, each chunk at most _GATHER_CAP entries.
        """
        v = self.coefficients.conj() * phi[self.rows]
        width = v.shape[1]
        chunk = max(1, _GATHER_CAP // max(1, width * width))
        out = np.empty(v.shape[0])
        for lo in range(0, v.shape[0], chunk):
            cols, vs = self.columns[lo:lo + chunk], v[lo:lo + chunk]
            block = rho[cols[:, :, None], cols[:, None, :]]
            out[lo:lo + chunk] = np.einsum("bi,bij,bj->b", vs.conj(), block, vs).real
        return out


@dataclass(frozen=True)
class DistillationPlan:
    """Flat list of success branches; failure is the implicit complement."""

    dim: int
    p_max: float
    branches: tuple[PlanBranch, ...]
    family_index_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # sampling counts each outcome under its id, and every check indexes
        # ``dim`` levels, so a repeated id or a foreign operator is refused here
        seen = set()
        for b in self.branches:
            if b.branch_id in seen:
                raise ValidationError(f"branch id {b.branch_id!r} repeats")
            seen.add(b.branch_id)
            if b.kraus.dim != self.dim:
                raise ValidationError(f"branch {b.branch_id!r} operator dimension "
                                      f"{b.kraus.dim} != plan dimension {self.dim}")

    @functools.cached_property
    def monomials(self) -> MonomialStack:
        """The branches' entries stacked once per plan; every plan check reads them."""
        return MonomialStack.of([b.kraus for b in self.branches])

    def completeness_gap(self) -> float:
        """Largest entry of the diagonal matrix sum(K†K) minus 1 (<= 0 for a valid plan)."""
        stack = self.monomials
        # padded entries run branch by branch, so each column adds in branch order; padding adds 0
        total = np.bincount(stack.columns.ravel(), weights=stack.effects.ravel(), minlength=self.dim)
        return float(total.max() - 1.0)


@dataclass(frozen=True)
class BranchCheck:
    """Outcome of re-deriving branch outputs; falsy when a branch failed."""

    ok: bool
    failed_branch_id: str | None
    worst_fidelity: float

    def __bool__(self) -> bool:
        return self.ok


# ===========================================================================
# pure-state transformation probability and operators
# ===========================================================================

def pmax_pure(psi: PureStateVector, phi: PureStateVector) -> float:
    """Optimal conversion probability between pure states.

    Equals the smallest tail-sum ratio of the support profiles; 1 when the
    dephased source is majorized by the dephased target, 0 when the source
    coherence rank is too small.  A target whose dimension differs from
    psi's is a :class:`ValidationError`.
    """
    _require_source_dim("target", phi.dim, psi.dim)
    return min_profile_ratio(support_profile(psi.probabilities())[1],
                             support_profile(phi.probabilities())[1])


def _intermediate_profile(p: np.ndarray, q: np.ndarray, prob: float) -> np.ndarray:
    """Sorted profile x with x >= prob*q entrywise (exactly) and p majorized by x."""
    prefix = np.cumsum(p)
    x = np.empty(p.size)
    run = 0.0
    for l in range(p.size):
        x[l] = max(prob * q[l], prefix[l] - run)
        run += x[l]
    x = np.sort(x)[::-1]
    total = float(x.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ProtocolSynthesisError(f"intermediate profile sums to {total!r}")
    return x / total


def _permutation_split(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and rows sigma with p[t] = sum_a w[a] * x[sigma[a, t]], at most n rows.

    Needs x sorted descending and p majorized by x, with equal sums within
    ``_SPLIT_TOL``; outside that contract it may return extra rows or raise
    :class:`ProtocolSynthesisError`.  The prefixes of the running point y's
    descending order whose sums match x's (tight sets) cut the positions
    into blocks; block ``b`` owns x's positions from
    ``b`` on.  Each step takes the vertex v that gives every block its slice
    of x in y's order, moves y to y + t(y - v) with the largest t that keeps
    every block in its permutohedron, and emits v with weight t/(1+t) of
    what is left.  That makes a new set tight, so after at most n - 1 steps
    every block is a singleton and y is the last vertex.

    The whole state lives in the sorted frame.  ``order`` lists the levels
    by block, descending in y within one, ties by level; ``ys`` is y in that
    order, so the vertex is x itself and a step moves ``ys`` along
    ``ys - x``.  ``gap`` holds 0, then x's prefix sums minus those of
    ``ys``, so the slack of position k in its block is
    gap[k + 1] - gap[start[k]].  Each Newton probe ys + t * step is
    re-sorted within the blocks, and the probe that settles t is the next
    point: its sort becomes the next ``order`` and the gap it left gives
    the next step's tight sets and its drift correction, with no second
    sort or prefix sum.
    """
    n = x.size
    pos = np.arange(n)
    x_prefix = np.cumsum(x)
    cut = np.zeros(n + 1, dtype=bool)      # per position: a block starts here
    cut[0] = cut[n] = True
    start = np.zeros(n, dtype=np.intp)     # per position: first position of its block
    gap = np.zeros(n + 1)
    rest, t = 1.0, 0.0
    weights: list[float] = []
    sigmas: list[np.ndarray] = []

    order = np.lexsort((-p,))              # one block so far; lexsort is stable, so ties by level
    ys = p[order].astype(float)
    np.subtract(x_prefix, ys.cumsum(), out=gap[1:])
    for _ in range(2 * n + 2):
        # y + t(y - v) is rounded to about (1 + t) * eps, hence the scaled tolerance
        cut[1:n] |= gap[1:n] - gap[start[:-1]] <= _SPLIT_TOL * (1.0 + t)
        start = np.maximum.accumulate(pos * cut[:n])
        end = np.minimum.accumulate(np.where(cut[1:], pos, n)[::-1])[::-1]
        # give every block back the exact sum that rounding drifts
        ys += (gap[end + 1] - gap[start]) / (end - start + 1)
        sigma = np.empty(n, dtype=np.intp)
        sigma[order] = pos
        sigmas.append(sigma)
        step = np.where(start == end, 0.0, ys - x)
        if not step.any():
            weights.append(rest)
            return np.array(weights), np.array(sigmas)
        # singleton bound: every coordinate stays within its block's range of x
        moving = step != 0.0
        room = np.where(step > 0, x[start] - ys, ys - x[end])[moving]
        t = float((room / np.abs(step[moving])).min())
        if not t > -1.0:    # far outside its block's range of x: p is not majorized by x
            raise ProtocolSynthesisError(f"permutation split left the permutohedron (t = {t!r})")
        inner = end != pos
        # Newton from the right on the concave smallest in-block top-k slack
        for _ in range(n + 2):
            zs = ys + t * step
            perm = np.lexsort((order, -zs, start))
            np.subtract(x_prefix, zs[perm].cumsum(), out=gap[1:])
            gaps = np.where(inner, gap[1:] - gap[start], np.inf)
            k = int(gaps.argmin())
            if gaps[k] >= -_SPLIT_TOL * (1.0 + t):
                break
            moved = step[perm].cumsum()
            t_next = t + gaps[k] / (moved[k] - (moved[start[k] - 1] if start[k] else 0.0))
            if not 0.0 <= t_next < t:
                break
            t = t_next
        else:   # the last Newton step moved t past the last probe
            zs = ys + t * step
            perm = np.lexsort((order, -zs, start))
            np.subtract(x_prefix, zs[perm].cumsum(), out=gap[1:])
        weights.append(rest * t / (1.0 + t))
        rest /= 1.0 + t
        order, ys = order[perm], zs[perm]
    raise ProtocolSynthesisError("permutation split did not converge")


def optimal_protocol(
    psi: PureStateVector, phi: PureStateVector
) -> list[tuple[StrictlyIncoherentKraus, float]]:
    """Branch list achieving the exact optimum for a pure source.

    Returns (operator, branch probability) pairs; probabilities add up to
    ``pmax_pure(psi, phi)`` within numerical tolerance.  Every operator
    maps |psi> onto a multiple of |phi>.  A target whose dimension differs
    from psi's is a :class:`ValidationError`.
    """
    _require_source_dim("target", phi.dim, psi.dim)
    src, _ = support_profile(psi.probabilities())
    tgt, _ = support_profile(phi.probabilities())
    probabilities, entries = _protocol(src, psi.amplitudes[src], tgt, phi.amplitudes[tgt])
    operators = StrictlyIncoherentKraus._stack(probabilities.size, psi.dim, *entries)
    return list(zip(operators, probabilities.tolist()))


def _protocol(src, src_amps, tgt, tgt_amps) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """:func:`optimal_protocol` from the support levels of source and target,
    in :func:`~cohdist.states.support_profile` order, and the amplitudes on them.

    Returns the branch probabilities and the branches' (branch, row, column,
    value) entries, for :meth:`StrictlyIncoherentKraus._stack`.
    """
    n, m = src.size, tgt.size
    if n < m:
        raise RankDeficitError(
            f"source coherence rank {n} below target rank {m}"
        )
    p = np.abs(src_amps) ** 2
    q = np.zeros(n)
    q[:m] = np.abs(tgt_amps) ** 2
    prob = float(min_profile_ratios([p], q)[0])
    if prob <= 0.0:
        raise RankDeficitError("conversion probability is zero")

    x = _intermediate_profile(p, q, prob)
    if np.min(x[:m] - prob * q[:m]) < -PROB_TOL:
        raise ProtocolSynthesisError("intermediate profile violates its floor")

    # success operator on the intermediate state: slot u -> target index
    scale = float(np.sqrt(np.min(x[:m] / q[:m])))

    # deterministic pre-processing: p = sum_a w[a] * x[sigma[a, t]].  x sums
    # to 1, but p keeps the source's norm, which is 1 only within TRACE_TOL;
    # the split needs equal sums within _SPLIT_TOL, so p is rescaled to x's
    if abs(x.sum() - p.sum()) > _SPLIT_TOL:
        p = p * (x.sum() / p.sum())
    weights, sigmas = _permutation_split(x, p)

    # branch a sends source level src[t] through slot sigma[a, t] to target
    # level tgt[sigma[a, t]]; slots past the target rank or with x = 0 carry
    # nothing.  Every branch carries slot 0: x is sorted and sums to 1, so
    # x[0] > 0, slot 0 lies below the target rank m, and every row sigma is
    # a permutation, so some source level goes to slot 0.
    branch, t = np.nonzero((sigmas < m) & (x[sigmas] > 0.0))
    slot = sigmas[branch, t]
    sqrt_x = np.sqrt(x)
    coeffs = (
        np.sqrt(weights[branch])
        * (sqrt_x[slot] / src_amps[t])
        * (scale * tgt_amps[slot] / sqrt_x[slot])
    )
    probabilities = weights * scale * scale

    total = sum(probabilities.tolist())
    if abs(total - prob) > PROB_TOL:
        raise ProtocolSynthesisError(
            f"synthesized total probability {total!r} != formula value {prob!r}"
        )
    return probabilities, (branch, tgt[slot], src[t], coeffs)


# ===========================================================================
# mixed states
# ===========================================================================

def pmax_mixed(rho: DensityMatrix, phi: PureStateVector) -> MixedPmaxResult:
    """Maximal distillation probability from a mixed state.

    Decomposes rho into its maximal pure subspaces, selects the best
    pairwise-disjoint family, and adds up weight-scaled pure conversion
    probabilities.  ``overlap_adjusted`` flags inputs where overlapping
    subspaces made the selection strict.  A target whose dimension differs
    from rho's is a :class:`ValidationError`.
    """
    _require_source_dim("target", phi.dim, rho.dim)
    tgt = support_profile(phi.probabilities())[1]
    if tgt.size < 2:
        raise IncoherentTargetError(
            "target has coherence rank 1; it is reachable for free"
        )
    subs = maximal_pure_subspaces(rho)
    ratios = min_profile_ratios(_padded_rows(s.profile for s in subs), tgt)
    yields = [SubspaceYield(s, r, s.weight * r) for s, r in zip(subs, ratios.tolist())]
    chosen, weight, value = optimize_disjoint_selection(
        [(y.subspace.indices, y.subspace.weight, y.achieved) for y in yields]
    )
    per = tuple(yields[i] for i in chosen)
    naive = sum(y.achieved for y in yields)
    return MixedPmaxResult(
        p_max=value,
        family=DisjointFamily(tuple(y.subspace for y in per), weight, value),
        per_subspace=per,
        all_subspaces=tuple(subs),
        overlap_adjusted=bool(naive > value + TIE_TOL),
    )


def full_plan(rho: DensityMatrix, phi: PureStateVector) -> DistillationPlan:
    """Synthesize the complete branch list attaining pmax_mixed.

    Subspaces whose conversion ratio is zero contribute no branches.  The
    input columns of every branch live inside its own subspace, so the
    combined operator family stays complete.
    """
    return _build_plan(rho, phi, pmax_mixed(rho, phi))


def _build_plan(rho: DensityMatrix, phi: PureStateVector, mixed: MixedPmaxResult) -> DistillationPlan:
    """The :func:`full_plan` of ``mixed = pmax_mixed(rho, phi)``."""
    tgt, _ = support_profile(phi.probabilities())
    tgt_amps = phi.amplitudes[tgt]
    ids: list[str] = []
    probabilities: list[float] = []
    entries = []
    for mu, y in enumerate(mixed.per_subspace):
        if y.ratio <= 0.0:
            continue
        s = y.subspace
        # indices ascend, so the rule's ties in position order are ties in level order
        order, _ = support_profile(s.profile)
        probs, (branch, rows, cols, values) = _protocol(
            np.array(s.indices)[order], s.amplitudes[order], tgt, tgt_amps
        )
        # this subspace's branches follow those of the subspaces before it
        entries.append((branch + len(ids), rows, cols, values))
        ids += [f"s{mu}.k{a}" for a in range(probs.size)]
        probabilities += (s.weight * probs).tolist()
    plan = _assemble_plan(rho.dim, mixed.p_max, mixed.family.index_sets(), ids, probabilities, entries)
    total = sum(probabilities)
    if abs(total - mixed.p_max) > PROB_TOL:
        raise ProtocolSynthesisError(
            f"plan total {total!r} != formula value {mixed.p_max!r}"
        )
    if plan.completeness_gap() > PROB_TOL:
        raise ProtocolSynthesisError("plan overshoots completeness")
    return plan


def _assemble_plan(dim, p_max, family, ids, probabilities, entries) -> DistillationPlan:
    """The plan whose branch ``a`` has id ``ids[a]``, probability
    ``probabilities[a]`` and the entries numbered ``a`` of the
    (branch, row, column, value) tables ``entries``, with one
    :meth:`StrictlyIncoherentKraus._stack` call for every operator."""
    # with no tables at all, four empty columns
    columns = [np.concatenate(c) for c in zip(*entries)] or [()] * 4
    operators = StrictlyIncoherentKraus._stack(len(ids), dim, *columns)
    return DistillationPlan(dim, p_max, tuple(map(PlanBranch, ids, operators, probabilities)), family)


def verify_branch_outputs(
    plan: DistillationPlan, rho: DensityMatrix, phi: PureStateVector
) -> BranchCheck:
    """Recompute every branch output K rho K† and compare with the target.

    Passes when each branch output, normalized, has fidelity with |phi>
    of at least 1 - PROB_TOL; a NaN fidelity (an overflowed entry) fails,
    and is reported as ``worst_fidelity``.  Branches whose weight on this
    input is at most BRANCH_WEIGHT_FLOOR are skipped.  With c_j the entry
    in column j, the weight is sum_j |c_j|^2 rho_jj and
    <phi|K rho K†|phi> = v† rho v for v = K†|phi>, which lives on the
    branch's used columns S, so only rho_SS is read.  A plan or target
    whose dimension differs from rho's is a :class:`ValidationError`.
    """
    _require_source_dim("plan", plan.dim, rho.dim)
    _require_source_dim("target", phi.dim, rho.dim)
    stack = plan.monomials
    weights = stack.weights(rho.diagonal()).tolist()
    overlaps = stack.overlaps(rho.matrix, phi.amplitudes).tolist()
    worst = 1.0
    for b, weight, overlap in zip(plan.branches, weights, overlaps):
        if weight <= BRANCH_WEIGHT_FLOOR:
            continue
        fid = overlap / weight
        # every branch before passed, so a failing fidelity is the worst; NaN fails too
        if not fid >= 1.0 - PROB_TOL:
            return BranchCheck(False, b.branch_id, fid)
        worst = min(worst, fid)
    return BranchCheck(True, None, worst)
