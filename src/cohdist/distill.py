"""Exact distillation probabilities and explicit Kraus protocol synthesis.

A strictly incoherent Kraus operator has at most one nonzero entry per row
and per column, so it factors as  K = P_pi * K_delta * P  (permutation x
diagonal x incoherent projector); only its nonzero entries are stored, and
the diagonal and the dense matrix are built on demand.  A success branch for
target |phi> is a strictly incoherent K with K|psi> proportional to |phi>.

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

A mixed-state plan synthesizes each subspace from its own levels and
amplitudes.  Every stage runs in array passes: the split returns its
weights and permutations as stacked arrays, sorting the running point
once per step, and one pass turns them into all branches' entries.  A plan carries one
stacked monomial view of its branches (:class:`MonomialStack`), built once;
the completeness gap, the branch probabilities, sampling and the replay
check all read it.  Replay is restricted to each branch's support: with
v = K†|phi> nonzero only on the used columns S, it evaluates v_S† rho_SS v_S.
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
from .states import DensityMatrix, PureStateVector, require_finite, support_profile
from .subspaces import (
    DisjointFamily,
    PureSubspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
)

ENTRY_TOL = 1e-12        # magnitude below which a matrix entry counts as zero
PROB_TOL = 1e-9          # probability bookkeeping tolerance
_SPLIT_TOL = 1e-13       # prefix slack that counts as tight in the permutation split
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
    ``dim`` x ``dim`` matrix; the three arrays are read-only.  ``diagonal``
    (the coefficient of every column, 0 on unused ones) and ``matrix`` are
    built from them on demand.
    """

    dim: int
    columns: np.ndarray
    rows: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def from_matrix(cls, raw) -> "StrictlyIncoherentKraus":
        mat = np.array(raw, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NonSquareError(f"Kraus matrix must be square, got {mat.shape}")
        rows, cols = np.nonzero(mat)
        return cls._from_triples(mat.shape[0], rows, cols, mat[rows, cols])

    @classmethod
    def from_entries(cls, dim: int, entries) -> "StrictlyIncoherentKraus":
        """Build from a sequence of (row, column, value) triples."""
        rows, cols, values = zip(*entries) if entries else ((), (), ())
        return cls._from_triples(dim, rows, cols, values)

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

    def reconstruct(self) -> np.ndarray:
        """Dense d x d form, a fresh array scattered from the entries."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.rows, self.columns] = self.coefficients
        return mat

    matrix = property(reconstruct)

    @property
    def diagonal(self) -> np.ndarray:
        """The coefficient of every column, 0 on unused ones: a read-only array built on demand."""
        diag = np.zeros(self.dim, dtype=complex)
        diag[self.columns] = self.coefficients
        diag.flags.writeable = False
        return diag

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[self.rows] = self.coefficients * amplitudes[self.columns]
        return out


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
    """All branches of a plan as arrays, one row per branch.

    ``effects[a, j]`` is |c_j|^2 for the coefficient c_j of branch a in
    column j (0 on unused columns, inf where a square overflows): the
    diagonal of K†K.  Row a of ``columns``, ``rows`` and ``coefficients``
    lists the used columns of branch a in ascending order, the row each one
    feeds and its coefficient, padded with column 0, row 0 and coefficient
    0 up to the largest number of used columns.
    """

    effects: np.ndarray
    columns: np.ndarray
    rows: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def of(cls, dim: int, operators) -> "MonomialStack":
        sizes = np.array([k.columns.size for k in operators], dtype=np.intp)
        filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
        columns, rows, coefficients = (np.zeros(filled.shape, t) for t in (np.intp, np.intp, complex))
        # a boolean mask fills its places row by row, so each branch's entries keep their order
        for out, parts in zip((columns, rows, coefficients),
                              zip(*((k.columns, k.rows, k.coefficients) for k in operators))):
            out[filled] = np.concatenate(parts)
        effects = np.zeros((sizes.size, dim))
        with np.errstate(over="ignore"):
            effects[np.nonzero(filled)[0], columns[filled]] = np.abs(coefficients[filled]) ** 2
        return cls(effects, columns, rows, coefficients)

    def weights(self, populations: np.ndarray) -> np.ndarray:
        """tr(K†K rho) per branch, from the populations.

        A stack of row-by-vector products, not one matrix-vector product, so
        each weight is the dot product of that branch's own effects, bit for bit.
        """
        return np.matmul(self.effects[:, None, :], populations[:, None])[:, 0, 0]

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

    @functools.cached_property
    def monomials(self) -> MonomialStack:
        """The branches' entries stacked once per plan; every plan check reads them."""
        return MonomialStack.of(self.dim, [b.kraus for b in self.branches])

    def completeness_gap(self) -> float:
        """Largest entry of the diagonal matrix sum(K†K) minus 1 (<= 0 for a valid plan)."""
        effects = self.monomials.effects
        # np.nonzero lists the entries branch by branch, so each column's sum
        # runs in branch order, as one branch at a time would
        used = np.nonzero(effects)
        total = np.bincount(used[1], weights=effects[used], minlength=self.dim)
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
    coherence rank is too small.
    """
    return min_profile_ratio(support_profile(psi.probabilities())[1],
                             support_profile(phi.probabilities())[1])


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


def _intermediate_profile(p: np.ndarray, q: np.ndarray, prob: float) -> np.ndarray:
    """Sorted profile x with x >= prob*q entrywise (exactly) and p majorized by x."""
    prefix = np.cumsum(p)
    x = np.empty(p.size)
    run = 0.0
    for l in range(p.size):
        x[l] = max(prob * q[l], prefix[l] - run)
        run += x[l]
    x = np.sort(x)[::-1]
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        raise ProtocolSynthesisError(f"intermediate profile sums to {total!r}")
    return x / total


def _permutation_split(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and rows sigma with p[t] = sum_a w[a] * x[sigma[a, t]], at most n rows.

    Needs x sorted descending and p majorized by x.  The prefixes of the
    running point y's descending order whose sums match x's (tight sets)
    cut the coordinates into blocks; block ``b`` owns x's positions from
    ``b`` on.  Each step takes the vertex v that gives every block its slice
    of x in y's order, moves y to y + t(y - v) with the largest t that keeps
    every block in its permutohedron, and emits v with weight t/(1+t) of
    what is left.  That makes a new set tight, so after at most n - 1 steps
    every block is a singleton and y is the last vertex.  The probe that
    settles t is the next y, so its in-block sort serves the next step too.
    """
    n = x.size
    pos = np.arange(n)
    x_prefix = np.cumsum(x)
    block = np.zeros(n, dtype=np.intp)     # per coordinate: first x position of its block
    cut = np.zeros(n + 1, dtype=bool)      # per position: a block starts here
    cut[0] = cut[n] = True
    gap = np.zeros(n + 1)                  # 0, then x's prefix sums minus the sorted values'
    rest, t = 1.0, 0.0
    weights: list[float] = []
    sigmas: list[np.ndarray] = []

    def bounds():
        """Per position: first and last position of its block."""
        start = np.maximum.accumulate(pos * cut[:n])
        end = np.minimum.accumulate(np.where(cut[1:], pos, n)[::-1])[::-1]
        return start, end

    def slack(sorted_vals, start):
        """Per position: x's in-block prefix sum minus that of sorted_vals."""
        np.subtract(x_prefix, sorted_vals.cumsum(), out=gap[1:])
        return gap[1:] - gap[start]

    def in_block_sort(vals, start):
        """Coordinates by block, descending vals within one; the slack along them."""
        order = np.lexsort((-vals, block))
        return order, slack(vals[order], start)

    y = p.astype(float)
    order, y_slack = in_block_sort(y, block)    # one block so far: every start is 0
    for _ in range(2 * n + 2):
        # y + t(y - v) is rounded to about (1 + t) * eps, hence the scaled tolerance
        cut[1:n] |= y_slack[:-1] <= _SPLIT_TOL * (1.0 + t)
        start, end = bounds()
        block[order] = start
        # give every block back the exact sum that rounding drifts
        y_sorted = y[order]
        y_sorted += slack(y_sorted, start)[end] / (end - start + 1)
        y[order] = y_sorted
        sigma = np.empty(n, dtype=np.intp)
        sigma[order] = pos
        sigmas.append(sigma)
        step = np.where(start == end, 0.0, y_sorted - x)
        if not step.any():
            weights.append(rest)
            return np.array(weights), np.array(sigmas)
        # singleton bound: every coordinate stays within its block's range of x
        moving = step != 0.0
        room = np.where(step > 0, x[start] - y_sorted, y_sorted - x[end])[moving]
        t = float((room / np.abs(step[moving])).min())
        direction = step[sigma]
        inner = end != pos
        # Newton from the right on the concave smallest in-block top-k slack
        for _ in range(n + 2):
            z = y + t * direction
            order, y_slack = in_block_sort(z, start)
            gaps = np.where(inner, y_slack, np.inf)
            k = int(gaps.argmin())
            if gaps[k] >= -_SPLIT_TOL * (1.0 + t):
                break
            moved = direction[order].cumsum()
            t_next = t + gaps[k] / (moved[k] - (moved[start[k] - 1] if start[k] else 0.0))
            if not 0.0 <= t_next < t:
                break
            t = t_next
        else:   # the last Newton step moved t past the last probe
            z = y + t * direction
            order, y_slack = in_block_sort(z, start)
        weights.append(rest * t / (1.0 + t))
        rest /= 1.0 + t
        y = z
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
    return _protocol(psi.dim, src, psi.amplitudes[src], tgt, phi.amplitudes[tgt])


def _protocol(dim: int, src, src_amps, tgt, tgt_amps) -> list[tuple[StrictlyIncoherentKraus, float]]:
    """:func:`optimal_protocol` from the support levels of source and target,
    in :func:`~cohdist.states.support_profile` order, and the amplitudes on them."""
    n, m = src.size, tgt.size
    if n < m:
        raise RankDeficitError(
            f"source coherence rank {n} below target rank {m}"
        )
    p = np.abs(src_amps) ** 2
    q = np.zeros(n)
    q[:m] = np.abs(tgt_amps) ** 2
    prob = min_profile_ratio(p, q)
    if prob <= 0.0:
        raise RankDeficitError("conversion probability is zero")

    x = _intermediate_profile(p, q, prob)
    if np.min(x[:m] - prob * q[:m]) < -1e-9:
        raise ProtocolSynthesisError("intermediate profile violates its floor")

    # success operator on the intermediate state: slot u -> target index
    scale = float(np.sqrt(np.min(x[:m] / q[:m])))

    # deterministic pre-processing: p = sum_a w[a] * x[sigma[a, t]]
    if np.abs(x - p).max() <= 1e-13:
        weights, sigmas = np.ones(1), np.arange(n)[None, :]
    else:
        weights, sigmas = _permutation_split(x, p)

    # branch a sends source level src[t] through slot sigma[a, t] to target
    # level tgt[sigma[a, t]]; slots past the target rank or with x = 0 carry
    # nothing, and a branch without a carrying slot is left out
    feeds = (sigmas < m) & (x[sigmas] > 0.0)
    live = feeds.any(axis=1)
    weights, sigmas = weights[live], sigmas[live]
    branch, t = np.nonzero(feeds[live])
    slot = sigmas[branch, t]
    sqrt_x = np.sqrt(x)
    coeffs = (
        np.sqrt(weights[branch])
        * (sqrt_x[slot] / src_amps[t])
        * (scale * tgt_amps[slot] / sqrt_x[slot])
    )
    operators = StrictlyIncoherentKraus._stack(
        weights.size, dim, branch, tgt[slot], src[t], coeffs
    )
    branches = list(zip(operators, (weights * scale * scale).tolist()))

    total = sum(b for _, b in branches)
    if abs(total - prob) > PROB_TOL:
        raise ProtocolSynthesisError(
            f"synthesized total probability {total!r} != formula value {prob!r}"
        )
    return branches


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
        overlap_adjusted=bool(naive > value + 1e-12),
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
    branches: list[PlanBranch] = []
    for mu, y in enumerate(mixed.per_subspace):
        if y.ratio <= 0.0:
            continue
        s = y.subspace
        # indices ascend, so the rule's ties in position order are ties in level order
        order, _ = support_profile(s.profile)
        proto = _protocol(rho.dim, np.array(s.indices)[order], s.amplitudes[order], tgt, tgt_amps)
        for a, (kraus, branch_prob) in enumerate(proto):
            branches.append(PlanBranch(f"s{mu}.k{a}", kraus, s.weight * branch_prob))
    plan = DistillationPlan(
        dim=rho.dim,
        p_max=mixed.p_max,
        branches=tuple(branches),
        family_index_sets=mixed.family.index_sets(),
    )
    total = sum(b.probability for b in branches)
    if abs(total - mixed.p_max) > PROB_TOL:
        raise ProtocolSynthesisError(
            f"plan total {total!r} != formula value {mixed.p_max!r}"
        )
    if plan.completeness_gap() > PROB_TOL:
        raise ProtocolSynthesisError("plan overshoots completeness")
    return plan


def verify_branch_outputs(
    plan: DistillationPlan, rho: DensityMatrix, phi: PureStateVector
) -> BranchCheck:
    """Recompute every branch output K rho K† and compare with the target.

    Passes when each branch output, normalized, has fidelity with |phi>
    of at least 1 - 1e-9.  Branches with vanishing probability on this
    input are skipped.  With c_j the entry in column j, the weight is
    sum_j |c_j|^2 rho_jj and <phi|K rho K†|phi> = v† rho v for v = K†|phi>,
    which lives on the branch's used columns S, so only rho_SS is read.  A
    plan or target whose dimension differs from rho's is a
    :class:`ValidationError`.
    """
    _require_source_dim("plan", plan.dim, rho.dim)
    _require_source_dim("target", phi.dim, rho.dim)
    stack = plan.monomials
    weights = stack.weights(rho.diagonal()).tolist()
    overlaps = stack.overlaps(rho.matrix, phi.amplitudes).tolist()
    worst = 1.0
    for b, weight, overlap in zip(plan.branches, weights, overlaps):
        if weight <= 1e-15:
            continue
        fid = overlap / weight
        if fid < worst:
            worst = fid
        if fid < 1.0 - 1e-9:
            return BranchCheck(False, b.branch_id, worst)
    return BranchCheck(True, None, worst)
