"""Exact distillation probabilities and explicit Kraus protocol synthesis.

A strictly incoherent Kraus operator has at most one nonzero entry per row
and per column, so it factors as  K = P_pi * K_delta * P  (permutation x
diagonal x incoherent projector); only these factors are stored, and the
dense matrix is built on demand.  A success branch for target |phi> is a
strictly incoherent K with K|psi> proportional to |phi>.

Protocol synthesis for a pure source runs in three steps:

1. the optimal probability P is the smallest tail-sum ratio of the sorted
   squared-modulus profiles (source over target);
2. an intermediate profile x is built with  x >= P * q  entrywise and the
   source profile p majorized by x, via a running-maximum recursion: the
   cumulative floor is max(previous + P*q_l, prefix_p_l).  The slack both
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
"""

from __future__ import annotations

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
from .measures import coherence_rank, min_profile_ratio
from .states import DensityMatrix, PureStateVector, require_finite
from .subspaces import (
    DisjointFamily,
    PureSubspace,
    maximal_pure_subspaces,
    optimize_disjoint_selection,
)

ENTRY_TOL = 1e-12        # magnitude below which a matrix entry counts as zero
PROB_TOL = 1e-9          # probability bookkeeping tolerance
_SPLIT_TOL = 1e-13       # prefix slack that counts as tight in the permutation split


# ===========================================================================
# strictly incoherent Kraus operators
# ===========================================================================

@dataclass(frozen=True)
class StrictlyIncoherentKraus:
    """Square matrix with at most one nonzero entry per row and per column.

    Stored in monomial form only: ``permutation[j]`` is the row fed by
    column ``j`` (extended to a full permutation), ``diagonal[j]`` the
    complex coefficient applied there (0 on unused columns), and
    ``projector[j]`` marks the columns actually used.  ``matrix`` is a dense
    view built from these factors on demand.
    """

    permutation: tuple[int, ...]
    diagonal: np.ndarray
    projector: np.ndarray

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
        """Drop entries of modulus <= ENTRY_TOL; the rest need distinct rows and columns."""
        values = np.asarray(values, dtype=complex)
        require_finite(values, "Kraus matrix")
        keep = np.abs(values) > ENTRY_TOL
        rows = np.asarray(rows, dtype=np.intp)[keep]
        cols = np.asarray(cols, dtype=np.intp)[keep]
        row_counts = np.bincount(rows, minlength=dim)
        col_counts = np.bincount(cols, minlength=dim)
        for name, counts in (("row", row_counts), ("column", col_counts)):
            if counts.max(initial=0) > 1:
                k = int(np.argmax(counts > 1))
                raise NotStrictlyIncoherentError(f"{name} {k} has {counts[k]} nonzero entries")
        perm = np.empty(dim, dtype=np.intp)
        perm[cols] = rows
        perm[col_counts == 0] = np.flatnonzero(row_counts == 0)
        diag = np.zeros(dim, dtype=complex)
        diag[cols] = values[keep]
        proj = (diag != 0.0).astype(float)
        for arr in (diag, proj):
            arr.flags.writeable = False
        return cls(tuple(perm.tolist()), diag, proj)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Dense d x d form, a fresh array scattered from the factors."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[list(self.permutation), np.arange(self.dim)] = self.diagonal
        return mat

    matrix = property(reconstruct)

    def effect_diagonal(self) -> np.ndarray:
        """Real diagonal of K†K, a diagonal matrix here (inf where a square overflows)."""
        with np.errstate(over="ignore"):
            return np.abs(self.diagonal) ** 2

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        return (self.diagonal * amplitudes)[np.argsort(self.permutation)]


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
class DistillationPlan:
    """Flat list of success branches; failure is the implicit complement."""

    dim: int
    p_max: float
    branches: tuple[PlanBranch, ...]
    family_index_sets: tuple[tuple[int, ...], ...]

    def completeness_gap(self) -> float:
        """Largest entry of the diagonal matrix sum(K†K) minus 1 (<= 0 for a valid plan)."""
        total = np.zeros(self.dim)
        for b in self.branches:
            total += b.kraus.effect_diagonal()
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

    Equals the smallest tail-sum ratio of the sorted squared-modulus
    profiles; 1 when the dephased source is majorized by the dephased
    target, 0 when the source coherence rank is too small.
    """
    return min_profile_ratio(psi.probabilities(), phi.probabilities())


def conversion_kraus(psi: PureStateVector, phi: PureStateVector) -> StrictlyIncoherentKraus:
    """Single success operator at the largest admissible scale.

    Aligns both states by descending amplitude, divides target by source
    amplitude entrywise and rescales so the largest coefficient has unit
    modulus.  Its success probability is the smallest aligned ratio
    min_t |psi_t / phi_t|^2, which multi-branch protocols can beat.
    """
    src = psi.sorted_support()
    tgt = phi.sorted_support()
    if len(src) < len(tgt):
        raise RankDeficitError(
            f"source coherence rank {len(src)} below target rank {len(tgt)}"
        )
    amps_s = psi.amplitudes
    amps_t = phi.amplitudes
    coeffs = np.array([amps_t[i] / amps_s[j] for i, j in zip(tgt, src)])
    scale = 1.0 / np.abs(coeffs).max()
    return StrictlyIncoherentKraus.from_entries(
        psi.dim,
        [(i, j, scale * c) for (i, j), c in zip(zip(tgt, src), coeffs)],
    )


def _intermediate_profile(p: np.ndarray, q: np.ndarray, prob: float) -> np.ndarray:
    """Sorted profile x with x >= prob*q entrywise and p majorized by x."""
    n = p.size
    prefix = np.cumsum(p)
    x = np.empty(n)
    run = 0.0
    for l in range(n):
        new = max(run + prob * q[l], prefix[l])
        x[l] = new - run
        run = new
    x = np.sort(x)[::-1]
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        raise ProtocolSynthesisError(f"intermediate profile sums to {total!r}")
    return x / total


def _permutation_split(x: np.ndarray, p: np.ndarray) -> list[tuple[float, tuple[int, ...]]]:
    """(w, sigma) pairs with p[t] = sum_a w_a * x[sigma_a[t]], at most n of them.

    Needs x sorted descending and p majorized by x.  The prefixes of the
    running point y's descending order whose sums match x's (tight sets)
    cut the coordinates into blocks; block ``b`` owns x's positions from
    ``b`` on.  Each step takes the vertex v that gives every block its slice
    of x in y's order, moves y to y + t(y - v) with the largest t that keeps
    every block in its permutohedron, and emits v with weight t/(1+t) of
    what is left.  That makes a new set tight, so after at most n - 1 steps
    every block is a singleton and y is the last vertex.
    """
    n = x.size
    pos = np.arange(n)
    x_prefix = np.cumsum(x)
    block = np.zeros(n, dtype=np.intp)     # per coordinate: first x position of its block
    cut = pos == 0                         # per position: a block starts here
    y = p.astype(float)
    rest, t = 1.0, 0.0
    parts: list[tuple[float, tuple[int, ...]]] = []

    def bounds():
        """Per position: first and last position of its block."""
        starts = np.flatnonzero(cut)
        label = np.cumsum(cut) - 1
        return starts[label], np.r_[starts[1:], n][label] - 1

    def slack(sorted_vals, start):
        """Per position: x's in-block prefix sum minus that of sorted_vals."""
        gap = x_prefix - np.cumsum(sorted_vals)
        return gap - np.where(start > 0, gap[start - 1], 0.0)

    for _ in range(2 * n + 2):
        order = np.lexsort((-y, block))
        # y + t(y - v) is rounded to about (1 + t) * eps, hence the scaled tolerance
        cut[1:] |= slack(y[order], bounds()[0])[:-1] <= _SPLIT_TOL * (1.0 + t)
        start, end = bounds()
        block[order] = start
        # give every block back the exact sum that rounding drifts
        y_sorted = y[order]
        y_sorted += slack(y_sorted, start)[end] / (end - start + 1)
        y[order] = y_sorted
        sigma = np.argsort(order)
        step = np.where(start == end, 0.0, y_sorted - x)
        if not step.any():
            parts.append((rest, tuple(sigma.tolist())))
            return parts
        # singleton bound: every coordinate stays within its block's range of x
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0, x[start] - y_sorted, y_sorted - x[end]) / np.abs(step)
        t = float(room[step != 0.0].min())
        direction = step[sigma]
        # Newton from the right on the concave smallest in-block top-k slack
        for _ in range(n + 2):
            z = y + t * direction
            z_order = np.lexsort((-z, block))
            gaps = np.where(end != pos, slack(z[z_order], start), np.inf)
            k = int(np.argmin(gaps))
            if gaps[k] >= -_SPLIT_TOL * (1.0 + t):
                break
            moved = np.cumsum(direction[z_order])
            t_next = t + gaps[k] / (moved[k] - (moved[start[k] - 1] if start[k] else 0.0))
            if not 0.0 <= t_next < t:
                break
            t = t_next
        parts.append((rest * t / (1.0 + t), tuple(sigma.tolist())))
        rest /= 1.0 + t
        y = y + t * direction
    raise ProtocolSynthesisError("permutation split did not converge")


def optimal_protocol(
    psi: PureStateVector, phi: PureStateVector
) -> list[tuple[StrictlyIncoherentKraus, float]]:
    """Branch list achieving the exact optimum for a pure source.

    Returns (operator, branch probability) pairs; probabilities add up to
    ``pmax_pure(psi, phi)`` within numerical tolerance.  Every operator
    maps |psi> onto a multiple of |phi>.
    """
    src = psi.sorted_support()
    tgt = phi.sorted_support()
    n, m = len(src), len(tgt)
    if n < m:
        raise RankDeficitError(
            f"source coherence rank {n} below target rank {m}"
        )
    p = psi.probabilities()[list(src)]
    q = np.zeros(n)
    q[:m] = phi.probabilities()[list(tgt)]
    prob = min_profile_ratio(p, q)
    if prob <= 0.0:
        raise RankDeficitError("conversion probability is zero")

    x = _intermediate_profile(p, q, prob)
    if np.min(x[:m] - prob * q[:m]) < -1e-9:
        raise ProtocolSynthesisError("intermediate profile violates its floor")

    # success operator on the intermediate state: slot u -> target index
    scale = float(np.sqrt(np.min(x[:m] / q[:m])))
    amps_t = phi.amplitudes

    # deterministic pre-processing: p = sum_a w_a * x[sigma_a(t)]
    if np.abs(x - p).max() <= 1e-13:
        mixture = [(1.0, tuple(range(n)))]
    else:
        mixture = _permutation_split(x, p)

    # branch a sends source level src[t] through slot sigma_a[t] to target
    # level tgt[sigma_a[t]]; slots past the target rank or with x = 0 carry nothing
    weights = np.array([w for w, _ in mixture])
    sigmas = np.array([sigma for _, sigma in mixture], dtype=np.intp)
    branch, t = np.nonzero((sigmas < m) & (x[sigmas] > 0.0))
    slot = sigmas[branch, t]
    src_idx, tgt_idx = np.array(src), np.array(tgt)
    sqrt_x = np.sqrt(x)
    coeffs = (
        np.sqrt(weights[branch])
        * (sqrt_x[slot] / psi.amplitudes[src_idx[t]])
        * (scale * amps_t[tgt_idx[slot]] / sqrt_x[slot])
    )
    # np.nonzero lists the entries branch by branch, so cut them at the branch ends
    counts = np.bincount(branch, minlength=len(mixture))
    branches: list[tuple[StrictlyIncoherentKraus, float]] = []
    for w, count, end in zip(weights.tolist(), counts.tolist(), np.cumsum(counts).tolist()):
        if not count:
            continue
        part = slice(end - count, end)
        kraus = StrictlyIncoherentKraus._from_triples(
            psi.dim, tgt_idx[slot[part]], src_idx[t[part]], coeffs[part]
        )
        branches.append((kraus, w * scale * scale))

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
    subspaces made the selection strict.
    """
    if coherence_rank(phi) < 2:
        raise IncoherentTargetError(
            "target has coherence rank 1; it is reachable for free"
        )
    subs = maximal_pure_subspaces(rho)
    target_w = phi.probabilities()
    ratios = [min_profile_ratio(s.state.probabilities(), target_w) for s in subs]
    yields = [SubspaceYield(s, r, s.weight * r) for s, r in zip(subs, ratios)]
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
    _check_dimensions(rho, phi)
    return _build_plan(rho, phi, pmax_mixed(rho, phi))


def _check_dimensions(rho: DensityMatrix, phi: PureStateVector) -> None:
    if phi.dim != rho.dim:
        raise ValidationError(f"target dimension {phi.dim} != source dimension {rho.dim}")


def _build_plan(rho: DensityMatrix, phi: PureStateVector, mixed: MixedPmaxResult) -> DistillationPlan:
    """The :func:`full_plan` of ``mixed = pmax_mixed(rho, phi)``, dimensions already checked."""
    branches: list[PlanBranch] = []
    for mu, y in enumerate(mixed.per_subspace):
        if y.ratio <= 0.0:
            continue
        proto = optimal_protocol(y.subspace.state, phi)
        for a, (kraus, branch_prob) in enumerate(proto):
            branches.append(
                PlanBranch(f"s{mu}.k{a}", kraus, y.subspace.weight * branch_prob)
            )
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
    sum_j |c_j|^2 rho_jj and <phi|K rho K†|phi> = v† rho v for v = K†|phi>.
    """
    worst = 1.0
    populations = rho.diagonal()
    for b in plan.branches:
        weight = float(b.kraus.effect_diagonal() @ populations)
        if weight <= 1e-15:
            continue
        v = b.kraus.diagonal.conj() * phi.amplitudes[list(b.kraus.permutation)]
        fid = float(np.real(np.vdot(v, rho.matrix @ v)) / weight)
        if fid < worst:
            worst = fid
        if fid < 1.0 - 1e-9:
            return BranchCheck(False, b.branch_id, worst)
    return BranchCheck(True, None, worst)
