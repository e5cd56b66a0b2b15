"""Catalyst existence gates and explicit catalyst search.

A catalyst is a pure coherent state |c> that joins the transformation and
must come back unchanged: the question is whether P(rho (x) c -> phi (x) c)
beats P(rho -> phi).  Squared-modulus profiles multiply under tensoring, so
every test here runs on plain distributions.

Two gates are provided.  The enhancement gate for raising the optimal
probability is exact (strict-inequality test on the smallest padded
entries).  The gate for reaching probability 1 compares power means and
entropies on one fixed exponent grid (``ALPHAS_BELOW_ONE``,
``ALPHAS_ABOVE_ONE``) with local refinement, so it is not exact: a sign
change between grid points goes unseen.  One routine,
:func:`_group_records`, does the whole gate for the family members of one
padded length and returns their records: it stacks their profiles once,
samples the whole grid in one kernel pass, and refines each member's
smallest margin on either side of alpha = 1 in rounds.  In a round every
bracket still refining lists its remaining halvings as if no probe won,
one more kernel pass evaluates all those schedules, and the halvings are
replayed over the values in order; a bracket whose probe wins goes on in
the next round.  The values equal, bit for bit, evaluating one member and
one order at a time.  Refinement runs
only while a margin is positive: a member fails once a margin reaches 0
or below, so such a margin and its order are a witness of the failure,
not the minimum.  The search
enumerates catalyst profiles on a simplex grid of at most ``GRID_CEILING``
points, built afresh for each search as one zero-padded array in scan
order, and scores all candidates in one pass over that array, in chunks
of rows, over rho's subspace profiles; the
values equal a candidate-by-candidate evaluation through the plain
distillation formulas bit for bit.

Neither the gates nor the search decompose rho themselves: each reads one
:func:`~cohdist.distill.pmax_mixed` result, which holds the maximal pure
subspaces (enumerated once per state, which keeps them), the selected
disjoint family and the baseline probability, and
the target profile by pmax_mixed's rule, :func:`~cohdist.states.support_profile`;
so the identity catalyst scores the baseline exactly.  :func:`catalyst_gates`
gives both gate reports from one such result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distill import MixedPmaxResult, pmax_mixed
from .errors import IncoherentTargetError, PreconditionError, ValidationError
from .measures import _padded_rows, _power_means_kernel, min_profile_ratios
from .states import BRACKET_TOL, GRID_STEP_TOL, PROB_TOL, SUPPORT_TOL, TIE_TOL
from .states import DensityMatrix, PureStateVector, as_distribution, support_profile

GRID_CEILING = 1_000_000         # most catalyst candidates one search scans
ROW_CHUNK_ELEMENTS = 1 << 17     # most entries in one array of the candidate scoring


# ===========================================================================
# report containers
# ===========================================================================

@dataclass(frozen=True)
class EnhancementRecord:
    """Per-subspace outcome of the probability-enhancement test."""

    indices: tuple[int, ...]
    pure_pmax: float
    bound: float
    margin: float
    enhanceable: bool


@dataclass(frozen=True)
class EnhancementGateReport:
    """Existence verdict for a probability-raising catalyst."""

    verdict: bool                       # any subspace passes
    family_verdict: bool                # equals verdict: the family holds every subspace
    records: tuple[EnhancementRecord, ...]
    family_index_sets: tuple[tuple[int, ...], ...]
    baseline: float


@dataclass(frozen=True)
class DeterministicGateMemberRecord:
    """Per-family-member margins for the probability-1 catalyst test.

    A positive margin is the refined minimum over its side's orders; a
    margin at or below 0 is the first one found there, the sampled minimum
    or a refinement probe below 0, and witnesses the failure.
    """

    indices: tuple[int, ...]
    margin_below_one: float      # min over alpha < 1 of A(source) - A(target), or a witness <= 0
    alpha_below_one: float       # the order of that margin
    margin_above_one: float      # min over alpha > 1 of A(target) - A(source), or a witness <= 0
    alpha_above_one: float       # the order of that margin
    entropy_margin: float
    zero_entry_support: bool     # padded source profile carries a zero entry
    passes: bool


@dataclass(frozen=True)
class DeterministicGateReport:
    """Existence verdict for a catalyst reaching probability 1."""

    verdict: bool
    members: tuple[DeterministicGateMemberRecord, ...]
    total_weight: float
    weight_complete: bool
    baseline: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class CatalystSearchReport:
    """Outcome of the simplex-grid catalyst search."""

    baseline: float
    mode: str
    found: bool
    catalyst: tuple[float, ...] | None
    achieved: float
    candidates_evaluated: int


# ===========================================================================
# shared plumbing
# ===========================================================================

def _instance(rho: DensityMatrix, phi: PureStateVector) -> tuple[np.ndarray, MixedPmaxResult]:
    """phi's support profile and ``pmax_mixed(rho, phi)``; a rank-1 target is refused first."""
    tgt = support_profile(phi.probabilities())[1]
    if tgt.size < 2:
        raise IncoherentTargetError(
            "target has coherence rank 1; catalysis questions are vacuous"
        )
    return tgt, pmax_mixed(rho, phi)


# ===========================================================================
# enhancement gate (raising the optimal probability)
# ===========================================================================

def enhancement_gate(rho: DensityMatrix, phi: PureStateVector) -> EnhancementGateReport:
    """Decide whether some catalyst can raise P(rho -> phi).

    For each maximal pure subspace with sorted padded profiles p, q of
    common length n, a catalyst raising that branch's conversion
    probability exists iff

        pmax(p -> q)  <  min(p_n / q_n, 1),

    with the conventions bound = 1 when q_n = 0 and bound = 0 when
    p_n = 0 < q_n.  The verdict is the existential over all subspaces.
    They are disjoint, so the selected family holds every one of them, and
    ``family_verdict``, its existential, equals the verdict.
    """
    return _enhancement_report(*_instance(rho, phi))


def _enhancement_report(tgt, mixed: MixedPmaxResult) -> EnhancementGateReport:
    records = []
    # pmax_mixed's ratio of each subspace; the family holds every one of them
    ratios = {y.subspace.indices: y.ratio for y in mixed.per_subspace}
    for s in mixed.all_subspaces:
        pure = ratios[s.indices]
        # support profiles have no entry at or below SUPPORT_TOL, so a
        # smallest padded entry vanishes exactly on the shorter profile
        profile = support_profile(s.profile)[1]
        if profile.size != tgt.size:
            bound = float(profile.size > tgt.size)
        else:
            bound = min(profile[-1] / tgt[-1], 1.0)
        margin = bound - pure
        records.append(
            EnhancementRecord(s.indices, pure, float(bound), float(margin),
                              bool(margin > TIE_TOL))
        )
    verdict = any(r.enhanceable for r in records)
    return EnhancementGateReport(
        verdict=verdict,
        family_verdict=verdict,
        records=tuple(records),
        family_index_sets=mixed.family.index_sets(),
        baseline=mixed.p_max,
    )


# ===========================================================================
# probability-1 gate (power means + entropy)
# ===========================================================================

# the sampled orders: below one -inf, 0 and 20 log-spaced points on each of
# [-40, -0.01] and [0.01, 0.99]; above one 20 log-spaced points on [1.01, 40] and +inf
ALPHAS_BELOW_ONE = tuple(sorted([
    -math.inf, 0.0,
    *(-np.logspace(math.log10(0.01), math.log10(40.0), 20)).tolist(),
    *np.logspace(math.log10(0.01), math.log10(0.99), 20).tolist(),
]))
ALPHAS_ABOVE_ONE = (*np.logspace(math.log10(1.01), math.log10(40.0), 20).tolist(), math.inf)


def _group_records(group, tgt: np.ndarray, n: int) -> list[DeterministicGateMemberRecord]:
    """Gate records of the family members of padded length ``n``, in ``group`` order.

    ``group`` holds each member's (indices, support profile).  The profiles
    and the target are stacked once, zero-padded to n and unchecked: the
    library built them as support profiles.  One kernel call samples the
    whole grid.  Each member has one bracket per side of alpha = 1, its
    margin at an order A(p) - A(q) below one and A(q) - A(p) above: it
    starts at the first minimum of the sampled margins and reaches to that
    order's finite neighbours (an infinite neighbour leaves that end at the
    order).  A bracket with a finite order
    and a positive margin is refined for at most 40 halvings, until it is
    narrower than BRACKET_TOL or its margin is no longer positive: each
    step probes the midpoints between its best order and either end, takes
    a probe whose margin is strictly below the best one, first probe first,
    and halves both ends toward the best order.  A member passes only on
    positive margins, so a margin at or below 0 has decided its verdict and
    is kept as found, a witness of the failure, not the refined minimum.

    The halvings run in rounds.  In a round every bracket still refining
    lists its whole remaining schedule, the probes of each step as if none
    won, and one kernel call evaluates all the schedules, two rows per
    bracket, below-one brackets first, each row raised only to its own
    bracket's probes.  A probe equal to the bracket's order is left out:
    its margin is the best one, which the strict comparison never takes.
    The round then replays the steps in order over those values; a bracket
    whose probe wins halves toward its new order, ends that step and, if
    it is still refining, builds a new schedule in the next round.  The
    kernel computes each row at each order on its own, so every bracket
    takes the same steps, bit for bit, as refining it alone, one kernel
    call per step.
    """
    indices, profiles = zip(*group)
    m = len(profiles)
    rows = _padded_rows([*profiles, tgt], n)
    lows, highs = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
    means = np.array(_power_means_kernel(rows, lows, highs, np.array(ALPHAS_BELOW_ONE + ALPHAS_ABOVE_ONE)))
    kb = len(ALPHAS_BELOW_ONE)
    # bracket j < m is member j's below-one side and bracket m + j its
    # above-one side; its margin is A(rows[first]) - A(rows[second])
    pairs = [(j, m) for j in range(m)] + [(m, j) for j in range(m)]
    lo, order, hi, margin = [], [], [], []
    for alphas, values in ((ALPHAS_BELOW_ONE, means[:m, :kb] - means[m, :kb]),
                           (ALPHAS_ABOVE_ONE, means[m, kb:] - means[:m, kb:])):
        for k, row in zip(values.argmin(axis=1).tolist(), values.tolist()):
            a = alphas[k]
            lo.append(alphas[k - 1] if k > 0 and math.isfinite(alphas[k - 1]) else a)
            order.append(a)
            hi.append(alphas[k + 1] if k + 1 < len(alphas) and math.isfinite(alphas[k + 1]) else a)
            margin.append(row[k])
    halvings = [0] * (2 * m)
    active = [j for j in range(2 * m) if math.isfinite(order[j]) and margin[j] > 0.0]
    while active:
        # each bracket's remaining steps, as if no probe won: its probes per step
        schedules = []
        for j in active:
            a, left, right, steps = order[j], lo[j], hi[j], []
            for _ in range(40 - halvings[j]):
                left, right = (left + a) / 2.0, (a + right) / 2.0
                steps.append([probe for probe in (left, right) if probe != a])
                if right - left < BRACKET_TOL:
                    break
            schedules.append(steps)
        probes = [[probe for step in steps for probe in step] for steps in schedules]
        # pad every schedule to one width with its last probe; the replay reads no padding
        width = max(map(len, probes))
        orders = np.array([p + p[-1:] * (width - len(p)) for p in probes for _ in (0, 1)])
        sel = [i for j in active for i in pairs[j]]
        values = _power_means_kernel(rows.take(sel, axis=0), [lows[i] for i in sel],
                                     [highs[i] for i in sel], orders)
        refining = []
        for j, steps, first, second in zip(active, schedules, values[0::2], values[1::2]):
            at = 0
            for step in steps:
                won = False
                for alpha in step:
                    if first[at] - second[at] < margin[j]:
                        order[j], margin[j], won = alpha, first[at] - second[at], True
                    at += 1
                lo[j], hi[j] = (lo[j] + order[j]) / 2.0, (order[j] + hi[j]) / 2.0
                halvings[j] += 1
                if won:
                    break
            if won and hi[j] - lo[j] >= BRACKET_TOL and margin[j] > 0.0 and halvings[j] < 40:
                refining.append(j)
        active = refining
    # the entropies of the support profiles, the positive entries of the rows
    target_entropy = float(-(tgt * np.log(tgt)).sum())
    records = []
    for i in range(m):
        entropy_margin = float(-(profiles[i] * np.log(profiles[i])).sum()) - target_entropy
        passes = margin[i] > 0.0 and margin[m + i] > 0.0 and entropy_margin > 0.0
        records.append(DeterministicGateMemberRecord(
            indices[i], margin[i], order[i], margin[m + i], order[m + i],
            entropy_margin, lows[i] <= SUPPORT_TOL, passes,
        ))
    return records


def deterministic_gate(rho: DensityMatrix, phi: PureStateVector) -> DeterministicGateReport:
    """Decide whether some catalyst makes the transformation deterministic.

    Requires the baseline optimal probability to be below 1 (otherwise the
    question is vacuous and a PreconditionError is raised).  For every
    member of the selected disjoint family, with sorted padded profiles
    p (source) and q (target):

      * A_alpha(p) > A_alpha(q) strictly for every sampled alpha < 1,
      * A_alpha(p) < A_alpha(q) strictly for every sampled alpha > 1,
      * S(p) > S(q) strictly,

    where A_alpha is the power mean over the common padded dimension and
    S the Shannon entropy.  The family must also cover the whole state
    (total weight 1).  It holds every maximal pure subspace, so it falls
    short only by the populations at or below SUPPORT_TOL, which no
    subspace holds; a shortfall is reported as a flag and fails the gate,
    as does a zero entry in a padded source profile (which zeroes every
    A_alpha with alpha <= 0).
    """
    tgt, mixed = _instance(rho, phi)
    return _deterministic_report(tgt, mixed.family)


def _deterministic_report(tgt, family) -> DeterministicGateReport:
    baseline = family.total_value
    if baseline >= 1.0 - PROB_TOL:
        raise PreconditionError("optimal probability is already 1; no catalyst is needed")
    weight_complete = family.total_weight >= 1.0 - PROB_TOL
    flags = [] if weight_complete else ["family_weight_below_one"]
    # members of one padded length share every kernel call
    groups: dict[int, list] = {}
    for s in family.members:
        profile = support_profile(s.profile)[1]
        groups.setdefault(max(profile.size, tgt.size), []).append((s.indices, profile))
    records = {r.indices: r for n, group in groups.items() for r in _group_records(group, tgt, n)}
    members = [records[s.indices] for s in family.members]
    flags += [f"zero_entry_support:{m.indices}" for m in members if m.zero_entry_support]
    verdict = weight_complete and all(m.passes for m in members)
    return DeterministicGateReport(
        verdict=bool(verdict),
        members=tuple(members),
        total_weight=family.total_weight,
        weight_complete=weight_complete,
        baseline=baseline,
        flags=tuple(flags),
    )


def catalyst_gates(
    rho: DensityMatrix, phi: PureStateVector
) -> tuple[EnhancementGateReport, DeterministicGateReport | None]:
    """The :func:`enhancement_gate` and :func:`deterministic_gate` reports from one
    :func:`~cohdist.distill.pmax_mixed` call; the second is None where the
    baseline is already 1, where :func:`deterministic_gate` raises."""
    tgt, mixed = _instance(rho, phi)
    enhancement = _enhancement_report(tgt, mixed)
    try:
        return enhancement, _deterministic_report(tgt, mixed.family)
    except PreconditionError:
        return enhancement, None


# ===========================================================================
# catalyzed probability and grid search
# ===========================================================================

def _catalyzed_values(members, tgt: np.ndarray, catalysts: np.ndarray) -> np.ndarray:
    """P(rho (x) c -> phi (x) c) for every catalyst row c of ``catalysts``, in order.

    The maximal pure subspaces of rho (x) |c><c| are exactly the products
    of rho's subspaces with the catalyst block (the catalyst is pure with
    full support), so the product instance keeps rho's partition and
    weights, and only the profiles become p (x) c.  All subspaces are
    scored for all rows in one :func:`min_profile_ratios` call per chunk
    of consecutive rows, at most ``ROW_CHUNK_ELEMENTS`` product entries.
    A row may be zero-padded on the right, which changes no bit (both
    tail sums gain the same leading zeros; the kernel sorts, so stored
    profiles serve).  A depth counts, and a source tail
    pins the ratio to 0, by the support of the products, not their
    magnitude: each catalyst row is first scaled by an exact power of two,
    which changes no ratio.  ``members`` are the subspaces of the disjoint
    family, in its index-set order, and add their scores in that order, the
    order :func:`~cohdist.subspaces.optimize_disjoint_selection` adds in.
    A member whose profile has fewer entries above SUPPORT_TOL than the
    target (support_profile's rule) scores exactly 0 against every
    catalyst: past its products' support, a live target tail meets a
    vanishing source tail.  Such members are left out, which changes no
    bit of a sum.
    """
    # profiles and target padded to one length n
    profiles = _padded_rows((s.profile for s in members), tgt.size)
    weights = np.array([s.weight for s in members])
    scoring = np.count_nonzero(profiles > SUPPORT_TOL, axis=1) >= tgt.size
    if not scoring.any():
        return np.zeros(len(catalysts))
    profiles, weights = profiles[scoring], weights[scoring]
    n = profiles.shape[1]
    target = _padded_rows([tgt], n)[0]
    k = catalysts.shape[1]
    rows_per_chunk = max(1, ROW_CHUNK_ELEMENTS // (len(weights) * n * k))
    out = []
    for start in range(0, len(catalysts), rows_per_chunk):
        cat = catalysts[start:start + rows_per_chunk]
        # scale each row by the power of two that puts its smallest positive entry in [1, 2),
        # capped well below overflow: ratios keep their bits, and every product of supported
        # entries clears SUPPORT_TOL, so the kernel's cuts read the products' supports;
        # the extremes are read column by column, from a column-major copy
        columns = cat.T.copy()
        low = np.where(columns > 0.0, columns, np.inf).min(axis=0)
        shift = np.minimum(1 - np.frexp(low)[1], 1000 - np.frexp(columns.max(axis=0))[1])
        # entry i * k + j of a product row is p_i c_j: each profile entry repeated k
        # times against the catalyst row tiled n times
        tiled = np.tile(np.ldexp(cat, shift[:, None]), n)
        products = np.repeat(profiles, k, axis=1)[:, None, :] * tiled
        ratios = min_profile_ratios(products, np.repeat(target, k) * tiled)
        total = np.zeros(len(cat))
        for score in weights[:, None] * ratios:
            total += score
        out.append(total)
    return np.concatenate(out)


def catalyzed_pmax(rho: DensityMatrix, phi: PureStateVector, catalyst) -> float:
    """Optimal distillation probability with a lent catalyst profile.

    ``catalyst`` is the catalyst's squared-modulus distribution; the
    identity catalyst (1,) returns ``pmax_mixed(rho, phi).p_max`` exactly.
    """
    tgt, mixed = _instance(rho, phi)
    cat = as_distribution(catalyst)
    return float(_catalyzed_values(mixed.family.members, tgt, cat[None, :])[0])


def _partitions(n: int, k: int) -> np.ndarray:
    """Descending positive integer partitions of n into k parts, one per row.

    Built one column at a time from the first part: a part placed with
    ``left`` parts still to come (itself included) is at most the part
    before it, at least the mean of what is left to place, and leaves at
    least 1 for each later part; the last part takes what is left.  Each
    row's successors come in ascending order, so the rows come out in
    ascending lexicographic order.
    """
    columns = [np.arange(-(-n // k), n - k + 2)]
    total = columns[0]
    for left in range(k - 1, 1, -1):
        rest = n - total
        lo, hi = -(-rest // left), np.minimum(columns[-1], rest - left + 1)
        counts = hi - lo + 1
        rows = np.repeat(np.arange(len(total)), counts)
        # the successors of row r run lo[r], lo[r] + 1, ..., hi[r]
        part = np.arange(rows.size) - (np.cumsum(counts) - counts - lo)[rows]
        columns = [column[rows] for column in columns] + [part]
        total = total[rows] + part
    columns.append(n - total)
    return np.column_stack(columns)


def _grid_size(n: int, max_parts: int) -> int:
    """Partitions of n into 2..max_parts parts, counted until past GRID_CEILING.

    Row k of the table holds p(m, k) for m = 0..n, the partitions of m into
    exactly k parts, from p(m, k) = p(m - 1, k - 1) + p(m - k, k): a
    cumulative sum over each residue class mod k.  p(m, k) grows with m,
    so no entry exceeds n * GRID_CEILING.
    """
    row = np.ones(n + 1, dtype=np.int64)
    row[0] = 0
    total = 0
    for k in range(2, max_parts + 1):
        shifted = np.zeros_like(row)
        shifted[1:] = row[:-1]
        row = np.empty_like(shifted)
        for r in range(k):
            row[r::k] = np.cumsum(shifted[r::k])
        total += int(row[n])
        if total > GRID_CEILING:
            break
    return total


def _catalyst_grid(max_dim: int, grid_step: float) -> np.ndarray:
    """Grid profiles as one N x K array in scan order, K = min(max_dim, 1 / grid_step).

    The rows run dimension by dimension, k = 2..K, ascending
    lexicographically within a dimension, each zero-padded on the right.
    ``max_dim`` must be an integer and ``grid_step`` a real number in
    (0, 0.5], which leaves out NaN and the infinities.  Dimensions above
    1 / grid_step have no positive grid profile and are skipped; a grid
    of more than ``GRID_CEILING`` profiles is refused before anything is
    enumerated.
    """
    if not isinstance(max_dim, numbers.Integral):
        raise ValidationError(f"max_dim must be an integer, got {max_dim!r}")
    if not isinstance(grid_step, numbers.Real):
        raise ValidationError(f"grid_step must be a real number, got {grid_step!r}")
    if max_dim < 2:
        raise ValidationError("max_dim must be at least 2")
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError("grid_step must lie in (0, 0.5]")
    if grid_step * (2 * GRID_CEILING + 2) < 1.0:
        raise ValidationError(
            f"grid_step {float(grid_step)!r} gives more than {GRID_CEILING} candidates"
        )
    n = int(round(1.0 / grid_step))
    if abs(n * grid_step - 1.0) > GRID_STEP_TOL:
        raise ValidationError("grid_step must divide 1")
    max_parts = min(max_dim, n)
    size = _grid_size(n, max_parts)
    if size > GRID_CEILING:
        raise ValidationError(
            f"max_dim {max_dim} at grid_step {float(grid_step)!r} gives more than"
            f" {GRID_CEILING} candidates"
        )
    grid = np.zeros((size, max_parts))
    at = 0
    for k in range(2, max_parts + 1):
        parts = _partitions(n, k)
        grid[at:at + len(parts), :k] = parts / n
        at += len(parts)
    return grid


def search_catalyst(
    rho: DensityMatrix,
    phi: PureStateVector,
    max_dim: int = 2,
    grid_step: float = 0.05,
    mode: str = "probabilistic",
) -> CatalystSearchReport:
    """Grid search for an explicit catalyst profile.

    The candidates are the sorted-descending positive profiles with
    k = 2..max_dim entries on the simplex grid of step ``grid_step``,
    scanned dimension-major, then in ascending lexicographic order; a grid
    of more than ``GRID_CEILING`` profiles raises ValidationError.  In
    "probabilistic" mode the best candidate is returned and counts as found
    when it beats the baseline by more than PROB_TOL; values within TIE_TOL
    tie, and ties prefer the lexicographically smallest profile.  In
    "deterministic" mode the first candidate in scan order reaching
    probability 1 within PROB_TOL is returned; starting from baseline 1 is
    a precondition violation.  The baseline is ``pmax_mixed(rho, phi).p_max``.
    The grid is one zero-padded array in scan order, all of it scored in
    one pass, in chunks of rows; the answer is picked by index, so only the rows that
    can win become tuples, each the positive part of its row.
    """
    if mode not in ("probabilistic", "deterministic"):
        raise ValidationError(f"unknown mode {mode!r}")
    tgt, mixed = _instance(rho, phi)
    baseline = mixed.p_max
    if mode == "deterministic" and baseline >= 1.0 - PROB_TOL:
        raise PreconditionError("baseline probability is already 1")

    grid = _catalyst_grid(max_dim, grid_step)
    achieved = _catalyzed_values(mixed.family.members, tgt, grid)

    def candidate(i: int) -> tuple[float, ...]:
        row = grid[i]
        return tuple(row[row > 0.0].tolist())

    if mode == "deterministic":
        hits = np.flatnonzero(achieved >= 1.0 - PROB_TOL).tolist()
        found = bool(hits)
        best_c, best_v = (candidate(hits[0]), float(achieved[hits[0]])) if found else (None, baseline)
    else:
        # a record beats the last one by more than TIE_TOL, so it is a
        # strict running maximum; the first value is always one
        best_v, last = -1.0, 0
        earlier = np.fmax.accumulate(np.r_[-np.inf, achieved[:-1]])
        for i in np.flatnonzero(achieved > earlier).tolist():
            if achieved[i] > best_v + TIE_TOL:
                best_v, last = float(achieved[i]), i
        # a later near-tie of the last record wins when lexicographically
        # smaller; each dimension ascends, so only its first one can.
        # Dimension j + 1 starts at the first row whose column j is positive
        ties = achieved > best_v - TIE_TOL
        ties[:last + 1] = False
        starts = [0, *(grid[:, 2:] > 0.0).argmax(axis=0).tolist(), len(grid)]
        picks = [last]
        for start, end in zip(starts, starts[1:]):
            later = np.flatnonzero(ties[start:end])
            if later.size:
                picks.append(start + int(later[0]))
        best_c = min(map(candidate, picks))
        found = best_v > baseline + PROB_TOL
    return CatalystSearchReport(
        baseline=baseline,
        mode=mode,
        found=bool(found),
        catalyst=best_c if found else None,
        achieved=best_v if found else baseline,
        candidates_evaluated=len(achieved),
    )
