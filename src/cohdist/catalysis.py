"""Catalyst existence gates and explicit catalyst search.

A catalyst is a pure coherent state |c> that joins the transformation and
must come back unchanged: the question is whether P(rho (x) c -> phi (x) c)
beats P(rho -> phi).  Squared-modulus profiles multiply under tensoring, so
every test here runs on plain distributions.

Two gates are provided.  The enhancement gate for raising the optimal
probability is exact (strict-inequality test on the smallest padded
entries).  The gate for reaching probability 1 compares power means and
entropies on a sampled exponent grid with local refinement, so it is not
exact: a sign change between grid points goes unseen.  Family members
of one padded length are stacked and checked once; their power means
come from one kernel pass over the whole grid and then one pass per
refinement step for all their brackets, each row raised only to its own
bracket's probes, with the same values, bit for bit, as evaluating one
member and one order at a time.  The search
enumerates catalyst profiles on a simplex grid of at most ``GRID_CEILING``
points and scores all candidates of one catalyst dimension in one array
pass over rho's subspace profiles; the values equal a candidate-by-candidate
evaluation through the plain distillation formulas bit for bit.

Neither the gates nor the search decompose rho themselves: each reads one
:func:`~cohdist.distill.pmax_mixed` result, which holds the maximal pure
subspaces, the selected disjoint family and the baseline probability.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distill import MixedPmaxResult, pmax_mixed
from .errors import IncoherentTargetError, PreconditionError, ValidationError
from .measures import (
    _checked_rows,
    _padded_profiles,
    _power_means_kernel,
    coherence_rank,
    min_profile_ratio,
    shannon_entropy,
    sorted_descending,
)
from .states import DensityMatrix, PureStateVector, SUPPORT_TOL, as_distribution
from .subspaces import PureSubspace, optimize_disjoint_selection

STRICT_TOL = 1e-12       # margin above which a strict inequality counts
UNIT_TOL = 1e-9          # closeness to probability 1 / weight 1
GRID_CEILING = 1_000_000         # most catalyst candidates one search scans
ALPHA_POINTS_CEILING = 1000      # most exponents per segment of the probability-1 gate
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

    verdict: bool                       # any subspace passes (full clique list)
    family_verdict: bool                # any selected-family member passes
    records: tuple[EnhancementRecord, ...]
    family_index_sets: tuple[tuple[int, ...], ...]
    baseline: float


@dataclass(frozen=True)
class DeterministicGateMemberRecord:
    """Per-family-member margins for the probability-1 catalyst test."""

    indices: tuple[int, ...]
    margin_below_one: float      # min over alpha < 1 of A(source) - A(target)
    alpha_below_one: float
    margin_above_one: float      # min over alpha > 1 of A(target) - A(source)
    alpha_above_one: float
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

def _profile(s: PureSubspace) -> np.ndarray:
    """Sorted squared profile of a subspace's state, cut to its rank."""
    return sorted_descending(s.state.probabilities())[: s.rank]


def _subspace_entries(subspaces) -> list[tuple[tuple[int, ...], float, tuple[float, ...]]]:
    """(indices, weight, sorted squared profile) for every given subspace."""
    return [(s.indices, s.weight, tuple(float(v) for v in _profile(s))) for s in subspaces]


def _target_profile(phi: PureStateVector) -> np.ndarray:
    if coherence_rank(phi) < 2:
        raise IncoherentTargetError(
            "target has coherence rank 1; catalysis questions are vacuous"
        )
    return sorted_descending(phi.probabilities())[: coherence_rank(phi)]


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
    p_n = 0 < q_n.  The headline verdict is the existential over the full
    clique list; the selected disjoint family's existential is reported
    alongside.
    """
    tgt = _target_profile(phi)
    return _enhancement_report(tgt, pmax_mixed(rho, phi))


def _enhancement_report(tgt, mixed: MixedPmaxResult) -> EnhancementGateReport:
    records = []
    for s in mixed.all_subspaces:
        p, q = _padded_profiles(_profile(s), tgt)
        pure = min_profile_ratio(p, q)
        if q[-1] <= SUPPORT_TOL:
            bound = 1.0
        elif p[-1] <= SUPPORT_TOL:
            bound = 0.0
        else:
            bound = min(p[-1] / q[-1], 1.0)
        margin = bound - pure
        records.append(
            EnhancementRecord(s.indices, pure, float(bound), float(margin),
                              bool(margin > STRICT_TOL))
        )
    family_sets = mixed.family.index_sets()
    return EnhancementGateReport(
        verdict=any(r.enhanceable for r in records),
        family_verdict=any(
            r.enhanceable for r in records if r.indices in family_sets
        ),
        records=tuple(records),
        family_index_sets=family_sets,
        baseline=mixed.p_max,
    )


# ===========================================================================
# probability-1 gate (power means + entropy)
# ===========================================================================

def default_alpha_grid(points_per_segment: int = 20) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sampled exponents: (below-one family incl. 0 and -inf, above-one incl. +inf).

    Each finite segment [-40, -0.01], [0.01, 0.99], [1.01, 40] carries
    ``points_per_segment`` log-spaced points, an integer from 2 to
    ``ALPHA_POINTS_CEILING``.
    """
    if not isinstance(points_per_segment, numbers.Integral):
        raise ValidationError(
            f"grid points per segment must be an integer, got {points_per_segment!r}"
        )
    if points_per_segment < 2:
        raise ValidationError("need at least 2 grid points per segment")
    if points_per_segment > ALPHA_POINTS_CEILING:
        raise ValidationError(
            f"at most {ALPHA_POINTS_CEILING} grid points per segment, got {points_per_segment}"
        )
    return _alpha_grid(int(points_per_segment))


@functools.lru_cache(maxsize=16)
def _alpha_grid(points_per_segment: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    neg = -np.logspace(math.log10(0.01), math.log10(40.0), points_per_segment)
    low = np.logspace(math.log10(0.01), math.log10(0.99), points_per_segment)
    high = np.logspace(math.log10(1.01), math.log10(40.0), points_per_segment)
    below = tuple(sorted([-math.inf, 0.0, *map(float, neg), *map(float, low)]))
    above = tuple(sorted([*map(float, high), math.inf]))
    return below, above


def _brackets(alphas, values: np.ndarray, first, second) -> list[list]:
    """One refinement bracket per row of ``values``, the margins sampled at ``alphas``.

    A bracket is [lo, best exponent, hi, best margin, first row, second
    row]: it reaches to the finite neighbours of the row's first minimum
    (an infinite neighbour leaves that end at the best exponent), and its
    margin at an order is A(first row) - A(second row).
    """
    out = []
    for k, row, f, s in zip(values.argmin(axis=1).tolist(), values.tolist(), first, second):
        best_a = alphas[k]
        lo = alphas[k - 1] if k > 0 and math.isfinite(alphas[k - 1]) else best_a
        hi = alphas[k + 1] if k + 1 < len(alphas) and math.isfinite(alphas[k + 1]) else best_a
        out.append([lo, best_a, hi, row[k], f, s])
    return out


def _refine_minima(rows: np.ndarray, lows, highs, brackets) -> None:
    """Tighten sampled margin minima by repeated halving between neighbours, in place.

    Only brackets with a finite best exponent are refined, each for at
    most 40 halvings and until it is narrower than 1e-6, so a margin
    never rises above the sampled minimum.  Each step is one kernel
    call over the two rows of every bracket still refining, each row
    raised only to its own bracket's two probes.
    """
    active = [b for b in brackets if math.isfinite(b[1])]
    for _ in range(40):
        if not active:
            break
        sel = [i for b in active for i in b[4:]]
        # both probes of a bracket come from its best exponent before the step
        probes = [((lo + a) / 2.0, (a + hi) / 2.0) for lo, a, hi, *_ in active]
        means = _power_means_kernel(
            rows.take(sel, axis=0), [lows[i] for i in sel], [highs[i] for i in sel],
            np.array([probe for probe in probes for _ in (0, 1)]),
        )
        for b, probe, first, second in zip(active, probes, means[0::2], means[1::2]):
            lo, a, hi, v = b[:4]
            for alpha, x, y in zip(probe, first, second):
                margin = x - y
                if margin < v:
                    a, v = alpha, margin
            b[:4] = (lo + a) / 2.0, a, (a + hi) / 2.0, v
        active = [b for b in active if b[2] - b[0] >= 1e-6]


def _group_margins(profiles, tgt: np.ndarray, n: int, below, above) -> list[tuple]:
    """Gate margins of the family members whose padded length is ``n``.

    The members' padded profiles and the padded target are stacked and
    checked once; one kernel call evaluates the whole grid, and each
    refinement step is one more.  Returns, per member, the refined
    (alpha, margin) below and above one, the entropy margin and whether
    the padded profile carries a zero entry.
    """
    m = len(profiles)
    stack = np.zeros((m + 1, n))
    for i, profile in enumerate(profiles):
        stack[i, :profile.size] = profile
    stack[m, :tgt.size] = tgt
    rows, lows, highs = _checked_rows(stack)
    means = np.array(_power_means_kernel(rows, lows, highs, np.array(below + above)))
    kb = len(below)
    # below-one margins are A(p) - A(q), above-one margins A(q) - A(p)
    sources, target = range(m), [m] * m
    lower = _brackets(below, means[:m, :kb] - means[m, :kb], sources, target)
    upper = _brackets(above, means[m, kb:] - means[:m, kb:], target, sources)
    _refine_minima(rows, lows, highs, lower + upper)
    target_entropy = shannon_entropy(rows[m])
    return [
        (lo_b[1], lo_b[3], up_b[1], up_b[3],
         shannon_entropy(rows[i]) - target_entropy, lows[i] <= SUPPORT_TOL)
        for i, (lo_b, up_b) in enumerate(zip(lower, upper))
    ]


def deterministic_gate(
    rho: DensityMatrix,
    phi: PureStateVector,
    points_per_segment: int = 20,
) -> DeterministicGateReport:
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
    (total weight 1); a shortfall is reported as a flag and fails the
    gate, as does a zero entry in a padded source profile (which zeroes
    every A_alpha with alpha <= 0).
    """
    tgt = _target_profile(phi)
    return _deterministic_report(tgt, pmax_mixed(rho, phi).family, points_per_segment)


def _deterministic_report(tgt, family, points_per_segment) -> DeterministicGateReport:
    baseline = family.total_value
    if baseline >= 1.0 - UNIT_TOL:
        raise PreconditionError(
            "optimal probability is already 1; no catalyst is needed"
        )
    below, above = default_alpha_grid(points_per_segment)
    flags: list[str] = []
    weight_complete = family.total_weight >= 1.0 - UNIT_TOL
    if not weight_complete:
        flags.append("family_weight_below_one")

    # members of one padded length share every kernel call
    groups: dict[int, list[int]] = {}
    profiles = [_profile(s) for s in family.members]
    for i, profile in enumerate(profiles):
        groups.setdefault(max(profile.size, tgt.size), []).append(i)
    margins = [None] * len(profiles)
    for n, indices in groups.items():
        group = _group_margins([profiles[i] for i in indices], tgt, n, below, above)
        for i, values in zip(indices, group):
            margins[i] = values

    members = []
    for s, (a_lo, m_lo, a_hi, m_hi, s_margin, zero_entry) in zip(family.members, margins):
        passes = m_lo > 0.0 and m_hi > 0.0 and s_margin > 0.0
        if zero_entry:
            flags.append(f"zero_entry_support:{s.indices}")
        members.append(
            DeterministicGateMemberRecord(
                indices=s.indices,
                margin_below_one=float(m_lo),
                alpha_below_one=float(a_lo),
                margin_above_one=float(m_hi),
                alpha_above_one=float(a_hi),
                entropy_margin=float(s_margin),
                zero_entry_support=zero_entry,
                passes=bool(passes),
            )
        )
    verdict = weight_complete and all(m.passes for m in members)
    return DeterministicGateReport(
        verdict=bool(verdict),
        members=tuple(members),
        total_weight=family.total_weight,
        weight_complete=weight_complete,
        baseline=baseline,
        flags=tuple(flags),
    )


# ===========================================================================
# catalyzed probability and grid search
# ===========================================================================

def _tail_sums(profile: np.ndarray, cat: np.ndarray, width: int) -> np.ndarray:
    """Tail sums of every row of profile (x) c, zero-padded to ``width``.

    Column j holds the sum of the j + 1 smallest entries, so the row read
    backwards is :func:`suffix_profile` of that product; ``np.cumsum`` adds
    in sequence, so the sums are the same bit for bit.
    """
    n_rows, k = cat.shape
    out = np.zeros((n_rows, width))
    out[:, : profile.size * k] = (profile[None, :, None] * cat[:, None, :]).reshape(n_rows, -1)
    out.sort(axis=1)
    np.cumsum(out, axis=1, out=out)
    out[out < 0.0] = 0.0
    return out


def _min_ratios(src_tails: np.ndarray, tgt_tails: np.ndarray) -> np.ndarray:
    """Row-wise :func:`min_profile_ratio` on aligned tail sums."""
    live = tgt_tails > SUPPORT_TOL
    ratios = np.divide(src_tails, tgt_tails, out=np.full(src_tails.shape, np.inf), where=live)
    best = np.minimum(ratios.min(axis=1), 1.0)
    best[np.any(live & (src_tails <= SUPPORT_TOL), axis=1)] = 0.0
    return np.clip(best, 0.0, 1.0)


def _catalyzed_values(entries, target_profile, catalysts: np.ndarray) -> np.ndarray:
    """P(rho (x) c -> phi (x) c) for every catalyst row c of ``catalysts``.

    The maximal pure subspaces of rho (x) |c><c| are exactly the products
    of rho's subspaces with the catalyst block (the catalyst is pure with
    full support), so the product instance keeps rho's clique structure
    and weights, and only the profiles become p (x) c.  Each subspace is
    scored for all rows at once, in chunks of at most
    ``ROW_CHUNK_ELEMENTS`` array entries, with the depth rules of
    :func:`min_profile_ratio`.  Disjoint subspaces add their scores in
    index-set order, the order :func:`optimize_disjoint_selection` adds
    in; subspaces sharing a level (the tolerance edge) go through that
    selection row by row.
    """
    tgt = as_distribution(target_profile)
    entries = sorted((idx, w, as_distribution(prof)) for idx, w, prof in entries)
    uses = Counter(j for idx, _, _ in entries for j in idx)
    disjoint = max(uses.values()) == 1
    k = catalysts.shape[1]
    widths = [max(prof.size, tgt.size) * k for _, _, prof in entries]
    rows_per_chunk = max(1, ROW_CHUNK_ELEMENTS // max(widths))
    out = np.empty(len(catalysts))
    for start in range(0, len(catalysts), rows_per_chunk):
        cat = catalysts[start:start + rows_per_chunk]
        tgt_tails: dict[int, np.ndarray] = {}
        scores = []
        for (_, w, prof), width in zip(entries, widths):
            if width not in tgt_tails:
                tgt_tails[width] = _tail_sums(tgt, cat, width)
            scores.append(w * _min_ratios(_tail_sums(prof, cat, width), tgt_tails[width]))
        if disjoint:
            total = np.zeros(len(cat))
            for score in scores:
                total += score
            out[start:start + len(cat)] = total
        else:
            for row, values in enumerate(np.column_stack(scores).tolist()):
                scored = [(idx, w, v) for (idx, w, _), v in zip(entries, values)]
                out[start + row] = optimize_disjoint_selection(scored)[2]
    return out


def catalyzed_pmax(rho: DensityMatrix, phi: PureStateVector, catalyst) -> float:
    """Optimal distillation probability with a lent catalyst profile.

    ``catalyst`` is the catalyst's squared-modulus distribution; the
    identity catalyst (1,) returns the plain baseline exactly.
    """
    tgt = _target_profile(phi)
    entries = _subspace_entries(pmax_mixed(rho, phi).all_subspaces)
    cat = as_distribution(catalyst)
    return float(_catalyzed_values(entries, tgt, cat[None, :])[0])


def _partitions(n: int, k: int) -> np.ndarray:
    """Descending positive integer partitions of n into k parts, one per row.

    Built from the last part forwards: a part placed with ``left`` parts
    still to come (itself included) is at least the part after it and
    leaves room for ``left`` parts of its size.  Rows come back in
    ascending lexicographic order.
    """
    parts = np.arange(1, n // k + 1)[:, None]
    total = parts[:, 0].copy()
    for left in range(k - 1, 0, -1):
        if left == 1:                   # the first part takes what is left
            lo = hi = n - total
        else:
            lo, hi = parts[:, 0], (n - total) // left
        counts = hi - lo + 1
        rows = np.repeat(np.arange(len(parts)), counts)
        offsets = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first = lo[rows] + offsets
        parts = np.column_stack([first, parts[rows]])
        total = total[rows] + first
    return parts[np.lexsort(parts.T[::-1])]


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


def _catalyst_grids(max_dim: int, grid_step: float) -> list[np.ndarray]:
    """Grid profiles as one N x k array per catalyst dimension k = 2..max_dim.

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
            f"grid_step {grid_step!r} gives more than {GRID_CEILING} candidates"
        )
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise ValidationError("grid_step must divide 1")
    max_parts = min(max_dim, n)
    if _grid_size(n, max_parts) > GRID_CEILING:
        raise ValidationError(
            f"max_dim {max_dim} at grid_step {grid_step!r} gives more than"
            f" {GRID_CEILING} candidates"
        )
    return [_partitions(n, k) / n for k in range(2, max_parts + 1)]


def catalyst_candidates(max_dim: int, grid_step: float) -> list[tuple[float, ...]]:
    """All sorted-descending positive grid profiles, k = 2..max_dim.

    Scan order is dimension-major, then ascending lexicographic, which
    fixes the meaning of "first hit" in deterministic searches.  A grid of
    more than ``GRID_CEILING`` profiles raises ValidationError.
    """
    return [tuple(row) for grid in _catalyst_grids(max_dim, grid_step) for row in grid.tolist()]


def search_catalyst(
    rho: DensityMatrix,
    phi: PureStateVector,
    max_dim: int = 2,
    grid_step: float = 0.05,
    mode: str = "probabilistic",
) -> CatalystSearchReport:
    """Grid search for an explicit catalyst profile.

    In "probabilistic" mode the best candidate is returned and counts as
    found when it beats the baseline by more than 1e-9; ties prefer the
    lexicographically smallest profile.  In "deterministic" mode the first
    candidate (scan order of :func:`catalyst_candidates`) reaching
    probability 1 within 1e-9 is returned; starting from baseline 1 is a
    precondition violation.  The baseline is ``pmax_mixed(rho, phi).p_max``,
    and all candidates of one dimension are scored in one array pass.
    """
    if mode not in ("probabilistic", "deterministic"):
        raise ValidationError(f"unknown mode {mode!r}")
    tgt = _target_profile(phi)
    mixed = pmax_mixed(rho, phi)
    entries = _subspace_entries(mixed.all_subspaces)
    baseline = mixed.p_max
    if mode == "deterministic" and baseline >= 1.0 - UNIT_TOL:
        raise PreconditionError("baseline probability is already 1")

    grids = _catalyst_grids(max_dim, grid_step)
    candidates = [tuple(row) for grid in grids for row in grid.tolist()]
    achieved = [v for grid in grids for v in _catalyzed_values(entries, tgt, grid).tolist()]

    if mode == "deterministic":
        for c, v in zip(candidates, achieved):
            if v >= 1.0 - UNIT_TOL:
                return CatalystSearchReport(
                    baseline=baseline, mode=mode, found=True, catalyst=c,
                    achieved=v, candidates_evaluated=len(candidates),
                )
        return CatalystSearchReport(
            baseline=baseline, mode=mode, found=False, catalyst=None,
            achieved=baseline, candidates_evaluated=len(candidates),
        )

    best_c: tuple[float, ...] | None = None
    best_v = -1.0
    for c, v in zip(candidates, achieved):
        if v > best_v + STRICT_TOL:
            best_c, best_v = c, v
        elif v > best_v - STRICT_TOL and (best_c is None or c < best_c):
            best_c = c
    found = best_v > baseline + UNIT_TOL
    return CatalystSearchReport(
        baseline=baseline,
        mode=mode,
        found=bool(found),
        catalyst=best_c if found else None,
        achieved=best_v if found else baseline,
        candidates_evaluated=len(candidates),
    )
