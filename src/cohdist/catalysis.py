"""Catalyst existence gates and explicit catalyst search.

A catalyst is a pure coherent state |c> that joins the transformation and
must come back unchanged: the question is whether P(rho (x) c -> phi (x) c)
beats P(rho -> phi).  Squared-modulus profiles multiply under tensoring, so
every test here runs on plain distributions.

Two gates are provided.  The enhancement gate for raising the optimal
probability is exact (strict-inequality test on the smallest padded
entries).  The gate for reaching probability 1 compares power means and
entropies on a sampled exponent grid with local refinement, so it is not
exact: a sign change between grid points goes unseen.  The search
enumerates catalyst profiles on a simplex grid and evaluates each candidate
through the same subspace machinery used for plain distillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncoherentTargetError, PreconditionError, ValidationError
from .measures import (
    coherence_rank,
    min_profile_ratio,
    power_mean,
    shannon_entropy,
    sorted_descending,
    tensor,
)
from .states import DensityMatrix, PureStateVector, SUPPORT_TOL
from .subspaces import (
    maximal_pure_subspaces,
    optimize_disjoint_selection,
    select_disjoint_family,
)

STRICT_TOL = 1e-12       # margin above which a strict inequality counts
UNIT_TOL = 1e-9          # closeness to probability 1 / weight 1


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

def _subspace_entries(rho: DensityMatrix) -> list[tuple[tuple[int, ...], float, tuple[float, ...]]]:
    """(indices, weight, sorted squared profile) for every maximal subspace."""
    out = []
    for s in maximal_pure_subspaces(rho):
        profile = sorted_descending(s.state.probabilities())[: s.rank]
        out.append((s.indices, s.weight, tuple(float(v) for v in profile)))
    return out


def _padded_profiles(src_profile, tgt_profile) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad both sorted profiles to the larger coherence rank."""
    p = np.asarray(src_profile, dtype=float)
    q = np.asarray(tgt_profile, dtype=float)
    n = max(p.size, q.size)
    return np.pad(p, (0, n - p.size)), np.pad(q, (0, n - q.size))


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
    subs = maximal_pure_subspaces(rho)
    family = select_disjoint_family(subs, phi)
    records = []
    for s in subs:
        profile = sorted_descending(s.state.probabilities())[: s.rank]
        p, q = _padded_profiles(profile, tgt)
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
    family_sets = family.index_sets()
    return EnhancementGateReport(
        verdict=any(r.enhanceable for r in records),
        family_verdict=any(
            r.enhanceable for r in records if r.indices in family_sets
        ),
        records=tuple(records),
        family_index_sets=family_sets,
        baseline=family.total_value,
    )


# ===========================================================================
# probability-1 gate (power means + entropy)
# ===========================================================================

def default_alpha_grid(points_per_segment: int = 20) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sampled exponents: (below-one family incl. 0 and -inf, above-one incl. +inf).

    Each finite segment [-40, -0.01], [0.01, 0.99], [1.01, 40] carries
    ``points_per_segment`` log-spaced points.
    """
    if points_per_segment < 2:
        raise ValidationError("need at least 2 grid points per segment")
    neg = -np.logspace(math.log10(0.01), math.log10(40.0), points_per_segment)
    low = np.logspace(math.log10(0.01), math.log10(0.99), points_per_segment)
    high = np.logspace(math.log10(1.01), math.log10(40.0), points_per_segment)
    below = tuple(sorted([-math.inf, 0.0, *map(float, neg), *map(float, low)]))
    above = tuple(sorted([*map(float, high), math.inf]))
    return below, above


def _refine_minimum(f, alphas: list[float], values: list[float]) -> tuple[float, float]:
    """Tighten the sampled minimum by repeated halving between neighbors.

    Only finite exponents are refined; the margin function is evaluated as
    given, so the returned value never exceeds the sampled minimum.
    """
    k = int(np.argmin(values))
    best_a, best_v = alphas[k], values[k]
    if not math.isfinite(best_a):
        return best_a, best_v
    lo = alphas[k - 1] if k > 0 and math.isfinite(alphas[k - 1]) else best_a
    hi = alphas[k + 1] if k + 1 < len(alphas) and math.isfinite(alphas[k + 1]) else best_a
    for _ in range(40):
        for probe in ((lo + best_a) / 2.0, (best_a + hi) / 2.0):
            v = f(probe)
            if v < best_v:
                best_v, best_a = v, probe
        lo = (lo + best_a) / 2.0
        hi = (best_a + hi) / 2.0
        if hi - lo < 1e-6:
            break
    return best_a, best_v


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
    subs = maximal_pure_subspaces(rho)
    family = select_disjoint_family(subs, phi)
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

    members = []
    for s in family.members:
        profile = sorted_descending(s.state.probabilities())[: s.rank]
        p, q = _padded_profiles(profile, tgt)
        zero_entry = bool(p.min() <= SUPPORT_TOL)

        def below_margin(a: float) -> float:
            return power_mean(p, a) - power_mean(q, a)

        def above_margin(a: float) -> float:
            return power_mean(q, a) - power_mean(p, a)

        below_vals = [below_margin(a) for a in below]
        above_vals = [above_margin(a) for a in above]
        a_lo, m_lo = _refine_minimum(below_margin, list(below), below_vals)
        a_hi, m_hi = _refine_minimum(above_margin, list(above), above_vals)
        s_margin = shannon_entropy(p) - shannon_entropy(q)
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

def _achieved_with_catalyst(entries, target_profile, catalyst) -> float:
    """P(rho (x) c -> phi (x) c) from precomputed subspace profiles.

    The maximal pure subspaces of rho (x) |c><c| are exactly the products
    of rho's subspaces with the catalyst block (the catalyst is pure with
    full support), so the product instance reuses rho's clique structure
    with tensored profiles.
    """
    cat = np.asarray(catalyst, dtype=float)
    tgt = tensor(target_profile, cat)
    scored = [
        (idx, w, w * min_profile_ratio(tensor(np.array(prof), cat), tgt))
        for idx, w, prof in entries
    ]
    _, _, value = optimize_disjoint_selection(scored)
    return value


def catalyzed_pmax(rho: DensityMatrix, phi: PureStateVector, catalyst) -> float:
    """Optimal distillation probability with a lent catalyst profile.

    ``catalyst`` is the catalyst's squared-modulus distribution; the
    identity catalyst (1,) returns the plain baseline exactly.
    """
    tgt = _target_profile(phi)
    entries = _subspace_entries(rho)
    return _achieved_with_catalyst(entries, tgt, np.asarray(catalyst, dtype=float))


def _partitions(n: int, k: int, cap: int):
    """Descending positive integer partitions of n into exactly k parts."""
    if k == 1:
        if 1 <= n <= cap:
            yield (n,)
        return
    lo = (n + k - 1) // k
    for first in range(min(cap, n - (k - 1)), lo - 1, -1):
        for rest in _partitions(n - first, k - 1, first):
            yield (first,) + rest


def catalyst_candidates(max_dim: int, grid_step: float) -> list[tuple[float, ...]]:
    """All sorted-descending positive grid profiles, k = 2..max_dim.

    Scan order is dimension-major, then ascending lexicographic, which
    fixes the meaning of "first hit" in deterministic searches.
    """
    if max_dim < 2:
        raise ValidationError("max_dim must be at least 2")
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError("grid_step must lie in (0, 0.5]")
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise ValidationError("grid_step must divide 1")
    out: list[tuple[float, ...]] = []
    for k in range(2, max_dim + 1):
        level = sorted(_partitions(n, k, n))
        out.extend(tuple(part / n for part in parts) for parts in level)
    return out


def search_catalyst(
    rho: DensityMatrix,
    phi: PureStateVector,
    max_dim: int = 2,
    grid_step: float = 0.05,
    mode: str = "probabilistic",
    workers: int | None = None,
) -> CatalystSearchReport:
    """Grid search for an explicit catalyst profile.

    In "probabilistic" mode the best candidate is returned and counts as
    found when it beats the baseline by more than 1e-9; ties prefer the
    lexicographically smallest profile.  In "deterministic" mode the first
    candidate (scan order of :func:`catalyst_candidates`) reaching
    probability 1 within 1e-9 is returned; starting from baseline 1 is a
    precondition violation.  ``workers`` is accepted for compatibility and
    ignored: candidates are evaluated in this process.
    """
    if mode not in ("probabilistic", "deterministic"):
        raise ValidationError(f"unknown mode {mode!r}")
    tgt = _target_profile(phi)
    entries = _subspace_entries(rho)
    baseline = _achieved_with_catalyst(entries, tgt, (1.0,))
    if mode == "deterministic" and baseline >= 1.0 - UNIT_TOL:
        raise PreconditionError("baseline probability is already 1")

    candidates = catalyst_candidates(max_dim, grid_step)
    achieved = [_achieved_with_catalyst(entries, tgt, c) for c in candidates]

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
