"""Independent reference answers, written with numpy alone.

Nothing here imports cohdist.  The benchmark checks every answer of the
code under test against these functions, or against a property the method
must have; never against a stored copy of an earlier output.

Conventions follow the paper: a pure state's profile is its list of
squared moduli; its coherence profile is the list of descending tail sums;
the optimal pure-to-pure probability is the smallest tail-sum ratio.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SUPPORT_TOL = 1e-12     # a tail sum at or below this counts as zero
RANK1_TOL = 1e-9        # second eigenvalue ceiling for a pure restriction


# ===========================================================================
# pure states and blocks
# ===========================================================================

def tails(weights) -> np.ndarray:
    """Descending tail sums: entry l is the total outside the l largest."""
    w = np.sort(np.asarray(weights, dtype=float))[::-1]
    return np.cumsum(w[::-1])[::-1]


def _pad(a: np.ndarray, n: int) -> np.ndarray:
    return np.pad(a, (0, n - a.size))


def ratio(source, target) -> float:
    """Optimal conversion probability between pure profiles.

    min over depths l of tail_l(source) / tail_l(target), capped at 1;
    depths with a vanishing target tail are skipped, a vanishing source
    tail against a positive target tail gives 0.
    """
    p, q = np.asarray(source, float), np.asarray(target, float)
    n = max(p.size, q.size)
    cp, cq = tails(_pad(p, n)), tails(_pad(q, n))
    live = cq > SUPPORT_TOL
    if np.any(cp[live] <= SUPPORT_TOL):
        return 0.0
    return float(min(1.0, np.min(cp[live] / cq[live])))


def block_weight_profile(rho: np.ndarray, block) -> tuple[float, np.ndarray]:
    """Weight tr(P rho P) of a pure block and its normalized squared profile."""
    diag = np.real(np.diag(rho))[list(block)]
    weight = float(diag.sum())
    return weight, diag / weight


def pmax_blocks(rho: np.ndarray, blocks, target) -> float:
    """p_max of a direct sum of pure blocks: sum of weight times ratio."""
    q = np.abs(np.asarray(target)) ** 2
    total = 0.0
    for block in blocks:
        w, p = block_weight_profile(rho, block)
        total += w * ratio(p, q)
    return total


# ===========================================================================
# brute force for small generic states
# ===========================================================================

def _is_pure_restriction(rho: np.ndarray, idx) -> bool:
    sub = rho[np.ix_(idx, idx)]
    vals = np.linalg.eigvalsh(sub / np.real(np.trace(sub)))
    return len(vals) < 2 or vals[-2] <= RANK1_TOL


def pure_subsets(rho: np.ndarray) -> list[tuple[int, ...]]:
    """Maximal index sets on which rho restricts to a pure state.

    Checks every subset of the populated levels, so it is meant for d <= 10.
    For a density matrix these sets are pairwise disjoint (unit coherence is
    parallelism of Gram vectors, an equivalence relation); a violation
    raises, because the input then sits on a tolerance edge.
    """
    levels = [i for i in range(rho.shape[0]) if rho[i, i].real > SUPPORT_TOL]
    pure = [
        idx
        for r in range(1, len(levels) + 1)
        for idx in itertools.combinations(levels, r)
        if _is_pure_restriction(rho, list(idx))
    ]
    maximal = [s for s in pure if not any(set(s) < set(t) for t in pure)]
    covered = [i for s in maximal for i in s]
    if len(covered) != len(set(covered)):
        raise ValueError("maximal pure subsets overlap; input is on a tolerance edge")
    return sorted(maximal, key=lambda s: (-len(s), s))


# ===========================================================================
# plans: strict incoherence, completeness, replay
# ===========================================================================

def is_strictly_incoherent(kraus: np.ndarray, tol: float = 1e-12) -> bool:
    """At most one nonzero entry in every row and every column."""
    nz = np.abs(kraus) > tol
    return bool(nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1)


def completeness_excess(krauses) -> float:
    """Largest entry of diag(sum K†K) minus 1.

    For strictly incoherent operators K†K is diagonal, with entry j equal to
    the squared norm of column j, so the diagonal decides sum K†K <= I.
    """
    total = sum((np.abs(k) ** 2).sum(axis=0) for k in krauses)
    return float(np.max(total) - 1.0)


def replay(kraus: np.ndarray, rho: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(probability tr(K rho K†), fidelity of the normalized output with target)."""
    out = kraus @ rho @ kraus.conj().T
    prob = float(np.real(np.trace(out)))
    if prob <= 1e-15:
        return prob, 1.0
    fid = float(np.real(target.conj() @ out @ target)) / prob
    return prob, fid


def check_plan(krauses, probabilities, rho, target, p_max, tol=1e-9) -> list[str]:
    """Problems found in a plan's branches; an empty list means it is sound."""
    problems = []
    for n, (k, stated) in enumerate(zip(krauses, probabilities)):
        if not is_strictly_incoherent(k):
            problems.append(f"branch {n} is not strictly incoherent")
        prob, fid = replay(k, rho, target)
        if fid < 1.0 - tol:
            problems.append(f"branch {n} replay fidelity {fid!r}")
        if abs(prob - stated) > tol:
            problems.append(f"branch {n} probability {stated!r}, replay gives {prob!r}")
    if krauses and completeness_excess(krauses) > tol:
        problems.append("sum of K†K exceeds the identity")
    total = float(sum(probabilities))
    if abs(total - p_max) > tol:
        problems.append(f"branch probabilities add to {total!r}, expected {p_max!r}")
    return problems


def sampling_consistent(successes: int, shots: int, p: float, sigmas: float = 6.0) -> bool:
    """Whether a success count lies within ``sigmas`` standard errors of p."""
    se = math.sqrt(max(p * (1.0 - p), 0.0) / shots)
    return abs(successes / shots - p) <= sigmas * se + 1.0 / shots


# ===========================================================================
# catalysis
# ===========================================================================

def enhanceable(p, q, tol: float = 1e-12) -> float:
    """Margin of the enhancement condition pmax(p->q) < min(p_n/q_n, 1).

    p and q are zero-padded to a common length n.  Returns bound - pmax,
    where bound is 1 when q_n = 0 and 0 when p_n = 0 < q_n; a catalyst can
    raise the probability iff the margin is positive.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    n = max(p.size, q.size)
    ps, qs = np.sort(_pad(p, n))[::-1], np.sort(_pad(q, n))[::-1]
    if qs[-1] <= tol:
        bound = 1.0
    elif ps[-1] <= tol:
        bound = 0.0
    else:
        bound = min(ps[-1] / qs[-1], 1.0)
    return bound - ratio(ps, qs)


def power_mean(w: np.ndarray, alpha: float) -> float:
    if math.isinf(alpha):
        return float(w.max() if alpha > 0 else w.min())
    if alpha <= 0 and w.min() <= 0.0:
        return 0.0
    if alpha == 0:
        return float(np.exp(np.mean(np.log(w))))
    return float(np.mean(w ** alpha) ** (1.0 / alpha))


def entropy(w) -> float:
    w = np.asarray(w, float)
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def deterministic_violations(p, q, alphas=None) -> list[str]:
    """Power-mean and entropy conditions for a probability-1 catalyst.

    A catalyst making p -> q deterministic requires, on the zero-padded
    profiles, A_a(p) > A_a(q) for a < 1, A_a(p) < A_a(q) for a > 1 and
    S(p) > S(q).  Returns the conditions found violated on a grid of
    exponents, with a margin of 1e-9.
    """
    p, q = np.asarray(p, float), np.asarray(q, float)
    n = max(p.size, q.size)
    p, q = _pad(p, n), _pad(q, n)
    if alphas is None:
        alphas = [-math.inf, *(-np.geomspace(0.02, 30, 25)), 0.0,
                  *np.linspace(0.05, 0.95, 19), *np.geomspace(1.05, 30, 25), math.inf]
    out = []
    for a in alphas:
        gap = power_mean(p, a) - power_mean(q, a)
        if (a < 1 and gap < -1e-9) or (a > 1 and gap > 1e-9):
            out.append(f"power mean order {a:.3g}")
    if entropy(p) < entropy(q) - 1e-9:
        out.append("entropy")
    return out


def candidate_grid(max_dim: int, step: float) -> np.ndarray:
    """Catalyst profiles on the simplex grid, in search scan order.

    Descending positive profiles with entries on multiples of ``step``,
    dimension 2 first, each dimension in ascending lexicographic order.
    Rows are zero-padded to ``max_dim``.
    """
    n = round(1.0 / step)

    def parts(total, k, cap):
        if k == 1:
            return [(total,)] if 1 <= total <= cap else []
        return [
            (first,) + rest
            for first in range(1, min(cap, total - k + 1) + 1)
            for rest in parts(total - first, k - 1, first)
        ]

    rows = [
        list(c) + [0] * (max_dim - k)
        for k in range(2, max_dim + 1)
        for c in sorted(parts(n, k, n))
    ]
    return np.array(rows, dtype=float) / n


def catalyzed_values(rho: np.ndarray, blocks, target, catalysts: np.ndarray) -> np.ndarray:
    """p_max of rho (x) c -> phi (x) c for every catalyst row c at once.

    Tensoring with a pure catalyst multiplies profiles entrywise, so each
    block contributes weight * ratio(p (x) c, q (x) c), recomputed here from
    the tensored profiles.
    """
    q = np.abs(np.asarray(target)) ** 2
    q = q[q > 0]
    out = np.zeros(len(catalysts))
    for block in blocks:
        w, p = block_weight_profile(rho, block)
        n = max(p.size, q.size)
        src = (catalysts[:, :, None] * _pad(p, n)[None, None, :]).reshape(len(catalysts), -1)
        tgt = (catalysts[:, :, None] * _pad(q, n)[None, None, :]).reshape(len(catalysts), -1)
        cs = np.cumsum(np.sort(src, axis=1), axis=1)[:, ::-1]
        ct = np.cumsum(np.sort(tgt, axis=1), axis=1)[:, ::-1]
        live = ct > SUPPORT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(live, cs / np.where(live, ct, 1.0), np.inf)
        r = np.where(live & (cs <= SUPPORT_TOL), 0.0, r)
        out += w * np.minimum(1.0, r.min(axis=1))
    return out
