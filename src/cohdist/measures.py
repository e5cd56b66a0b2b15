"""Distribution-level coherence measures and order relations.

All functions here work on plain nonnegative weight vectors (squared
moduli); sorting is descending with stable tie order by original index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .states import PureStateVector, SUPPORT_TOL, as_distribution, require_finite

MAJORIZATION_TOL = 1e-10


def sorted_descending(weights) -> np.ndarray:
    w = np.array(weights, dtype=float)
    return w[np.argsort(-w, kind="stable")]


def coherence_rank(psi: PureStateVector) -> int:
    """Number of amplitudes with squared modulus above SUPPORT_TOL."""
    return len(psi.support())


def suffix_profile(weights) -> np.ndarray:
    """Tail sums of the descending-sorted weights.

    Entry ``l`` (0-based) is the total weight outside the ``l`` largest
    entries' complement, i.e. sum of entries ``l..d-1`` after sorting.
    Entry 0 equals the full total.
    """
    w = sorted_descending(weights)
    out = np.cumsum(w[::-1])[::-1]
    out[out < 0.0] = 0.0
    return out


def cl_profile(psi: PureStateVector) -> np.ndarray:
    """Tail-sum coherence profile of a pure state; entry 0 is 1."""
    return suffix_profile(psi.probabilities())


def min_profile_ratio(source_weights, target_weights) -> float:
    """Smallest tail-sum ratio C_l(source)/C_l(target) over all depths.

    Profiles are zero-padded to a common length.  Depths where the target
    tail vanishes are skipped (ratio +inf); a vanishing source tail against
    a positive target tail pins the result to 0.  Result lies in [0, 1]
    whenever both inputs are unit-sum.
    """
    p = np.asarray(source_weights, dtype=float)
    q = np.asarray(target_weights, dtype=float)
    d = max(p.size, q.size)
    cp = suffix_profile(np.pad(p, (0, d - p.size)))
    cq = suffix_profile(np.pad(q, (0, d - q.size)))
    best = 1.0
    for a, b in zip(cp, cq):
        if b <= SUPPORT_TOL:
            continue
        if a <= SUPPORT_TOL:
            return 0.0
        best = min(best, a / b)
    return float(min(1.0, max(0.0, best)))


def majorizes(p, q, *, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff ``p`` is majorized by ``q`` (written p < q).

    Checks that every descending-order partial sum of ``p`` is at most the
    matching partial sum of ``q``, within ``tol``; vectors are zero-padded
    to a common length and must be valid distributions.
    """
    pw = as_distribution(p)
    qw = as_distribution(q)
    d = max(pw.size, qw.size)
    ps = np.cumsum(sorted_descending(np.pad(pw, (0, d - pw.size))))
    qs = np.cumsum(sorted_descending(np.pad(qw, (0, d - qw.size))))
    return bool(np.all(ps <= qs + tol))


def tensor(p, q) -> np.ndarray:
    """Product distribution: all pairwise products, row-major order."""
    pw = as_distribution(p)
    qw = as_distribution(q)
    return np.outer(pw, qw).ravel()


def power_means(weights, alphas) -> np.ndarray:
    """Power means A_alpha(w) = (mean(w_i^alpha))^(1/alpha), all rows by all orders.

    ``weights`` is one vector, giving a result of shape (len(alphas),), or
    a 2-d stack of rows, giving shape (rows, len(alphas)).  Analytic
    continuations: |alpha| <= 1e-8 is the geometric mean, alpha=+inf the
    maximum entry, alpha=-inf the minimum entry.  Any zero entry makes
    A_alpha = 0 for every alpha <= 0.  The averaging dimension is the full
    row length including zero padding.  For alpha < 0 a mean of powers
    that overflows (or underflows to 0) is taken again relative to the
    smallest entry, w_min * mean((w / w_min)^alpha)^(1/alpha); for
    alpha > 0 an overflowing mean gives +inf.

    All powers come from one broadcast and the means from one reduction;
    each root is a scalar float power, so every entry equals a separate
    evaluation at that order bit for bit.
    """
    w = np.array(weights, dtype=float)
    if w.ndim not in (1, 2) or w.size == 0:
        raise ValidationError(f"expected a nonempty 1-d vector or 2-d stack, got shape {w.shape}")
    rows = np.atleast_2d(w)
    require_finite(rows, "weight vector")
    lows = rows.min(axis=1).tolist()
    if min(lows) < 0.0:
        raise ValidationError(f"negative weight {min(lows)!r}")
    orders = np.array(alphas, dtype=float)
    if orders.ndim != 1:
        raise ValidationError(f"expected a 1-d sequence of orders, got shape {orders.shape}")
    alpha_list = orders.tolist()
    if any(math.isnan(a) for a in alpha_list):
        raise ValidationError("power-mean order is NaN")
    with np.errstate(over="ignore", divide="ignore"):
        means = np.mean(rows[:, None, :] ** orders[:, None], axis=-1).tolist()
    out = []
    for row, lo, hi, row_means in zip(rows, lows, rows.max(axis=1).tolist(), means):
        values = []
        for alpha, m in zip(alpha_list, row_means):
            if math.isinf(alpha):
                values.append(hi if alpha > 0 else lo)
            # below ~1e-8 the generic formula degenerates to 1.0 in floats;
            # the geometric-mean limit is the accurate continuation there
            elif abs(alpha) <= 1e-8:
                values.append(0.0 if lo <= 0.0 else float(np.exp(np.mean(np.log(row)))))
            elif alpha < 0.0 and lo <= 0.0:
                values.append(0.0)
            elif alpha < 0.0 and (m == 0.0 or math.isinf(m)):
                # (w / w_min)^alpha lies in (0, 1] with one entry 1, so this
                # mean lies in [1/n, 1]
                values.append(lo * float(np.mean((row / lo) ** alpha)) ** (1.0 / alpha))
            else:
                values.append(m ** (1.0 / alpha))
        out.append(values)
    result = np.array(out)
    return result if w.ndim == 2 else result[0]


def power_mean(weights, alpha: float) -> float:
    """Power mean A_alpha(w) of one vector: :func:`power_means` at one order."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1:
        raise ValidationError(f"expected a nonempty 1-d vector, got shape {w.shape}")
    return float(power_means(w, [alpha])[0])


def shannon_entropy(weights) -> float:
    """Shannon entropy in nats with the 0*log(0) = 0 convention."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("expected a nonnegative 1-d vector")
    require_finite(w, "weight vector")
    if w.min() < 0.0:
        raise ValidationError("expected a nonnegative 1-d vector")
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())
