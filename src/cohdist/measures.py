"""Distribution-level coherence measures and order relations.

All functions here work on plain nonnegative weight vectors (squared
moduli).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .states import GEOMETRIC_ORDER_TOL, MAJORIZATION_TOL, SUPPORT_TOL
from .states import _as_array, as_distribution, require_finite


def _padded_rows(vectors, width: int = 0) -> np.ndarray:
    """1-d weight vectors stacked as the rows of one array, zero-padded on the right.

    The array has at least ``width`` columns.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    out = np.zeros((len(vectors), max([width, *(v.size for v in vectors)])))
    for row, v in zip(out, vectors):
        row[:v.size] = v
    return out


def _tail_sums(rows: np.ndarray, width: int) -> np.ndarray:
    """Tail sums of every row (last axis), zero-padded to ``width``, depth-major.

    The result has the depth axis first: entry [j, ...] holds the sum of
    the j + 1 smallest entries of a row, so a row's sums read backwards
    are its descending tail sums.  The sums add in sequence from the
    smallest entry, so the padding zeros add exactly 0: a wider padding
    shifts the sums to deeper depths and changes no value.  Few vectors
    accumulate in one call; many add one whole depth row at a time, which
    gives the same sums bit for bit.
    """
    if rows.shape[-1] == width:
        out = rows.copy()
    else:
        out = np.zeros(rows.shape[:-1] + (width,))
        out[..., :rows.shape[-1]] = rows
    out.sort(axis=-1)
    lead = out.shape[:-1]
    sums = out.reshape(math.prod(lead), width).T.copy()
    # one accumulate call runs along the depth axis vector by vector, so it
    # beats a Python loop over depths only for few vectors: at widths 4 to
    # 40 the two cost the same somewhere between 192 and 384 vectors
    if sums.shape[1] < 256:
        np.add.accumulate(sums, axis=0, out=sums)
    else:
        for j in range(1, width):
            sums[j] += sums[j - 1]
    np.maximum(sums, 0.0, out=sums)
    return sums.reshape((width, *lead))


def min_profile_ratios(rows, target) -> np.ndarray:
    """:func:`min_profile_ratio` of every row of ``rows`` against ``target``.

    ``rows`` stacks source weight vectors along its last axis; ``target``
    is one weight vector, or a stack whose leading axes broadcast against
    those of ``rows`` (one target per row).  All vectors are zero-padded
    to a common length, and the result has the leading shape of the
    broadcast.  The tail-sum ratios form one depth-major array (depth on
    the first axis): +inf at a depth where the target tail vanishes, 0.0
    where a live target tail meets a vanishing source tail.  Its minimum,
    with 1.0 as the initial value, runs over whole contiguous depth rows
    rather than one short row per vector.  Every entry equals a one-row
    evaluation bit for bit.

    This is the unchecked batch kernel of the hot paths: it validates
    nothing, and a NaN or negative entry passes through to the result.
    :func:`min_profile_ratio` is the checked entry point.
    """
    rows = np.asarray(rows, dtype=float)
    target = np.asarray(target, dtype=float)
    width = max(rows.shape[-1], target.shape[-1])
    rank = max(rows.ndim, target.ndim)
    # both stacks get the broadcast's rank behind the depth axis
    src, tgt = (_tail_sums(v, width).reshape((width,) + (1,) * (rank - v.ndim) + v.shape[:-1])
                for v in (rows, target))
    live = tgt > SUPPORT_TOL
    ratios = np.divide(src, tgt, out=np.full(np.broadcast(src, tgt).shape, np.inf), where=live)
    np.copyto(ratios, 0.0, where=live & (src <= SUPPORT_TOL))
    return ratios.min(axis=0, initial=1.0)


def min_profile_ratio(source_weights, target_weights) -> float:
    """Smallest tail-sum ratio C_l(source)/C_l(target) over all depths.

    Profiles are zero-padded to a common length.  Depths where the target
    tail vanishes are skipped (ratio +inf); a vanishing source tail against
    a positive target tail pins the result to 0.  Result lies in [0, 1]
    whenever both inputs are unit-sum.  Each input must be a nonempty 1-d
    vector of finite nonnegative numbers; anything else is a
    ValidationError.  This is :func:`min_profile_ratios` on one row.
    """
    source = _checked_vector(source_weights, "source weight vector")
    target = _checked_vector(target_weights, "target weight vector")
    return float(min_profile_ratios([source], target)[0])


def _checked_vector(weights, what: str) -> np.ndarray:
    """``weights`` as a nonempty 1-d float array of finite nonnegative entries."""
    w = _as_array(weights, float, what)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError(f"expected a nonempty 1-d {what}, got shape {w.shape}")
    require_finite(w, what)
    if w.min() < 0.0:
        raise ValidationError(f"negative weight {float(w.min())!r}")
    return w


def majorizes(p, q, *, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff ``p`` is majorized by ``q`` (written p < q).

    Checks that every descending-order partial sum of ``p``, divided by
    p's total, is at most the matching partial sum of ``q`` divided by q's
    total, within ``tol``; vectors are zero-padded to a common length and
    must be valid distributions.  A valid total is 1 only within
    TRACE_TOL, so two of them may differ by more than ``tol``; each vector
    is read relative to its own.
    """
    pw, qw = _padded_rows([as_distribution(p), as_distribution(q)])
    ps, qs = (np.cumsum(np.sort(w)[::-1]) for w in (pw, qw))
    return bool(np.all(ps / ps[-1] <= qs / qs[-1] + tol))


def tensor(p, q) -> np.ndarray:
    """Product distribution: all pairwise products, row-major order."""
    pw = as_distribution(p)
    qw = as_distribution(q)
    return np.outer(pw, qw).ravel()


def _power_mean_special(row: np.ndarray, lo: float, hi: float, alpha: float, m: float) -> float:
    """A_alpha(row) where the generic root does not apply; ``m`` is the mean of powers."""
    if math.isinf(alpha):
        return hi if alpha > 0 else lo
    if abs(alpha) <= GEOMETRIC_ORDER_TOL:
        return 0.0 if lo <= 0.0 else float(np.exp(np.mean(np.log(row))))
    if alpha < 0.0:
        if lo <= 0.0:
            return 0.0
        # the mean overflowed or underflowed to 0; (w / w_min)^alpha lies
        # in (0, 1] with one entry 1, so this mean lies in [1/n, 1]
        return lo * float(np.mean((row / lo) ** alpha)) ** (1.0 / alpha)
    if hi <= 0.0:
        return 0.0
    # the mean overflowed or underflowed to 0; (w / w_max)^alpha lies in
    # [0, 1] with one entry 1, so this mean lies in [1/n, 1]
    return hi * float(np.mean((row / hi) ** alpha)) ** (1.0 / alpha)


def _power_means_kernel(rows: np.ndarray, lows, highs, orders: np.ndarray) -> list[list[float]]:
    """Power means of checked rows, without validation, as one list per row.

    ``rows`` is a finite nonnegative 2-d stack, ``lows`` and ``highs``
    its row minima and maxima as floats, and ``orders`` a 1-d array of
    orders; row i of the result holds A_alpha(rows[i]) at every order.
    """
    n = rows.shape[1]
    # the exponent keeps stride 0 along each row, as a scalar exponent has
    with np.errstate(over="ignore", divide="ignore"):
        means = (np.add.reduce(rows[:, None, :] ** orders[:, None], axis=-1) / n).tolist()
    alphas = orders.tolist()
    inf = math.inf
    return [
        [m ** (1.0 / a) if 0.0 < m < inf and GEOMETRIC_ORDER_TOL < abs(a) < inf
         else _power_mean_special(row, lo, hi, a, m)
         for a, m in zip(alphas, row_means)]
        for row, lo, hi, row_means in zip(rows, lows, highs, means)
    ]


def power_mean(weights, alpha: float) -> float:
    """Power mean A_alpha(w) = (mean(w_i^alpha))^(1/alpha) of one vector.

    Analytic continuations: |alpha| <= GEOMETRIC_ORDER_TOL is the
    geometric mean, alpha=+inf the maximum entry, alpha=-inf the minimum
    entry.  Any zero entry makes A_alpha = 0 for every alpha <= 0.  The
    averaging dimension is the full vector length including zero padding.
    A mean of powers that overflows (or underflows to 0) is taken again
    relative to the smallest entry for alpha < 0,
    w_min * mean((w / w_min)^alpha)^(1/alpha),
    and relative to the largest entry for alpha > 0,
    w_max * mean((w / w_max)^alpha)^(1/alpha).  ``weights`` must be a
    nonempty 1-d vector of finite nonnegative numbers and ``alpha`` a
    number that is not NaN; anything else is a ValidationError.
    """
    w = _checked_vector(weights, "weight vector")
    orders = _as_array([alpha], float, "power-mean orders")
    if orders.ndim != 1:
        raise ValidationError(f"expected one power-mean order, got {alpha!r}")
    if np.isnan(orders).any():
        raise ValidationError("power-mean order is NaN")
    return _power_means_kernel(w[None], [float(w.min())], [float(w.max())], orders)[0][0]


def shannon_entropy(weights) -> float:
    """Shannon entropy in nats with the 0*log(0) = 0 convention.

    ``weights`` must be a nonempty 1-d vector of finite nonnegative
    numbers; anything else is a ValidationError.
    """
    w = _checked_vector(weights, "weight vector")
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())
