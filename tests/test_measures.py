import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import (
    ALPHAS_ABOVE_ONE,
    ALPHAS_BELOW_ONE,
    PureStateVector,
    ValidationError,
    majorizes,
    min_profile_ratio,
    power_mean,
    shannon_entropy,
    tensor,
)
from cohdist import measures
from reference_oracles import coherence_rank, suffix_profile

# distributions with a controllable number of slots; entries are either
# exactly zero or bounded away from it, so tail ratios stay well conditioned
weight_vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
        min_size=d,
        max_size=d,
    ).filter(lambda w: sum(w) > 1e-3)
).map(lambda w: np.array(w) / np.sum(w))


def test_suffix_profile_known():
    prof = suffix_profile(np.array([0.5, 0.3, 0.2]))
    assert np.allclose(prof, [1.0, 0.5, 0.2])


@given(weight_vectors)
@settings(max_examples=200, deadline=None)
def test_suffix_profile_invariants(w):
    prof = suffix_profile(w)
    assert prof[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(prof) <= 1e-12)
    assert np.all(prof >= -1e-12)


def test_coherence_rank_counts_support():
    psi = PureStateVector(np.array([np.sqrt(0.5), 0, np.sqrt(0.5)], dtype=complex))
    assert coherence_rank(psi) == 2


def test_min_profile_ratio_worked_value():
    # tail sums: (1, .5, .24) over (1, .6, .25) -> min at the middle depth
    r = min_profile_ratio(np.array([0.5, 0.26, 0.24]), np.array([0.4, 0.35, 0.25]))
    assert r == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_min_profile_ratio_rank_deficit_is_zero():
    r = min_profile_ratio(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert r == 0.0


def test_min_profile_ratio_skips_exhausted_target_depths():
    # target rank 2 inside dimension 3: depth 2 has zero target tail
    r = min_profile_ratio(np.array([0.4, 0.3, 0.3]), np.array([0.5, 0.5, 0.0]))
    assert r == pytest.approx(min(1.0, 0.6 / 0.5), abs=1e-12) == 1.0


@given(weight_vectors, weight_vectors)
@settings(max_examples=200, deadline=None)
def test_min_profile_ratio_bounds(p, q):
    r = min_profile_ratio(p, q)
    assert 0.0 <= r <= 1.0


@given(weight_vectors)
@settings(max_examples=100, deadline=None)
def test_min_profile_ratio_reflexive(w):
    assert min_profile_ratio(w, w) == pytest.approx(1.0, abs=1e-12)


@given(weight_vectors, weight_vectors)
@settings(max_examples=200, deadline=None)
def test_unit_ratio_matches_majorization(p, q):
    # full conversion is possible exactly when p is majorized by q; the
    # premise uses zero slack because an absolute prefix tolerance says
    # nothing about the relative size of a tiny tail shortfall
    r = min_profile_ratio(p, q)
    if majorizes(p, q, tol=0.0):
        assert r >= 1.0 - 1e-9
    if r >= 1.0 - 1e-12:
        assert majorizes(p, q, tol=1e-8)


def _reference_min_profile_ratio(source, target) -> float:
    """The scalar depth loop the batched kernel replaced, kept as the reference."""
    n = max(len(source), len(target))
    p, q = np.zeros(n), np.zeros(n)
    p[:len(source)], q[:len(target)] = source, target
    best = 1.0
    for a, b in zip(suffix_profile(p), suffix_profile(q)):
        if b <= 1e-12:
            continue
        if a <= 1e-12:
            return 0.0
        best = min(best, a / b)
    return float(min(1.0, max(0.0, best)))


def test_min_profile_ratios_equal_the_scalar_loop():
    rng = np.random.default_rng(77)
    for _ in range(300):
        target = rng.dirichlet(np.ones(int(rng.integers(1, 7))) * rng.choice([0.2, 1.0, 5.0]))
        rows = []
        for _ in range(int(rng.integers(1, 6))):
            row = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
            row[rng.random(row.size) < 0.2] = 0.0        # zeros, also whole tails
            if rng.random() < 0.3:
                row[rng.integers(row.size)] = 3e-13      # an entry below SUPPORT_TOL
            if rng.random() < 0.2:
                row[:] = row[0]                          # ties
            rows.append(row)
        width = max(r.size for r in rows)
        stack = np.array([np.r_[r, np.zeros(width - r.size)] for r in rows])
        got = measures.min_profile_ratios(stack, target).tolist()
        assert got == [_reference_min_profile_ratio(r, target) for r in rows]
        assert [min_profile_ratio(r, target) for r in rows] == got
        # one target per row broadcasts against a leading axis of sources
        per_row = measures.min_profile_ratios(stack[None, :, :], np.array([target] * len(rows)))
        assert per_row.tolist() == [got]


def test_min_profile_ratios_edge_shapes():
    # no depth at all: every ratio is the empty minimum, 1
    assert measures.min_profile_ratios(np.zeros((2, 0)), np.zeros(0)).tolist() == [1.0, 1.0]
    # no rows: an empty result
    assert measures.min_profile_ratios(np.zeros((0, 3)), [0.5, 0.5]).shape == (0,)
    # one 1-d row: a 0-d result
    one = measures.min_profile_ratios([0.5, 0.26, 0.24], [0.4, 0.35, 0.25])
    assert np.shape(one) == () and float(one) == min_profile_ratio([0.5, 0.26, 0.24],
                                                                   [0.4, 0.35, 0.25])
    # a 3-d stack against one target per row keeps its leading shape
    rng = np.random.default_rng(8)
    stack = rng.dirichlet(np.ones(4), size=(2, 3))
    targets = rng.dirichlet(np.ones(3), size=3)
    got = measures.min_profile_ratios(stack, targets)
    assert got.shape == (2, 3)
    assert got.tolist() == [[min_profile_ratio(stack[i, j], targets[j]) for j in range(3)]
                            for i in range(2)]
    # enough rows to add the tail sums one depth at a time: the same bits
    many = rng.dirichlet(np.ones(6), size=300)
    many[::7, 3:] = 0.0
    assert measures.min_profile_ratios(many, targets[0]).tolist() == [
        min_profile_ratio(row, targets[0]) for row in many]
    # a pinned ratio is +0.0, also where the vanishing source tail is -0.0
    pinned = measures.min_profile_ratios([[1.0, -0.0], [1.0, 0.0]], [0.5, 0.5])
    assert pinned.tolist() == [0.0, 0.0]
    assert not np.signbit(pinned).any()


def test_majorizes_uniform_is_bottom():
    u = np.ones(4) / 4
    assert majorizes(u, np.array([0.7, 0.1, 0.1, 0.1]))
    assert not majorizes(np.array([0.7, 0.1, 0.1, 0.1]), u)


@given(weight_vectors)
@settings(max_examples=100, deadline=None)
def test_majorizes_reflexive(w):
    assert majorizes(w, w)


@given(weight_vectors, weight_vectors)
@settings(max_examples=100, deadline=None)
def test_tensor_is_a_distribution(p, q):
    t = tensor(p, q)
    assert t.size == p.size * q.size
    assert t.sum() == pytest.approx(1.0, abs=1e-9)


def test_tensor_known():
    t = tensor(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert np.allclose(sorted(t, reverse=True), [0.45, 0.45, 0.05, 0.05])


def test_power_mean_special_orders():
    w = np.array([0.5, 0.3, 0.2])
    assert power_mean(w, math.inf) == pytest.approx(0.5)
    assert power_mean(w, -math.inf) == pytest.approx(0.2)
    assert power_mean(w, 0.0) == pytest.approx((0.5 * 0.3 * 0.2) ** (1 / 3))
    assert power_mean(w, 1.0) == pytest.approx(1.0 / 3.0)


def test_power_mean_zero_entries():
    w = np.array([0.5, 0.5, 0.0])
    assert power_mean(w, 0.0) == 0.0
    assert power_mean(w, -1.0) == 0.0
    assert power_mean(w, -math.inf) == 0.0
    assert power_mean(w, 2.0) > 0.0


def _scalar_power_mean(w, alpha):
    """One vector at one order: numpy powers and mean, then a float root."""
    w = np.asarray(w, dtype=float)
    if math.isinf(alpha):
        return float(w.max()) if alpha > 0 else float(w.min())
    if abs(alpha) <= 1e-8:
        return 0.0 if w.min() <= 0.0 else float(np.exp(np.mean(np.log(w))))
    if alpha < 0.0 and w.min() <= 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        m = float(np.mean(w ** alpha))
    return float(m ** (1.0 / alpha))


def _kernel(rows, alphas) -> np.ndarray:
    """Power means of every row at every order, through the gates' kernel."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lows, highs = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
    return np.array(measures._power_means_kernel(rows, lows, highs, np.array(alphas, dtype=float)))


def test_power_means_equal_the_scalar_evaluation():
    rng = np.random.default_rng(11)
    below, above = ALPHAS_BELOW_ONE, ALPHAS_ABOVE_ONE
    special = [-math.inf, -1e-9, 0.0, 1e-9, 1.0, math.inf]
    for n in (1, 2, 3, 5, 8, 9, 16, 17, 33, 130):   # sums go pairwise from 8 entries
        rows = 0.5 * rng.dirichlet(np.ones(n), size=4) + 0.5 / n
        rows[3, rng.integers(n)] = 0.0                 # a zero entry
        alphas = [*below, *above, *special, *rng.uniform(-40.0, 40.0, 30)]
        got = _kernel(rows, alphas)
        assert got.shape == (4, len(alphas))
        want = [[_scalar_power_mean(row, a) for a in alphas] for row in rows]
        assert got.tolist() == want, n
        assert _kernel(rows[1], alphas)[0].tolist() == want[1]
        assert [power_mean(rows[3], a) for a in alphas] == want[3]
        # numpy squares, roots and inverts a scalar exponent 2, 0.5, -1 by
        # its own shortcuts, which may differ from the power in the last bit
        for alpha in (2.0, 0.5, -1.0):
            for row, value in zip(rows, _kernel(rows, [alpha])[:, 0]):
                scalar = _scalar_power_mean(row, alpha)
                assert abs(value - scalar) <= np.spacing(scalar), (n, alpha)


def test_power_mean_survives_overflowing_powers():
    w = np.array([0.4, 0.4, 0.1, 0.1 - 1e-8, 1e-8])
    for alpha in (-40.0, -25.0, -5.0):
        logs = alpha * np.log(w)
        top = logs.max()
        want = math.exp((top + math.log(np.mean(np.exp(logs - top)))) / alpha)
        assert power_mean(w, alpha) == pytest.approx(want, rel=1e-12)
    assert power_mean(w, -40.0) > power_mean(w, -math.inf) == 1e-8
    # powers that underflow to 0 take the same path instead of dividing by 0
    assert power_mean([1e300, 1e300], -2.0) == pytest.approx(1e300, rel=1e-12)


def test_power_mean_rescales_positive_orders_at_the_largest_entry():
    # the mean of powers overflows (or underflows to 0) although A_alpha is finite
    assert power_mean([1e300, 1e300], 2.0) == 1e300
    assert _kernel([[1e300, 1e300], [1e200, 0.0]], [2.0, 40.0])[0].tolist() == [1e300, 1e300]
    assert power_mean([1e-200, 0.0], 2.0) == pytest.approx(1e-200 / math.sqrt(2.0), rel=1e-15)
    assert power_mean([1e200, 0.0], 4.0) == pytest.approx(1e200 / 2.0 ** 0.25, rel=1e-15)
    assert power_mean([0.0, 0.0], 2.0) == 0.0


def test_power_mean_rejects_non_finite_input():
    with pytest.raises(ValidationError):
        power_mean([0.5, math.nan], 2.0)
    with pytest.raises(ValidationError):
        power_mean([math.nan, 1.0], 1.0)
    with pytest.raises(ValidationError):
        power_mean([0.5, 0.5], math.nan)
    with pytest.raises(ValidationError):
        power_mean([0.5, math.inf], 1.0)
    with pytest.raises(ValidationError, match="not a numeric array"):
        power_mean(["a"], 1.0)
    with pytest.raises(ValidationError, match="one power-mean order"):
        power_mean([0.5, 0.5], [[1.0]])
    with pytest.raises(ValidationError, match="nonempty 1-d weight vector"):
        power_mean([], 1.0)
    with pytest.raises(ValidationError, match="negative weight"):
        power_mean([-1.0, 2.0], 1.0)
    for stacked in ([[0.5, 0.5]], np.full((1, 2, 2), 0.25)):
        with pytest.raises(ValidationError, match="nonempty 1-d weight vector"):
            power_mean(stacked, 1.0)


@given(weight_vectors, st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_power_mean_monotone_in_order(w, alpha):
    lo = power_mean(w, alpha)
    hi = power_mean(w, alpha + 0.5)
    assert lo <= hi + 1e-9


@pytest.mark.parametrize("source, target", [
    ([math.nan, 1.0], [1.0]),
    ([1.0], [math.inf]),
    ([-1.0, 2.0], [1.0]),
    ([1.0], [2.0, -1.0]),
    (1.0, [1.0]),
    ("ab", [1]),
    ([], [1.0]),
    ([[0.5, 0.5]], [1.0]),
])
def test_min_profile_ratio_refuses_what_is_not_a_finite_nonnegative_vector(source, target):
    with pytest.raises(ValidationError):
        min_profile_ratio(source, target)


@pytest.mark.parametrize("weights, alpha", [(["a"], 2.0), ([0.5, 0.5], "x")])
def test_power_mean_refuses_non_numeric_input(weights, alpha):
    with pytest.raises(ValidationError, match="not a numeric array"):
        power_mean(weights, alpha)


def test_shannon_entropy_refuses_non_numeric_input():
    with pytest.raises(ValidationError, match="not a numeric array"):
        shannon_entropy(["a", 0.5])


def test_shannon_entropy_known_values():
    assert shannon_entropy(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert shannon_entropy(np.ones(3) / 3) == pytest.approx(math.log(3), abs=1e-12)
    # frozen reference for the canonical catalysis source profile
    assert shannon_entropy(np.array([0.4, 0.4, 0.1, 0.1])) == pytest.approx(
        1.1935496040981333, abs=1e-12
    )


@given(weight_vectors)
@settings(max_examples=100, deadline=None)
def test_shannon_entropy_bounds(w):
    s = shannon_entropy(w)
    assert -1e-12 <= s <= math.log(w.size) + 1e-12


def test_shannon_entropy_rejects_nan():
    with pytest.raises(ValidationError):
        shannon_entropy([0.5, math.nan])
    with pytest.raises(ValidationError, match="nonempty 1-d weight vector"):
        shannon_entropy([[0.5, 0.5]])
    with pytest.raises(ValidationError, match="negative weight -0.5"):
        shannon_entropy([1.5, -0.5])
