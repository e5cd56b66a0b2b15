import math
import re

import numpy as np
import pytest

from cohdist import (
    DensityMatrix,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    PureStateVector,
    StrictlyIncoherentKraus,
    TraceNotOneError,
    ValidationError,
    as_distribution,
    validate_density,
)
from cohdist import states
from cohdist.states import PSD_FLOOR, positive_diagonal_indices, support_profile
from reference_oracles import dephase


def test_accepts_valid_density():
    rho = validate_density(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert rho.dim == 2
    assert np.allclose(rho.diagonal(), [0.5, 0.5])


def test_rejects_non_square():
    with pytest.raises(NonSquareError):
        validate_density(np.ones((2, 3)) / 3)


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_density(np.array([[0.5, 0.4], [0.1, 0.5]]))


def test_rejects_negative_eigenvalue_and_reports_it():
    mat = np.array([[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(NotPSDError) as err:
        validate_density(mat)
    assert err.value.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)


def test_rejects_wrong_trace():
    with pytest.raises(TraceNotOneError):
        validate_density(np.diag([0.7, 0.7]))


def test_symmetrizes_rounding_noise():
    mat = np.array([[0.5, 0.3 + 2e-11], [0.3 - 2e-11, 0.5]], dtype=complex)
    rho = validate_density(mat)
    assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=0)


def test_density_matrix_is_read_only():
    rho = validate_density(np.diag([0.4, 0.6]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError):
        PureStateVector(np.array([0.5, 0.5], dtype=complex))
    with pytest.raises(ValidationError, match="nonempty 1-d vector"):
        PureStateVector([])


def test_pure_state_support_ignores_dead_levels():
    psi = PureStateVector(np.array([np.sqrt(0.7), 0.0, np.sqrt(0.3)], dtype=complex))
    assert support_profile(psi.probabilities())[0].tolist() == [0, 2]


def test_sorted_support_breaks_ties_by_index():
    psi = PureStateVector.from_probabilities(np.array([0.25, 0.5, 0.25]))
    assert support_profile(psi.probabilities())[0].tolist() == [1, 0, 2]


def test_from_probabilities_round_trip():
    w = np.array([0.1, 0.6, 0.3])
    psi = PureStateVector.from_probabilities(w)
    assert np.allclose(psi.probabilities(), w)


def test_from_pure_builds_projector():
    psi = PureStateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    rho = DensityMatrix.from_pure(psi)
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))


def test_dephase_strips_off_diagonals():
    rho = validate_density(np.full((2, 2), 0.5))
    assert np.allclose(dephase(rho).matrix, np.diag([0.5, 0.5]))


def test_positive_diagonal_indices_skips_zero_population():
    rho = validate_density(np.diag([0.5, 0.0, 0.5]))
    assert positive_diagonal_indices(rho) == (0, 2)


def test_as_distribution_normalizes_and_validates():
    w = as_distribution(np.array([0.2, 0.8]))
    assert w.sum() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        as_distribution(np.array([0.5, -0.2, 0.7]))
    with pytest.raises(ValidationError):
        as_distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError, match="1-d weight vector"):
        as_distribution([[0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_density_rejects_non_finite_entries(bad):
    mat = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    mat[0, 0] = bad
    with pytest.raises(ValidationError):
        validate_density(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValidationError):
        PureStateVector(np.array([bad, 1.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_as_distribution_rejects_non_finite_weights(bad):
    with pytest.raises(ValidationError):
        as_distribution([bad, 1.0])


@pytest.mark.parametrize("build, raw, message", [
    (validate_density, np.zeros((0, 0)), "nonempty square matrix"),
    (validate_density, [[1, 2], [3]], "matrix is not a numeric array"),
    (validate_density, [["a"]], "matrix is not a numeric array"),
    (PureStateVector, ["x"], "amplitude vector is not a numeric array"),
    (PureStateVector, [[1], [0, 1]], "amplitude vector is not a numeric array"),
    (as_distribution, ["a"], "weight vector is not a numeric array"),
    (StrictlyIncoherentKraus.from_matrix, [[0, 1], [1]], "Kraus matrix is not a numeric array"),
])
def test_malformed_arrays_are_validation_errors(build, raw, message):
    # numpy's own conversion errors are ValueError or TypeError, not CohdistError
    with pytest.raises(ValidationError, match=message):
        build(raw)


@pytest.mark.parametrize("amps, squared", [
    ([1e308, -1e308], "inf"),
    ([1.7e308, 1.7e308j], "inf"),
    ([3 * 2.0**660, 4j * 2.0**660], "inf"),
    ([3 * 2.0**500, 4j * 2.0**500], repr(25 * 2.0**1000)),
])
def test_norm_of_huge_amplitudes_does_not_overflow(amps, squared):
    # pytest turns numpy's overflow warning into an error; a squared norm
    # past the float range is reported as inf
    message = f"squared vector norm is {squared}, expected 1 within 1e-10"
    with pytest.raises(TraceNotOneError, match=re.escape(message)):
        PureStateVector(np.array(amps, dtype=complex))


def test_norm_equals_the_unscaled_norm():
    # near 1 the power-of-two scaling changes no bit: the verdict at the
    # 1e-10 edge and the message both read the unscaled squared norm
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v *= (1.0 + float(rng.choice([0.0, 5e-11, 2e-10]))) / np.linalg.norm(v)
        squared = float((v * v.conj()).sum().real)
        if abs(squared - 1.0) <= 1e-10:
            PureStateVector(v)
        else:
            with pytest.raises(TraceNotOneError) as exc:
                PureStateVector(v)
            assert str(exc.value) == f"squared vector norm is {squared!r}, expected 1 within 1e-10"


def test_the_message_prints_the_squared_norm_the_check_compares():
    # the norm 1 + 7.5e-11 reads as inside the 1e-10 tolerance; the squared
    # norm 1 + 1.5e-10, which the check compares, does not
    with pytest.raises(TraceNotOneError) as exc:
        PureStateVector(np.array([1.000000000075, 0, 0], dtype=complex))
    assert str(exc.value) == "squared vector norm is 1.00000000015, expected 1 within 1e-10"


def test_pure_state_and_from_pure_accept_the_same_vectors():
    # the unit-norm check reads the squared norm, the trace from_pure checks;
    # a norm check refused at |norm - 1| > 1e-10, so vectors with squared
    # norms within 2e-10 of 1 passed here and failed as sources
    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v *= np.sqrt(1.0 + rng.uniform(-3e-10, 3e-10)) / np.linalg.norm(v)
        try:
            psi = PureStateVector(v)
        except TraceNotOneError:
            psi = None
        try:
            DensityMatrix(np.outer(v, v.conj()))   # what from_pure builds
            as_source = True
        except TraceNotOneError:
            as_source = False
        assert (psi is not None) == as_source, v
        if psi is not None:
            DensityMatrix.from_pure(psi)
        verdicts.add(as_source)
    assert verdicts == {True, False}
    with pytest.raises(TraceNotOneError):
        PureStateVector([1.000000000075, 0, 0])


# ------------------------------------------------- PSD check block by block


def _sizes(dim, singletons):
    """``singletons`` blocks of size 1, then sizes 2, 3, 4, 2, ... filling ``dim`` levels."""
    sizes = [1] * singletons
    while sum(sizes) < dim:
        sizes.append(min(2 + len(sizes) % 3, dim - sum(sizes)))
    return sizes


def _blocks(rng, sizes, rank=None):
    """Trace-1 direct sum of random PSD blocks of ``sizes`` on shuffled levels.

    Each block is a sum of ``rank`` (default: a random rank) per-block outer
    products.  Returns the matrix and the blocks' level arrays.
    """
    dim = sum(sizes)
    perm = rng.permutation(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    blocks, at = [], 0
    for w, size in zip(rng.dirichlet(np.ones(len(sizes))), sizes):
        idx = perm[at:at + size]
        at += size
        r = rank or int(rng.integers(1, size + 1))
        g = rng.normal(size=(size, r)) + 1j * rng.normal(size=(size, r))
        block = g @ g.conj().T
        mat[np.ix_(idx, idx)] = w * block / np.trace(block).real
        blocks.append(idx)
    return mat, blocks


def _spoil(mat, idx, depth):
    """``mat`` with eigenvalue -``depth`` in the block on ``idx`` (two levels or more).

    The block's lowest eigenvalue moves to -``depth`` and its top eigenvalue
    rises by as much, so the trace is kept.
    """
    bad = mat.copy()
    vals, vecs = np.linalg.eigh(mat[np.ix_(idx, idx)])
    low = vecs[:, 0]
    bad[np.ix_(idx, idx)] += -(vals[0] + depth) * np.outer(low, low.conj())
    bad[np.ix_(idx, idx)] += (vals[0] + depth) * np.outer(vecs[:, -1], vecs[:, -1].conj())
    return bad


def test_psd_is_checked_one_stack_per_block_size(monkeypatch):
    # a benchmark-shaped block state: no eigvalsh call sees more than the
    # largest block, and each block size takes one call
    rng = np.random.default_rng(256)
    sizes = _sizes(256, 14)
    mat, _ = _blocks(rng, sizes, rank=1)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    validate_density(mat)
    assert shapes
    assert max(s[-1] for s in shapes) <= max(sizes)
    assert len({s[-1] for s in shapes}) == len(shapes)
    assert all(s[-2:] == (s[-1], s[-1]) for s in shapes)


def test_one_block_covering_every_level_takes_one_dense_call(monkeypatch):
    rng = np.random.default_rng(7)
    dim = states.DENSE_PSD_MAX_DIM + 9
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    validate_density(np.outer(v, v.conj()))
    assert shapes == [(dim, dim)]


def test_a_non_psd_block_among_psd_blocks_is_refused():
    rng = np.random.default_rng(11)
    dim = states.DENSE_PSD_MAX_DIM + 24
    mat, blocks = _blocks(rng, _sizes(dim, 5))
    bad = _spoil(mat, blocks[-2], 1e-4)
    with pytest.raises(NotPSDError) as err:
        validate_density(bad)
    dense = np.linalg.eigvalsh(0.5 * (bad + bad.conj().T)).min()
    assert abs(err.value.min_eigenvalue - dense) <= 1e-12
    assert err.value.min_eigenvalue == pytest.approx(-1e-4, rel=1e-9)


def test_a_coherence_on_an_empty_level_is_refused():
    # rho_ii = 0 with rho_ij != 0: the 2 x 2 block [[0, c], [c, p]] has a negative eigenvalue
    rng = np.random.default_rng(12)
    dim = states.DENSE_PSD_MAX_DIM + 8
    mat, blocks = _blocks(rng, _sizes(dim, 6))
    (i,), (j,) = blocks[0], blocks[1]
    mat[j, j] += mat[i, i]
    mat[i, i] = 0.0
    mat[i, j] = mat[j, i] = 1e-3
    with pytest.raises(NotPSDError) as err:
        validate_density(mat)
    assert err.value.min_eigenvalue < -1e-7


@pytest.mark.parametrize("spoiled", [False, True])
def test_verdicts_match_on_both_sides_of_the_dense_threshold(spoiled):
    # one layout at d = threshold (one dense call) and with one empty level more (blocks)
    rng = np.random.default_rng(13)
    dim = states.DENSE_PSD_MAX_DIM
    mat, blocks = _blocks(rng, _sizes(dim, 4))
    if spoiled:
        mat = _spoil(mat, blocks[5], 3e-6)
    wider = np.zeros((dim + 1, dim + 1), dtype=complex)
    wider[:dim, :dim] = mat
    lows = []
    for m in (mat, wider):
        try:
            validate_density(m)
            lows.append(None)
        except NotPSDError as err:
            lows.append(err.min_eigenvalue)
    if spoiled:
        assert lows[0] == pytest.approx(-3e-6, rel=1e-9)
        assert abs(lows[0] - lows[1]) <= 1e-12
    else:
        assert lows == [None, None]


def test_a_huge_coherence_in_one_block_is_refused_without_a_warning():
    # the eigenvalues of [[a, 1e300], [1e300, b]] are about +-1e300; warnings are errors here
    rng = np.random.default_rng(14)
    for dim in (states.DENSE_PSD_MAX_DIM, states.DENSE_PSD_MAX_DIM + 16):
        mat, blocks = _blocks(rng, _sizes(dim, 3))
        i, j = blocks[3][:2]
        mat[i, j] = mat[j, i] = 1e300
        with pytest.raises(NotPSDError) as err:
            validate_density(mat)
        assert err.value.min_eigenvalue == pytest.approx(-1e300, rel=1e-9)


def test_an_overflowing_block_is_refused_as_nan():
    # 1e308 + 1e308 overflows in the symmetrization; the block's NaN
    # eigenvalue is the minimum, whichever block size comes last
    rng = np.random.default_rng(15)
    dim = states.DENSE_PSD_MAX_DIM + 16
    mat, blocks = _blocks(rng, _sizes(dim, 3))
    i, j = blocks[3][:2]
    mat[i, j] = mat[j, i] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotPSDError) as err:
        validate_density(mat)
    assert math.isnan(err.value.min_eigenvalue)


def _diagonal_with_huge_pair(dim, levels):
    """A diagonal state of ``dim`` equal populations with a 1e308 coherence on
    ``levels[:2]``; a third level joins their block through a small coherence."""
    mat = np.diag(np.full(dim, 1.0 / dim)).astype(complex)
    i, j, *rest = levels
    mat[i, j] = mat[j, i] = 1e308
    for k in rest:
        mat[j, k] = mat[k, j] = 0.01 / dim
    return mat


@pytest.mark.parametrize("dim, levels", [
    (3, (0, 1)),                                       # dense
    (8, (2, 5)),                                       # dense
    (states.DENSE_PSD_MAX_DIM + 8, (3, 17)),           # a 2-level block
    (states.DENSE_PSD_MAX_DIM + 8, (3, 17, 20)),       # a 3-level block
])
def test_an_overflowing_coherence_is_refused_as_nan_without_a_warning(dim, levels):
    # 1e308 + 1e308 overflows in the symmetrization; eigvalsh does not
    # converge on a dense matrix or block of three or more levels and returns
    # NaN on two, and either way the refusal is NotPSDError with a NaN
    # eigenvalue; warnings are errors here
    with pytest.raises(NotPSDError) as err:
        validate_density(_diagonal_with_huge_pair(dim, levels))
    assert math.isnan(err.value.min_eigenvalue)


def test_block_minima_equal_the_dense_minimum():
    # about 200 seeded block and mixture states across the dense threshold;
    # the spectra are on a trace-1 scale, so 1e-12 is relative to it
    rng = np.random.default_rng(16)
    cases = []
    for dim in [*range(30, 51), 64, 96, 128, 256] * 8 + [512, 1024]:
        sizes = _sizes(dim, int(rng.integers(0, dim // 4 + 1)))
        mat, blocks = _blocks(rng, sizes)
        if rng.random() < 0.3:
            # a mixture on some levels: a larger component beside the blocks
            idx = np.concatenate(blocks[-4:])
            g = rng.normal(size=(idx.size, 2)) + 1j * rng.normal(size=(idx.size, 2))
            mix = g @ g.conj().T
            mat[np.ix_(idx, idx)] = mix * np.trace(mat[np.ix_(idx, idx)]).real / np.trace(mix).real
        if rng.random() < 0.5:
            wide = [b for b in blocks if b.size > 1]
            mat = _spoil(mat, wide[int(rng.integers(len(wide)))], 10 ** rng.uniform(-9, -2))
        cases.append(mat)
    for dim in (36, 48, 80):
        v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mix = v @ v.conj().T
        cases.append(mix / np.trace(mix).real)
    verdicts = set()
    for mat in cases:
        sym = 0.5 * (mat + mat.conj().T)
        want = np.linalg.eigvalsh(sym).min()
        assert abs(states._min_eigenvalue(sym) - want) <= 1e-12
        try:
            validate_density(mat)
            accepted = True
        except NotPSDError:
            accepted = False
        assert accepted == (want >= PSD_FLOOR)
        verdicts.add(accepted)
    assert len(cases) >= 200 and verdicts == {True, False}
