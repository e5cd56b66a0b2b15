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
from cohdist.states import positive_diagonal_indices, support_profile
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
