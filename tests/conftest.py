import numpy as np
import pytest

from cohdist import DensityMatrix, PureStateVector, StrictlyIncoherentKraus, validate_density
import reference_oracles


@pytest.fixture
def witness_pair():
    """Pure pair where no single operator reaches the optimum."""
    psi = PureStateVector.from_probabilities(np.array([0.5, 0.26, 0.24]))
    phi = PureStateVector.from_probabilities(np.array([0.4, 0.35, 0.25]))
    return psi, phi


@pytest.fixture
def canonical_catalysis_pair():
    """4-level pair with baseline 0.8 and a known qubit catalyst."""
    psi = PureStateVector.from_probabilities(np.array([0.4, 0.4, 0.1, 0.1]))
    phi = PureStateVector.from_probabilities(np.array([0.5, 0.25, 0.25, 0.0]))
    return psi, phi


@pytest.fixture
def block_mixture():
    """0.5 weight on a pure qubit section, 0.5 on an isolated level."""
    v = np.zeros(3, dtype=complex)
    v[0], v[1] = np.sqrt(0.9), np.sqrt(0.1)
    mat = 0.5 * np.outer(v, v.conj()) + 0.5 * np.diag([0.0, 0.0, 1.0])
    return validate_density(mat)


@pytest.fixture
def uniform_qubit_target():
    return PureStateVector(np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2))


@pytest.fixture
def overlapping_state():
    """Three levels whose unit graph is the path 0 - 1 - 2: one component, not a clique."""
    return reference_oracles.overlapping_state()


@pytest.fixture
def stack_calls(monkeypatch):
    """A list that gets the branch count of every StrictlyIncoherentKraus._stack call."""
    counts = []
    stack = StrictlyIncoherentKraus._stack.__func__

    def counted(cls, count, *args):
        counts.append(count)
        return stack(cls, count, *args)

    monkeypatch.setattr(StrictlyIncoherentKraus, "_stack", classmethod(counted))
    return counts


def make_density(mat) -> DensityMatrix:
    return validate_density(np.asarray(mat, dtype=complex))
