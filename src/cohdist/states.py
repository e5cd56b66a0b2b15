"""State containers and validation for the fixed incoherent basis.

Everything downstream works in one fixed orthonormal basis {|0>, ..., |d-1>}
(all indices 0-based).  Diagonal density matrices are the free states; the
dephasing map keeps the diagonal and drops every off-diagonal entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import (
    DegenerateStateError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
)

# ===========================================================================
# tolerances (shared across modules)
# ===========================================================================
# Every tolerance of the package, and no other value below 1e-5, is written
# here.  Each is absolute, on a quantity normalized to 1 (a trace, a
# probability, a modulus or an exponent), and the comment names the
# tolerances it must agree with.  Size caps are not tolerances and stay in
# their modules: DENSE_PSD_MAX_DIM, GRID_CEILING, ROW_CHUNK_ELEMENTS, _GATHER_CAP.

# validation of states, vectors and weights
HERMITIAN_TOL = 1e-10     # max |rho - rho†| entry
PSD_FLOOR = -1e-10        # smallest admissible eigenvalue
TRACE_TOL = 1e-10         # |tr(rho) - 1|, |norm(psi)^2 - 1|, |sum(w) - 1|
SUPPORT_TOL = 1e-12       # squared modulus (population, weight, tail sum) at or below which it is zero
# a modulus, where SUPPORT_TOL bounds a squared modulus, so the two stay apart
ENTRY_TOL = 1e-12         # modulus at or below which a Kraus matrix entry counts as zero

# pure subspaces
A_ONE_TOL = 1e-9          # |A_ij - 1| for a unit-coherence edge
# a two-level block whose |A_01 - 1| is eps has second eigenvalue about
# 2ab eps <= eps / 2 (populations a + b = 1), so an edge within A_ONE_TOL
# passes the rank-1 check while A_ONE_TOL / 2 <= RANK1_TOL
RANK1_TOL = 1e-9          # second eigenvalue of a trace-1 restriction that counts as pure
# a member's population exceeds SUPPORT_TOL, so its amplitude exceeds 1e-6;
# this only keeps an amplitude that vanishes at the rank-1 edge from
# fixing a phase by 0 / 0
PHASE_LEAD_TOL = 1e-8     # modulus of the eigenvector amplitude whose phase is removed

# probabilities
# at least 10 TRACE_TOL, so the normalization error of a valid input never
# decides an agreement check
PROB_TOL = 1e-9           # agreement of probabilities and weights: totals, completeness, fidelity, reaching 1
# far below PROB_TOL: values that tie never differ by a gain PROB_TOL counts
TIE_TOL = 1e-12           # two probabilities closer than this tie (strict margins, records)
# partial sums are compared after each vector is divided by its own total:
# two valid totals may differ by 2 TRACE_TOL, more than this slack
MAJORIZATION_TOL = 1e-10  # slack of a partial-sum comparison of two distributions
# below TRACE_TOL, so _protocol rescales p to x's sum before it splits
_SPLIT_TOL = 1e-13        # prefix slack that counts as tight in the permutation split
BRANCH_WEIGHT_FLOOR = 1e-15   # branch weight at or below which a replay skips the 0 / 0 fidelity

# power means and the catalyst gates and search
# below it the generic formula rounds to 1 in floats; the geometric mean is the limit
GEOMETRIC_ORDER_TOL = 1e-8    # |alpha| at or below which the power mean is the geometric mean
BRACKET_TOL = 1e-6        # order-bracket width at which the probability-1 gate stops refining
GRID_STEP_TOL = 1e-9      # |n * grid_step - 1| of a catalyst grid step that divides 1


# at or below this many levels one dense eigvalsh over the whole matrix is
# faster than labelling the blocks of its nonzero pattern (measured crossover)
DENSE_PSD_MAX_DIM = 40


def support_profile(weights) -> tuple[np.ndarray, np.ndarray]:
    """The support rule every probability, plan and catalyst answer reads a profile by.

    Returns the levels whose squared modulus (entry of ``weights``) exceeds
    SUPPORT_TOL, by descending weight with ties in level order, and those weights.
    """
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    order = order[:np.count_nonzero(w > SUPPORT_TOL)]
    return order, w[order]


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise ValidationError when ``arr`` holds a NaN or an infinity."""
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} has a NaN or infinite entry")


def _as_array(raw, dtype, what: str) -> np.ndarray:
    """``np.array(raw, dtype=dtype)``; a ValidationError where numpy cannot convert ``raw``."""
    try:
        return np.array(raw, dtype=dtype)
    except (TypeError, ValueError) as exc:     # ragged nesting, a string, a foreign object
        raise ValidationError(f"{what} is not a numeric array: {exc}") from None


def _as_complex_matrix(raw) -> np.ndarray:
    arr = _as_array(raw, complex, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {arr.shape}")
    require_finite(arr, "matrix")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix in the incoherent basis.

    Construction checks Hermiticity, positive semidefiniteness and unit
    trace at the module tolerances; the stored array is read-only.  A state
    also keeps its maximal pure subspaces once
    :func:`~cohdist.subspaces.maximal_pure_subspaces` has enumerated them.

    PSD_FLOOR bounds the smallest eigenvalue of each block of the exact
    nonzero pattern of the symmetrized matrix (its connected components).
    A Hermitian matrix is, up to a permutation of levels, the direct sum of
    those blocks, so its spectrum is the union of theirs, and the smallest
    block eigenvalue is the smallest eigenvalue of the whole matrix.  Up to
    DENSE_PSD_MAX_DIM levels, and where one block covers every level, one
    dense ``eigvalsh`` computes it directly.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.matrix)
        ct = arr.conj().T
        # an entry near the float range may overflow to inf or NaN below; the
        # checks then refuse the matrix, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            herm_gap = np.abs(arr - ct).max()
            if herm_gap > HERMITIAN_TOL:
                raise NotHermitianError(
                    f"matrix is not Hermitian: max |rho - rho†| = {herm_gap:.3e}"
                )
            arr = 0.5 * (arr + ct)   # symmetrize validated input
            eig_min = _min_eigenvalue(arr)
            if not eig_min >= PSD_FLOOR:    # also rejects a NaN from overflow
                raise NotPSDError(
                    f"matrix is not PSD: min eigenvalue = {eig_min:.3e}", eig_min
                )
            tr = float(arr.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOneError(f"trace is {tr!r}, expected 1")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        """Populations rho_ii as a real vector."""
        return np.real(np.diag(self.matrix)).copy()

    @classmethod
    def from_pure(cls, psi: "PureStateVector") -> "DensityMatrix":
        return cls(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _components(mask: np.ndarray, verts) -> list[tuple[int, ...]]:
    """The connected components of the graph ``mask`` on ``verts``, sorted by size desc then indices.

    ``mask`` is a symmetric boolean d x d adjacency, True on the diagonal at
    each of ``verts`` and False in every other row and column.  Each level
    is labelled by the first member of its closed neighbourhood.  A label's
    levels form a clique component when all their rows of ``mask`` equal
    the label's row and that row holds just them; those components are
    read off in one pass.  Only the remaining levels are relabelled by
    min-label propagation with pointer jumping, until each holds its
    component's first member.
    """
    v = np.array(verts)
    rows = mask[v]
    label = rows.argmax(axis=1)
    differs = np.bincount(label, ~(rows == mask[label]).all(axis=1), minlength=len(mask))
    size = np.bincount(label, minlength=len(mask))
    rest = np.flatnonzero((differs[label] > 0) | (rows.sum(axis=1) != size[label]))
    if rest.size:
        # positions into rest, each pointing at a level of its own component
        edges, at = rows[rest][:, v[rest]], np.arange(rest.size)
        while True:
            low = np.where(edges, at, rest.size).min(axis=1)
            low = low[low]
            if np.array_equal(low, at):
                break
            at = low
        label[rest] = v[rest][at]
        size = np.bincount(label, minlength=len(mask))
    # disjoint components of one size compare by their first members
    order = np.lexsort((v, label, -size[label]))
    members, label = v[order].tolist(), label[order]
    cuts = [0, *(np.flatnonzero(label[1:] != label[:-1]) + 1).tolist(), len(members)]
    return [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]


def _min_eigenvalue(arr: np.ndarray) -> float:
    """Smallest eigenvalue of the exactly Hermitian ``arr``, block by block.

    The blocks are the components of the exact nonzero pattern (``arr !=
    0``, diagonal included).  Blocks of one size are stacked into one
    ``eigvalsh`` call, and a singleton block is its diagonal entry.  Up to
    DENSE_PSD_MAX_DIM levels, or when one block holds every level, one
    dense call on ``arr`` itself does it.  A NaN from an overflowing block
    is the result, and so is an eigensolver that does not converge on one.
    """
    d = len(arr)
    if d > DENSE_PSD_MAX_DIM:
        # arr != 0, read off the real and imaginary flags of each entry as one
        # uint16 (arr is C-contiguous), several times faster than a complex compare
        pattern = (arr.view(float) != 0).view(np.uint16) != 0
        np.fill_diagonal(pattern, True)
        components = _components(pattern, np.arange(d))
        if len(components[0]) < d:
            # components come sorted by size, so each size is one run
            lows = []
            for r, run in groupby(components, key=len):
                idx = np.array(list(run))
                if r == 1:
                    lows.append(arr.real[idx[:, 0], idx[:, 0]].min())
                else:
                    lows.append(_lowest_eigenvalue(arr[idx[:, :, None], idx[:, None, :]]))
            return float(np.min(lows))   # np.min keeps a NaN, where Python's min may drop it
    return float(_lowest_eigenvalue(arr))


def _lowest_eigenvalue(blocks: np.ndarray) -> float:
    """Smallest eigenvalue of a stack of Hermitian blocks, NaN where ``eigvalsh``
    does not converge: on an inf or NaN entry in a block of three or more levels."""
    try:
        return np.linalg.eigvalsh(blocks).min()
    except np.linalg.LinAlgError:
        return math.nan


@dataclass(frozen=True)
class PureStateVector:
    """Unit-norm complex amplitude vector in the incoherent basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.amplitudes, complex, "amplitude vector")
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
        require_finite(arr, "amplitude vector")
        # above 1, divide by the power of two at the largest part so that no
        # square overflows; that division is exact, and so is undoing it
        peak = max(float(np.abs(arr.real).max()), float(np.abs(arr.imag).max()))
        scale = math.ldexp(1.0, max(math.frexp(peak)[1] - 1, 0))
        scaled = arr / scale
        # the squared norm, summed as the trace that DensityMatrix.from_pure
        # checks, so that both accept the same vectors; a Python float
        # product overflows to inf without a warning
        squared = float((scaled * scaled.conj()).sum().real) * scale * scale
        if abs(squared - 1.0) > TRACE_TOL:
            raise TraceNotOneError(f"squared vector norm is {squared!r}, expected 1 within {TRACE_TOL:g}")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def from_probabilities(cls, weights) -> "PureStateVector":
        """Real nonnegative-amplitude state with the given squared moduli."""
        w = as_distribution(weights)
        return cls(np.sqrt(w).astype(complex))


def validate_density(raw) -> DensityMatrix:
    """Validate raw matrix data and wrap it as a :class:`DensityMatrix`.

    Parameters
    ----------
    raw : array-like
        Square complex matrix.

    Raises
    ------
    ValidationError
        for data that is not a nonempty numeric array, or has a NaN or an
        infinite entry
    NonSquareError, NotHermitianError, NotPSDError, TraceNotOneError
    """
    return DensityMatrix(raw)


def as_distribution(weights) -> np.ndarray:
    """Validate a probability vector: nonnegative entries summing to one."""
    w = _as_array(weights, float, "weight vector")
    if w.ndim != 1 or w.size == 0:
        raise ValidationError(f"expected a nonempty 1-d weight vector, got shape {w.shape}")
    if w.min() < -TRACE_TOL:
        raise ValidationError(f"negative weight {float(w.min())!r}")
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if not abs(total - 1.0) <= TRACE_TOL:     # a NaN or infinite entry fails here
        raise TraceNotOneError(f"weights sum to {total!r}, expected 1")
    return w


def positive_diagonal_indices(rho: DensityMatrix) -> tuple[int, ...]:
    """Indices with rho_ii > SUPPORT_TOL; raises if there are none."""
    idx = tuple(np.flatnonzero(rho.diagonal() > SUPPORT_TOL).tolist())
    if not idx:
        raise DegenerateStateError("state has no strictly positive population")
    return idx
