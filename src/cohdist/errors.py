"""Structured rejections raised across the toolkit.

Every error names the violated invariant so callers (and the CLI) can map
failures to stable exit codes without parsing message text.
"""

from __future__ import annotations


class CohdistError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CohdistError):
    """Input object violates a structural invariant."""


class NonSquareError(ValidationError):
    """Matrix input is not square."""


class NotHermitianError(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the PSD floor.

    Carries the offending minimum eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class TraceNotOneError(ValidationError):
    """Trace (or norm, or weight sum) differs from one beyond tolerance."""


class NotStrictlyIncoherentError(ValidationError):
    """Kraus matrix has more than one nonzero entry in some row or column."""


class DegenerateStateError(CohdistError):
    """State has no usable support (no strictly positive diagonal entry)."""


class IncoherentTargetError(CohdistError):
    """Target state has coherence rank 1; distillation to it is free."""


class RankDeficitError(CohdistError):
    """Source coherence rank is below the target's; conversion probability 0."""


class IncompletePlanError(CohdistError):
    """Plan's Kraus operators overshoot completeness (sum K†K > I)."""


class PreconditionError(CohdistError):
    """Operation precondition not met (e.g. deterministic search at P=1)."""


class ProtocolSynthesisError(CohdistError):
    """Internal synthesis step failed to converge; indicates a bug."""
