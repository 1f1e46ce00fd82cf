"""Exception types shared across the package."""


class SolvRigidError(Exception):
    """Base class for all package errors."""


class InputError(SolvRigidError):
    """Malformed or non-conforming input data."""


class DimensionMismatch(InputError):
    """A point or map does not conform to the expected block structure."""


class DomainError(SolvRigidError):
    """Argument outside the mathematical domain of an operation."""


class NotInKernel(SolvRigidError):
    """Element has a nonzero perturbation at a block that must vanish."""

    def __init__(self, block: int, message: str | None = None):
        self.block = block
        super().__init__(message or f"element not in kernel: block {block} perturbation is nonzero")


class NotInUniformSubgroup(SolvRigidError):
    """Log-stretches are inconsistent with any single pairing vector."""


class InfiniteIndexSuspected(SolvRigidError):
    """Top-level coefficient solve failed; the target lies outside the span."""


class ConvergenceError(SolvRigidError):
    """Iteration failed to converge; carries the last diagnostic value."""

    def __init__(self, message: str, last_value: float | None = None):
        self.last_value = last_value
        super().__init__(message)
