"""Exception types shared across the package."""


class DissipctlError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(DissipctlError):
    """Operands do not share the required dimensions."""


class NonHermitianError(DissipctlError):
    """An operator that must be Hermitian is not (within tolerance)."""


class PreconditionError(DissipctlError):
    """A documented precondition of an operation was violated."""


class InfeasibleError(DissipctlError):
    """The synthesis problem has no solution; ``reason`` names the obstruction
    ("norm" or "rank", or "es" for couplings that miss the decay bound) where
    it is known."""

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class SolverBudgetError(DissipctlError):
    """Iterative solver exhausted its budget without converging (raised by
    the ``synthesize_pinv`` test oracle; no command-line path reaches it)."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class InputFormatError(DissipctlError):
    """Malformed external input; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DimensionCapError(DissipctlError):
    """A simulation or construction exceeds the configured dimension cap."""


class IntegrationError(DissipctlError):
    """Adaptive integration failed (step-size underflow)."""


class StateValidityError(DissipctlError):
    """A density matrix violates hermiticity, unit trace or positivity
    beyond tolerance."""
