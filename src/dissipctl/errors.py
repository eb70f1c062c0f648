"""Exception types shared across the package."""


class DissipctlError(Exception):
    """Base class for all library errors.  A refusal of one input names it in
    ``field``, which prefixes the message."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


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


class InputFormatError(DissipctlError):
    """Malformed external input; the field it names is required."""

    def __init__(self, field: str, message: str):
        super().__init__(message, field)


class DimensionCapError(DissipctlError):
    """A simulation or construction exceeds its dimension cap."""


class IntegrationError(DissipctlError):
    """Propagation failed: a step-size underflow, or a horizon lost to rounding."""


class StateValidityError(DissipctlError):
    """A density matrix violates hermiticity, unit trace or positivity, or a
    propagated candidate V(t) positivity, beyond tolerance."""
