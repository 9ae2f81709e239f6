"""Exception types shared across the toolkit."""


class TribalanceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TribalanceError, ValueError):
    """An argument is outside the documented domain (bad symbol, m < 2, ...)."""


class ConfigurationError(TribalanceError, ValueError):
    """A morphism or buffer is configured in a way that cannot work
    (non-prolongable seed, non-growing morphism, ...)."""


class BufferLimitError(ConfigurationError):
    """A growth request exceeds the configured maximum buffer length."""


class RangeError(TribalanceError, IndexError):
    """A window or index lies outside the materialized buffer."""


class SaturationError(TribalanceError, RuntimeError):
    """A factor scan or factor-index region hit its position cap before
    reaching the complexity target."""

    def __init__(self, message, *, n=None, positions_scanned=None):
        super().__init__(message)
        self.n = n
        self.positions_scanned = positions_scanned


class NotAFactorError(TribalanceError, ValueError):
    """A word that was required to be a factor of the analyzed sequence
    is not one (or cannot be decoded as one)."""


class InvalidRepresentationError(TribalanceError, ValueError):
    """A digit string violates the numeration-system constraint."""


class NumericError(TribalanceError, ArithmeticError):
    """A numeric routine failed to converge."""


class InvariantViolationError(TribalanceError, RuntimeError):
    """An internal structural invariant failed; indicates a scanner bug
    or an input outside the certified family."""


class VerificationFailureError(TribalanceError, RuntimeError):
    """A re-derived bound or cross-check did not land where it must."""
