"""Exception types shared across the toolkit, and the integer check that
raises one."""

import operator


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


class InvalidRepresentationError(TribalanceError, ValueError):
    """A digit string violates the numeration-system constraint."""


class NumericError(TribalanceError, ArithmeticError):
    """A numeric routine failed to converge."""


class InvariantViolationError(TribalanceError, RuntimeError):
    """An internal structural invariant failed; indicates a scanner bug
    or an input outside the certified family."""


class VerificationFailureError(TribalanceError, RuntimeError):
    """A re-derived bound or cross-check did not land where it must."""


def integer_in(value, what: str, low: int | None = 0, high: int | None = None) -> int:
    """``value`` as a Python int by ``operator.index``, within [low, high]
    (``low=None``: no lower bound): a bool, a float, a string or an integer
    out of range raises ``InvalidInputError``."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if (number is None or low is not None and number < low
            or high is not None and number > high):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise InvalidInputError(f"{what} must be an integer{bounds}, got {value!r}")
    return number
