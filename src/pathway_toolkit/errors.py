"""Exception types shared across the toolkit, and its two number rules."""

import math


class DomainError(ValueError):
    """Raised when arguments lie outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative or quadrature scheme misses its error target.

    Carries the best available partial result and the achieved error bound so
    callers can decide whether the answer is still usable.
    """

    def __init__(self, message, partial=None, bound=None):
        super().__init__(message)
        self.partial = partial
        self.bound = bound


def as_number(value, message: str) -> float:
    """A JSON value as a float; anything else, JSON true/false included, is a
    DomainError(message)."""
    try:
        return float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        raise DomainError(message) from None


def exp_or_inf(x: float) -> float:
    """e^x, or inf where that is past the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
