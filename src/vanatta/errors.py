"""Shared exception and warning types, and the shared numeric input check."""

import math
import numbers


class SimulationError(Exception):
    """Base class for errors raised by this package."""


class ConstraintError(SimulationError, ValueError):
    """A physical or layout constraint is violated."""


class ConfigurationError(SimulationError, ValueError):
    """A simulation setup is inconsistent or out of range."""


class SchedulingError(SimulationError, ValueError):
    """A switch schedule cannot be realized with the given timing."""


class DecodingError(SimulationError, RuntimeError):
    """Bit decoding failed (degenerate amplitude statistics)."""


class DesignMismatchWarning(UserWarning):
    """Operating point differs noticeably from the design point."""


def check_finite(name: str, value, sign: str = "") -> None:
    """Raise ConfigurationError unless value is a finite real number.

    sign "positive" also requires value > 0, "non-negative" value >= 0.
    """
    ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if sign == "positive":
        ok = ok and value > 0.0
    elif sign == "non-negative":
        ok = ok and value >= 0.0
    if not ok:
        must = f"{sign} and finite" if sign else "finite"
        raise ConfigurationError(f"{name} must be {must}, got {value}")


def check_count(name: str, value) -> None:
    """Raise ConfigurationError unless value is an integer >= 1."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value}")


def check_integers(name: str, values) -> tuple[int, ...]:
    """values as a tuple of ints; ConfigurationError unless each is an
    integer (numbers.Integral: int, bool or a numpy integer), so 2.5, '2'
    and nan are refused rather than truncated or parsed."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:  # plain ints skip the ABC check
        for value in values:
            if not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be integers, got {value!r}")
        values = tuple(map(int, values))
    return values
