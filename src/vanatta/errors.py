"""Shared exception and warning types, and the one number rule that every input check asks."""

import math
import numbers

import numpy as np

# float64 rounds every int from 2**1024 - 2**970 up to inf.
_FLOAT_LIMIT, _INT_LIMIT, _NOT_INTEGER = 2**1024 - 2**970, 2**63, "be integers"


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


def refusal(value, kind: type = float) -> str | None:
    """Why value cannot stand for a kind, or None: float takes a real number that
    float64 holds (nan, inf too), int an integer that int64 holds, bool only a bool."""
    if kind is bool:
        return None if isinstance(value, (bool, np.bool_)) else "be true or false"
    real = kind is float
    if type(value) is not int:  # plain ints and floats skip the ABC checks
        if type(value) is float and real:
            return None
        if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Integral):
            return "be a number" if real else _NOT_INTEGER
        if not isinstance(value, numbers.Integral):  # a real that is no int
            return None
    low, high = (-_FLOAT_LIMIT, _FLOAT_LIMIT) if real else (-_INT_LIMIT - 1, _INT_LIMIT)
    return None if low < value < high else f"fit in {kind.__name__}64"


def check_number(name: str, value, kind: type = float) -> None:
    """ConfigurationError "<name> must <reason>, got <value>" if refusal refuses."""
    if reason := refusal(value, kind):
        raise ConfigurationError(f"{name} must {reason}, got {value!r}")


def check_finite(name: str, value, sign: str = "") -> None:
    """Raise ConfigurationError unless value is a finite real number.

    sign "positive" also requires value > 0, "non-negative" value >= 0.
    """
    check_number(name, value)
    signed = {"": True, "positive": value > 0.0, "non-negative": value >= 0.0}[sign]
    if not (math.isfinite(value) and signed):
        must = f"{sign} and finite" if sign else "finite"
        raise ConfigurationError(f"{name} must be {must}, got {value}")


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ConfigurationError unless value is an integer >= minimum in int64."""
    reason = refusal(value, int)
    if reason == _NOT_INTEGER or reason is None and value < minimum:
        reason = f"be an integer >= {minimum}"
    if reason:
        raise ConfigurationError(f"{name} must {reason}, got {value}")


def check_seed(seed) -> None:
    """Raise ConfigurationError unless seed is None or, as numpy takes, an integer >= 0."""
    if seed is not None and (refusal(seed, int) == _NOT_INTEGER or seed < 0):
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed}")


def check_integers(name: str, values) -> tuple[int, ...]:
    """values as a tuple of ints; ConfigurationError unless each is an
    integer that int64 holds (not a bool), so 2.5, '2', nan and True are
    refused rather than truncated or parsed."""
    values = tuple(values)
    plain = set(map(type, values)) <= {int}
    # Of plain ints only the extremes can fall outside int64.
    for value in (min(values), max(values)) if plain and values else values:
        check_number(name, value, int)
    return values if plain else tuple(map(int, values))
