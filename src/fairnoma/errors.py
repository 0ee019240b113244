"""Exception types, and the input checks every entry point makes: a count
is any integer and a real any real number, numpy's scalars included, but
never a bool (though Python makes it an int) nor a numeric string. The
raisers check before any conversion and return a Python int or float."""

import math
import numbers


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not meet its error target.

    Carries the best available value (for a multi-component integral, a
    list with one per component) and the achieved absolute-error estimate
    in the same form, so callers can decide whether the result is still
    usable.
    """

    def __init__(self, message: str, value: float | list | None = None,
                 estimate: float | list | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


def _is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _is_real(value) -> bool:
    """A real number, numpy's included, but not a bool; a float skips the
    abstract-class check, which takes half a microsecond."""
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


def _require_int(name: str, value, low: int = 1,
                 high: int | None = None) -> int:
    """``value`` as an int if it is an integer in [low, high)."""
    if (not _is_integer(value) or value < low
            or (high is not None and value >= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _require_real(name: str, value) -> float:
    """``value`` as a float if it is a real number a double can hold; a
    float, the common case, is returned as it is, with no further call."""
    if type(value) is float:
        return value
    if not _is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:   # an integer whose repr may be too long to print
        raise DomainError(f"{name} must be within a double's range") from None


def _require_positive(name: str, value) -> float:
    """``value`` as a float if it is a positive, finite real number."""
    x = _require_real(name, value)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def _require_rate(name: str, value) -> float:
    """``value`` as a float if it is a finite real number >= 0: a target
    rate, or a power coefficient."""
    x = _require_real(name, value)
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")
    return x
