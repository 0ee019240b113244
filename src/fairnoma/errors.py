"""Shared exception types for the fairnoma package."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class QuadratureError(RuntimeError):
    """A numerical approximation could not meet its error target: adaptive
    quadrature, or a special function's continued fraction that ran out of
    iterations.

    Carries the best available value (for a continued fraction, its last
    iterate) and the achieved absolute-error estimate so callers can decide
    whether the result is still usable.
    """

    def __init__(self, message: str, value: float | None = None,
                 estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
