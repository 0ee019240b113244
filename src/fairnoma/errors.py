"""Shared exception types for the fairnoma package."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class QuadratureError(RuntimeError):
    """A numerical approximation could not meet its error target: adaptive
    quadrature, or a special function's continued fraction that ran out of
    iterations.

    Carries the best available value (for a continued fraction, its last
    iterate; for a multi-component integral, a list with one per component)
    and the achieved absolute-error estimate in the same form, so callers
    can decide whether the result is still usable.
    """

    def __init__(self, message: str, value: float | list | None = None,
                 estimate: float | list | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
