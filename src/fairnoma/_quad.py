"""Adaptive quadrature helpers shared by the closed-form modules."""

from __future__ import annotations

from typing import Callable

from .errors import QuadratureError


def integrate_semi_infinite(f: Callable[[float], float], scale: float = 1.0,
                            rel_tol: float = 1e-8, abs_tol: float = 1e-12,
                            limit: int = 200) -> tuple[float, float]:
    """Integrate ``f`` over [0, inf) via the map x = scale*u/(1-u), u in [0, 1).

    ``scale`` should match the natural decay length of the integrand.
    Returns ``(value, err_estimate)`` under :func:`_integrate`'s error
    contract.
    """
    def mapped(u: float) -> float:
        if u >= 1.0:
            return 0.0
        r = 1.0 - u
        return f(scale * u / r) * scale / (r * r)

    return _integrate(mapped, 0.0, 1.0, rel_tol, abs_tol, limit)


def integrate_interval(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float = 1e-10, abs_tol: float = 1e-13,
                       limit: int = 200) -> tuple[float, float]:
    """Plain adaptive quadrature on [a, b] with the same error contract."""
    return _integrate(f, a, b, rel_tol, abs_tol, limit)


def _integrate(f: Callable[[float], float], a: float, b: float,
               rel_tol: float, abs_tol: float,
               limit: int) -> tuple[float, float]:
    """``(value, err_estimate)`` from one adaptive quadrature; raises
    :class:`QuadratureError` when the engine reports failure or its estimate
    misses the target by more than a factor of 10. The public helpers call
    this rather than each other, so a wrapper around one of them (as
    perfbench's tracer installs) sees each integral once."""
    # here, not at the top: scipy is most of the CLI's start-up time
    from scipy import integrate
    out = integrate.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol,
                         limit=limit, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(f"quadrature did not converge: {out[3]}",
                              value=value, estimate=err)
    target = max(abs_tol, rel_tol * abs(value))
    if err > 10.0 * target:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds target {target:.3e}",
            value=value, estimate=err)
    return value, err
