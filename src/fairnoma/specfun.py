"""Special functions built from series and continued-fraction expansions.

A self-contained scalar implementation of the scaled exponential integral
e^x E1(x), which keeps the ergodic closed forms finite at extreme SNR, and
an array e^x E1(x) for quadrature integrands. No special-function library
is imported; the test suite pins accuracy against quadrature of the
defining integral.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, QuadratureError, _require_positive

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# ln 2 and ln 4, for converting natural-log rates to b/s/Hz across the package
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)

_EPS = 2.220446049250313e-16
_MAX_ITER = 500

# the array e^x E1(x): series terms below 1 (the 18th is below 1e-17 at
# x = 1), Chebyshev interpolation at 32 points with the first 22
# coefficients kept on each octave of [1, 16) (the rest are at the
# interpolant's 3e-16 noise), and a backward continued fraction whose
# truncation error at depth 12 is 2e-18 at x = 16 and falls with x
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k))
                   for k in range(1, 19))
_CHEB_POINTS = 32
_CHEB_TERMS = 22
_CF_DEPTH = 12


# ---------------------------------------------------------------------------
# Scaled exponential integral e^x E1(x)

def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!), for small x.
    total = -EULER_GAMMA - math.log(x)
    term = x
    for k in range(1, _MAX_ITER):
        total += term
        if abs(term) <= _EPS * abs(total):
            break
        term *= -x * k / ((k + 1.0) * (k + 1.0))
    return total


def _e1_cf_scaled(x: float) -> float:
    # e^x E1(x) = 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...))), modified Lentz.
    b = x + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        a = -float(i) * float(i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise QuadratureError(
        f"e^x E1(x) continued fraction did not converge for x={x!r}",
        value=h, estimate=abs(h) * abs(delta - 1.0))


def exp_integral_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite for all x (decays like 1/x as x grows)."""
    x = _require_positive("exp_integral_e1_scaled argument x", x)
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def exp_integral_e1_scaled_array(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) elementwise for an array of x > 0, with no per-element loop.

    Agrees with :func:`exp_integral_e1_scaled` to better than 1e-13
    relative: the series below 1 with a fixed term count, Chebyshev
    interpolants of the scalar function on [1, 2), [2, 4), [4, 8) and
    [8, 16), and a fixed-depth backward continued fraction from 16 on.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & np.isfinite(x)):
        raise DomainError("exp_integral_e1_scaled_array requires finite x > 0")
    out = np.empty_like(x)
    low = x < 1.0
    high = x >= 16.0
    mid = ~(low | high)
    if low.any():
        v = x[low]
        total = _E1_SERIES[-1]
        for c in _E1_SERIES[-2::-1]:
            total = c + v * total
        out[low] = np.exp(v) * (v * total - EULER_GAMMA - np.log(v))
    if mid.any():
        # x = m 2^e with m in [0.5, 1): octave e - 1, t = 4m - 3 in [-1, 1)
        m, e = np.frexp(x[mid])
        two_t = 8.0 * m - 6.0
        coeffs = _e1s_chebyshev()[:, e - 1]
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = c + two_t * b1 - b2, b1
        out[mid] = coeffs[0] + 0.5 * two_t * b1 - b2
    if high.any():
        v = x[high]
        t = v + (2.0 * _CF_DEPTH + 1.0)
        for i in range(_CF_DEPTH, 0, -1):
            t = (v + (2.0 * i - 1.0)) - float(i * i) / t
        out[high] = 1.0 / t
    return out


@functools.cache
def _e1s_chebyshev() -> np.ndarray:
    """(_CHEB_TERMS, 4) Chebyshev coefficients of e^x E1(x) on the octaves
    [2^p, 2^(p+1)), p = 0..3, interpolated from the scalar function; built
    on first use so importing the package does no special-function work."""
    odd = 2 * np.arange(_CHEB_POINTS) + 1
    t = np.cos(np.pi * odd / (2 * _CHEB_POINTS))
    values = np.array([[exp_integral_e1_scaled(2.0 ** p * (ti + 3.0) / 2.0)
                        for ti in t] for p in range(4)])
    # T_k(t_j) = cos(pi k (2j+1) / 2N), the angle reduced exactly mod 2 pi
    turns = np.outer(np.arange(_CHEB_TERMS), odd) % (4 * _CHEB_POINTS)
    basis = np.cos(np.pi * turns / (2 * _CHEB_POINTS))
    coeffs = (2.0 / _CHEB_POINTS) * np.einsum("kj,pj->kp", basis, values)
    coeffs[0] *= 0.5
    return coeffs
