"""Special functions built from series and continued-fraction expansions.

The scaled exponential integral e^x E1(x), which keeps the ergodic closed
forms finite at extreme SNR. Each range of x has one formula, written once
for a float or an array: a fixed series below 1, Chebyshev interpolants on
the octaves of [1, 16), and a backward continued fraction from 16 on. The
scalar and the array entry points call the same formula on each range, so
they give the same bits. No special-function library is imported; the test
suite pins the accuracy against 40-digit reference values.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, _require_positive

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# ln 2 and ln 4, for converting natural-log rates to b/s/Hz across the package
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)

# series terms below 1 (the 18th is below 1e-17 at x = 1), Chebyshev
# interpolation at 32 points with the first 22 coefficients kept on each
# octave of [1, 16) (the rest are at the interpolant's 3e-16 noise), and a
# backward continued fraction whose truncation error at depth 12 is 2e-18 at
# x = 16 and falls with x; at depth 150 it is 1.2e-20 at x = 1, so that
# fraction gives the interpolants' node values
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k))
                   for k in range(1, 19))
_CHEB_POINTS = 32
_CHEB_TERMS = 22
_CF_DEPTH = 12
_CF_NODE_DEPTH = 150


# ---------------------------------------------------------------------------
# Scaled exponential integral e^x E1(x): one formula per range of x, each
# taking a float or an array

def _series(x):
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!), x < 1
    total = _E1_SERIES[-1]
    for c in _E1_SERIES[-2::-1]:
        total = c + x * total
    return np.exp(x) * (x * total - EULER_GAMMA - np.log(x))


def _chebyshev(x):
    # x = m 2^e with m in [0.5, 1): octave e - 1 of [1, 16), t = 4m - 3 in
    # [-1, 1), summed by Clenshaw's recurrence
    m, e = np.frexp(x)
    two_t = 8.0 * m - 6.0
    coeffs = _e1s_chebyshev()[:, e - 1]
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + two_t * b1 - b2, b1
    return coeffs[0] + 0.5 * two_t * b1 - b2


def _fraction(x, depth: int = _CF_DEPTH):
    # e^x E1(x) = 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...))), from the bottom up
    t = x + (2.0 * depth + 1.0)
    for i in range(depth, 0, -1):
        t = (x + (2.0 * i - 1.0)) - float(i * i) / t
    return 1.0 / t


def exp_integral_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite for all x (decays like 1/x as x grows)."""
    x = _require_positive("exp_integral_e1_scaled argument x", x)
    if x < 1.0:
        return float(_series(x))
    if x < 16.0:
        return float(_chebyshev(x))
    return _fraction(x)


def exp_integral_e1_scaled_array(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) elementwise for an array of x > 0, with no per-element loop.

    Gives the same bits as :func:`exp_integral_e1_scaled` at every x: each
    range of x is filled by the formula the scalar function uses there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & np.isfinite(x)):
        raise DomainError("exp_integral_e1_scaled_array requires finite x > 0")
    out = np.empty_like(x)
    low = x < 1.0
    high = x >= 16.0
    for mask, formula in ((low, _series), (~(low | high), _chebyshev),
                          (high, _fraction)):
        if mask.any():
            out[mask] = formula(x[mask])
    return out


@functools.cache
def _e1s_chebyshev() -> np.ndarray:
    """(_CHEB_TERMS, 4) Chebyshev coefficients of e^x E1(x) on the octaves
    [2^p, 2^(p+1)), p = 0..3, interpolated from the continued fraction at
    depth _CF_NODE_DEPTH; built on first use so importing the package does
    no special-function work."""
    odd = 2 * np.arange(_CHEB_POINTS) + 1
    t = np.cos(np.pi * odd / (2 * _CHEB_POINTS))
    nodes = 2.0 ** np.arange(4)[:, None] * (t + 3.0) / 2.0
    values = _fraction(nodes, _CF_NODE_DEPTH)
    # T_k(t_j) = cos(pi k (2j+1) / 2N), the angle reduced exactly mod 2 pi
    turns = np.outer(np.arange(_CHEB_TERMS), odd) % (4 * _CHEB_POINTS)
    basis = np.cos(np.pi * turns / (2 * _CHEB_POINTS))
    coeffs = (2.0 / _CHEB_POINTS) * np.einsum("kj,pj->kp", basis, values)
    coeffs[0] *= 0.5
    return coeffs
