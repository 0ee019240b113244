"""Special functions built from series and continued-fraction expansions.

Self-contained scalar implementations of the exponential integral E1, the
complementary error function, and the digamma function, plus the scaled
variants e^x E1(x) and e^{z^2} erfc(z) that keep the ergodic/outage closed
forms finite at extreme SNR. No special-function library is imported; the
test suite pins accuracy against quadrature of the defining integrals and
against harmonic sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureError

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# ln 2 and ln 4, for converting natural-log rates to b/s/Hz across the package
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)

_EPS = 2.220446049250313e-16
_MAX_ITER = 500
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class SpecFunResult:
    """A special-function value paired with a relative-error estimate.

    ``est_rel_error`` is an a-posteriori bound built from the last term of
    the expansion that produced the value; it is an estimate, not a hard
    guarantee.
    """

    value: float
    est_rel_error: float


def _check_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"{name} requires a finite argument, got {x!r}")


# ---------------------------------------------------------------------------
# Exponential integral E1

def _e1_series(x: float) -> tuple[float, float]:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!), for small x.
    total = -EULER_GAMMA - math.log(x)
    term = x
    for k in range(1, _MAX_ITER):
        total += term
        if abs(term) <= _EPS * abs(total):
            break
        term *= -x * k / ((k + 1.0) * (k + 1.0))
    return total, abs(term) + 2.0 * _EPS * abs(total)


def _e1_cf_scaled(x: float) -> tuple[float, float]:
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
            return h, abs(delta - 1.0) + 4.0 * _EPS
    raise QuadratureError(
        f"e^x E1(x) continued fraction did not converge for x={x!r}",
        value=h, estimate=abs(h) * abs(delta - 1.0))


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Underflows to 0.0 once e^(-x) itself underflows (x above roughly 745);
    use :func:`exp_integral_e1_scaled` when only the product e^x E1(x) is
    needed.
    """
    return exp_integral_e1_detailed(x).value


def exp_integral_e1_detailed(x: float) -> SpecFunResult:
    """E1(x) together with an error estimate from the expansion used."""
    _check_finite("exp_integral_e1", x)
    if x <= 0.0:
        raise DomainError(f"exp_integral_e1 requires x > 0, got {x!r}")
    if x < 1.0:
        value, abs_err = _e1_series(x)
        return SpecFunResult(value, abs_err / value + 2.0 * _EPS)
    scaled, rel_err = _e1_cf_scaled(x)
    return SpecFunResult(scaled * math.exp(-x), rel_err + _EPS * x)


def exp_integral_e1_scaled(x: float) -> float:
    """e^x E1(x) for x > 0, finite for all x (decays like 1/x as x grows)."""
    _check_finite("exp_integral_e1_scaled", x)
    if x <= 0.0:
        raise DomainError(f"exp_integral_e1_scaled requires x > 0, got {x!r}")
    if x < 1.0:
        value, _ = _e1_series(x)
        return math.exp(x) * value
    scaled, _ = _e1_cf_scaled(x)
    return scaled


# ---------------------------------------------------------------------------
# Complementary error function

def _erf_series(z: float) -> tuple[float, float]:
    # erf(z) = (2/sqrt(pi)) sum_{k>=0} (-1)^k z^(2k+1) / (k! (2k+1)).
    term = z
    total = 0.0
    contrib = z
    for k in range(_MAX_ITER):
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) <= _EPS * abs(total):
            break
        term *= -z * z / (k + 1.0)
    return _TWO_OVER_SQRT_PI * total, _TWO_OVER_SQRT_PI * abs(contrib)


def _erfcx_cf(z: float) -> tuple[float, float]:
    # sqrt(pi) e^(z^2) erfc(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...)))).
    c = z
    d = 0.0
    h = z
    for i in range(1, _MAX_ITER):
        a = 0.5 * i
        d = 1.0 / (z + a * d)
        c = z + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return 1.0 / (_SQRT_PI * h), abs(delta - 1.0) + 4.0 * _EPS
    value = 1.0 / (_SQRT_PI * h)
    raise QuadratureError(
        f"e^(z^2) erfc(z) continued fraction did not converge for z={z!r}",
        value=value, estimate=abs(value) * abs(delta - 1.0))


def erfc(z: float) -> float:
    """Complementary error function, (2/sqrt(pi)) int_z^inf e^(-t^2) dt."""
    return erfc_detailed(z).value


def erfc_detailed(z: float) -> SpecFunResult:
    """erfc(z) together with an error estimate from the expansion used."""
    _check_finite("erfc", z)
    if z < 0.0:
        inner = erfc_detailed(-z)
        value = 2.0 - inner.value
        abs_err = inner.est_rel_error * inner.value + 2.0 * _EPS
        return SpecFunResult(value, abs_err / value)
    if z < 1.5:
        erf_val, abs_err = _erf_series(z)
        value = 1.0 - erf_val
        return SpecFunResult(value, (abs_err + _EPS) / value + 2.0 * _EPS)
    scaled, rel_err = _erfcx_cf(z)
    return SpecFunResult(scaled * math.exp(-z * z),
                         rel_err + _EPS * z * z + 2.0 * _EPS)


def erfcx(z: float) -> float:
    """Scaled complement e^(z^2) erfc(z) for z >= 0; never overflows."""
    _check_finite("erfcx", z)
    if z < 0.0:
        raise DomainError(f"erfcx requires z >= 0, got {z!r}")
    if z < 1.5:
        erf_val, _ = _erf_series(z)
        return math.exp(z * z) * (1.0 - erf_val)
    scaled, _ = _erfcx_cf(z)
    return scaled


# ---------------------------------------------------------------------------
# Digamma

def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0, via upward recurrence and the asymptotic
    series in 1/x^2 once the argument has been shifted past 12."""
    return digamma_detailed(x).value


def digamma_detailed(x: float) -> SpecFunResult:
    """psi(x) together with an error estimate (truncation + shift rounding)."""
    _check_finite("digamma", x)
    if x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    shift = 0.0
    n_shift = 0
    y = x
    while y < 12.0:
        shift -= 1.0 / y
        y += 1.0
        n_shift += 1
    inv = 1.0 / y
    inv2 = inv * inv
    # psi(y) ~ ln y - 1/(2y) - 1/(12y^2) + 1/(120y^4) - 1/(252y^6)
    #          + 1/(240y^8) - 1/(132y^10) + 691/(32760y^12) - ...
    tail = (1.0 / 12.0
            - inv2 * (1.0 / 120.0
                      - inv2 * (1.0 / 252.0
                                - inv2 * (1.0 / 240.0
                                          - inv2 * (1.0 / 132.0
                                                    - inv2 * (691.0 / 32760.0))))))
    value = math.log(y) - 0.5 * inv - inv2 * tail + shift
    trunc = inv2 ** 7 / 12.0
    abs_err = trunc + (n_shift + 4.0) * _EPS * (1.0 + abs(shift))
    if value == 0.0:
        return SpecFunResult(value, math.inf)
    return SpecFunResult(value, abs_err / abs(value) + 2.0 * _EPS)
