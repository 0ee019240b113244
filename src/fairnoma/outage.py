"""Outage probabilities below a target rate r0 for the ordered two-user pair.

Covers orthogonal access for both users and fair power-domain NOMA at the
allocation-region endpoints: the weak user at the lower endpoint (its best
case) and the strong user at the upper endpoint. The weak-user endpoint
probability has no closed form and is evaluated by quadrature with an
explicit tail correction; the strong-user endpoint uses a scaled-erfc closed
form that stays finite where the textbook erfc/exp product over- and
underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import integrate_interval
from .errors import DomainError
from .specfun import erfcx
from .twouser import SystemParams, _rate_threshold, _require_positive

# y-units tail cut: exp(-29) ~ 2.5e-13 bounds the truncated mass below 1e-12
_TAIL_WIDTH = 29.0


@dataclass(frozen=True)
class AlphaPair:
    """Threshold pair for the weak user's best-case outage region.

    ``alpha2`` is the gain below which the strong user cannot reach r0 even
    with the whole power budget; ``alpha1_fn(x)`` is the minimum weak-user
    share factor at strong-user gain x >= alpha2.
    """

    alpha1_fn: Callable[[float], float]
    alpha2: float


@dataclass(frozen=True)
class OutagePoint:
    """All four outage probabilities at one operating point."""

    xi: float
    r0: float
    p_oma_weak: float
    p_oma_strong: float
    p_noma_weak_ainf: float
    p_noma_strong_asup: float

    def __post_init__(self):
        probs = (self.p_oma_weak, self.p_oma_strong,
                 self.p_noma_weak_ainf, self.p_noma_strong_asup)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise DomainError(f"outage probabilities must lie in [0, 1]: {probs}")
        if (self.p_noma_weak_ainf > self.p_oma_weak + 1e-12
                or self.p_noma_strong_asup > self.p_oma_strong + 1e-12):
            raise DomainError("fair endpoints cannot be worse than orthogonal access")


def oma_outage_weak(params: SystemParams) -> float:
    """P(weak user's orthogonal rate < r0): CDF of the pair minimum."""
    theta = _rate_threshold(params.r0)
    return -math.expm1(-2.0 * theta / (params.beta * params.xi))


def oma_outage_strong(params: SystemParams) -> float:
    """P(strong user's orthogonal rate < r0): CDF of the pair maximum."""
    theta = _rate_threshold(params.r0)
    return math.expm1(-theta / (params.beta * params.xi)) ** 2


def alpha_pair(params: SystemParams) -> AlphaPair:
    """Threshold constructions for the weak user's lower-endpoint outage.

    alpha2 reduces exactly to (4**r0 - 1)/xi: the discriminant of the
    defining quadratic is (4**r0)^2/4, so the root collapses with no
    subtractive cancellation. alpha1_fn uses the factored denominator
    (s - 1)(s + 1 - 2**r0) with s = sqrt(1 + xi*x), equal to the direct
    form xi*x + 2**r0*(1 - s) but stable near the domain edge.
    """
    if params.r0 <= 0.0:
        raise DomainError(f"alpha_pair requires r0 > 0, got {params.r0}")
    xi = params.xi
    alpha2 = _rate_threshold(params.r0) / xi
    q = 2.0 ** params.r0

    def alpha1_fn(x: float) -> float:
        _require_positive("x", x)
        if math.sqrt(1.0 + xi * x) + 1.0 - q <= 0.0:
            raise DomainError(
                f"alpha1 undefined at x={x!r}: strong gain below the rate threshold")
        return float(_alpha1(x, xi, q))

    return AlphaPair(alpha1_fn=alpha1_fn, alpha2=alpha2)


def _alpha1(x, xi: float, q: float):
    """alpha1 at strong-user gain x (a float or an array), unchecked."""
    s = np.sqrt(1.0 + xi * x)
    return (q - 1.0) * (1.0 + s) / (xi * x * (s + 1.0 - q))


def noma_outage_weak_ainf(params: SystemParams) -> float:
    """P(weak user's NOMA rate at the lower endpoint < r0).

    No closed form exists; integrates 2*exp(-y*(alpha1(beta*y)+1)) over
    y = x/beta on [alpha2/beta, alpha2/beta + 29] and adds the frozen-alpha1
    analytic tail, which under-corrects by less than the 1e-12 truncation
    bound exp(-29)*exp(-alpha2/beta).
    """
    if params.r0 == 0.0:
        return 0.0
    pair = alpha_pair(params)
    beta, xi = params.beta, params.xi
    q = 2.0 ** params.r0
    y_lo = pair.alpha2 / beta
    if math.exp(-y_lo) == 0.0:
        # every other term is below the least double (and y_hi may be y_lo)
        return 1.0
    y_hi = y_lo + _TAIL_WIDTH

    def integrand(y: np.ndarray) -> np.ndarray:
        # alpha1(alpha2) = 1 exactly; guards roundoff just below the edge
        with np.errstate(divide="ignore", invalid="ignore"):
            a1 = np.where(y > y_lo, _alpha1(beta * y, xi, q), 1.0)
        return np.exp(-y * (a1 + 1.0))

    value, _ = integrate_interval(integrand, y_lo, y_hi)
    a1_tail = pair.alpha1_fn(beta * y_hi)
    tail = math.exp(-y_hi * (a1_tail + 1.0)) / (1.0 + a1_tail)
    p = 1.0 + math.exp(-2.0 * y_lo) - 2.0 * (float(value) + tail)
    return min(max(p, 0.0), 1.0)


def noma_outage_strong_asup(params: SystemParams) -> float:
    """P(strong user's NOMA rate at the upper endpoint < r0), closed form.

    Written with expm1 and the scaled complement erfcx so the Gaussian
    prefactor exp((2**r0-3)^2/(4*beta*xi)) never overflows: folding it into
    each erfc term leaves exponents -2(2**r0-1)/(beta*xi) and
    -2(4**r0-1)/(beta*xi) exactly.
    """
    if params.r0 == 0.0:
        return 0.0
    theta = _rate_threshold(params.r0)
    q = 2.0 ** params.r0
    bx = params.beta * params.xi
    sigma = 2.0 * (q - 1.0) / bx
    tau = 2.0 * theta / bx
    root = math.sqrt(bx)
    u1 = (q + 1.0) / (2.0 * root)
    u2 = (3.0 * q - 1.0) / (2.0 * root)
    bracket = math.exp(-sigma) * erfcx(u1) - math.exp(-tau) * erfcx(u2)
    p = (math.expm1(-tau) - 2.0 * math.expm1(-sigma)
         + (q - 1.0) * math.sqrt(math.pi / bx) * bracket)
    return min(max(p, 0.0), 1.0)


def outage_point(params: SystemParams) -> OutagePoint:
    """Evaluate all four closed/quadrature forms at one operating point."""
    return OutagePoint(
        xi=params.xi,
        r0=params.r0,
        p_oma_weak=oma_outage_weak(params),
        p_oma_strong=oma_outage_strong(params),
        p_noma_weak_ainf=noma_outage_weak_ainf(params),
        p_noma_strong_asup=noma_outage_strong_asup(params),
    )
