"""Outage probabilities below a target rate r0 for the ordered two-user pair.

Covers orthogonal access for both users, in closed form, and fair
power-domain NOMA at the allocation-region endpoints: the weak user at the
lower endpoint (its best case) and the strong user at the upper endpoint.
Neither NOMA endpoint has a closed form; both are one two-component
Gauss-Kronrod integral over the outage region itself, whose terms are all
positive, so the probabilities stay accurate relative to their size at
every SNR instead of cancelling against 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_interval
from .errors import DomainError
from .twouser import SystemParams, _rate_threshold


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
        # relative, so the bound holds however small the probabilities are
        bound = 1.0 + 1e-9
        if (self.p_noma_weak_ainf > self.p_oma_weak * bound
                or self.p_noma_strong_asup > self.p_oma_strong * bound):
            raise DomainError("fair endpoints cannot be worse than orthogonal access")


def _noma_endpoints(params: SystemParams) -> tuple[float, float]:
    """(weak user at a_inf, strong user at a_sup), from one two-component
    integral over u in [0, 1] of the outage regions themselves.

    With q = 2^r0, theta = q^2 - 1, bx = xi beta, and s = sqrt(1 + xi x)
    at a gain x of the ordered pair (x1 < x2):

    - weak: in outage unless x2 >= theta/xi and x1 >= x2 alpha1(x2), so
      P = expm1(-y_lo)^2 + 2 int_{y_lo}^inf e^-y (-expm1(-y alpha1)) dy
      with y = x2/beta and y_lo = theta/bx. At x = x2 and s = q + v,
      y - y_lo = v (v + 2q)/bx and y alpha1 = (q - 1)(1 + q/(1 + v))/bx;
      v = c u/(1 - u), c twice the v where y - y_lo = 1;
    - strong: in outage when x2 - x1 < (1 + s)(q - s)/xi at x = x1 < theta/xi,
      so P = int (2/beta) e^(-2 x1/beta) (-expm1(-(1 + s)(q - s)/bx)) dx1;
      s = 1 + m u, m = min(q, sqrt(1 + 40 bx)) - 1 (the cap drops mass
      below e^-80).

    No term cancels, so both probabilities are accurate to the quadrature's
    relative tolerance however small they are.
    """
    if params.r0 == 0.0:
        return 0.0, 0.0
    theta = _rate_threshold(params.r0)
    bx = params.beta * params.xi
    qm1 = _rate_threshold(params.r0, 1)
    q = 1.0 + qm1
    if math.exp(-2.0 * qm1 / bx) == 0.0:
        # the strong user's gap stays above 700 mean gains up to the cap:
        # both probabilities are 1 in double precision, and the quadrature
        # would round them down
        return 1.0, 1.0
    y_lo = theta / bx
    c = 2.0 * bx / (math.sqrt(1.0 + theta + bx) + q)
    m = min(qm1, 40.0 * bx / (math.sqrt(1.0 + 40.0 * bx) + 1.0))

    def integrand(u: np.ndarray) -> np.ndarray:
        # each component is e^-X * P * expm1(-G), the sign folded into the
        # scale factors below, and written into one (2, n) array
        out = np.empty((2, u.size))
        r = 1.0 - u
        v = c * u / r
        s = v + q
        np.multiply(np.exp(v * (s + q) / -bx) * s / (r * r),
                    np.expm1((s + 1.0) / (v + 1.0) * (-qm1 / bx)), out=out[0])
        d = m * u
        np.multiply(np.exp(d * (2.0 + d) * (-2.0 / bx)) * (1.0 + d),
                    np.expm1((2.0 + d) * ((m - qm1) / bx - m / bx * r)),
                    out=out[1])
        return out

    (weak, strong), _ = integrate_interval(integrand, 0.0, 1.0, abs_tol=0.0)
    p_weak = math.expm1(-y_lo) ** 2 - 4.0 * c / bx * math.exp(-y_lo) * weak
    return min(float(p_weak), 1.0), min(float(-4.0 * m / bx * strong), 1.0)


def outage_point(params: SystemParams) -> OutagePoint:
    """Evaluate all four outage probabilities at one operating point.

    The orthogonal ones are the CDFs of the pair minimum and maximum at the
    half-share threshold: 1 - e^{-2 theta/bx} and (1 - e^{-theta/bx})^2.
    """
    p_weak, p_strong = _noma_endpoints(params)
    theta = _rate_threshold(params.r0)
    bx = params.beta * params.xi
    return OutagePoint(
        xi=params.xi,
        r0=params.r0,
        p_oma_weak=-math.expm1(-2.0 * theta / bx),
        p_oma_strong=math.expm1(-theta / bx) ** 2,
        p_noma_weak_ainf=p_weak,
        p_noma_strong_asup=p_strong,
    )
