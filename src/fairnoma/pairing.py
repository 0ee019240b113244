"""Opportunistic pairing of the strongest and weakest of K i.i.d. users.

Order-statistic distributions for the (min, max) gain pair, the exact
high-SNR sum-rate gain of the upper allocation endpoint over orthogonal
access, and the printed approximation for the lower endpoint's gain. The
alternating binomial sum for the gain is evaluated with compensated
summation up to K = 30; beyond that the equivalent order-statistic integral
is used, since the sum's terms grow like 2^K and cancel catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_semi_infinite
from .errors import DomainError
from .specfun import _LN2, _LN4, EULER_GAMMA, digamma, exp_integral_e1_scaled
from .twouser import SystemParams, _require_positive

# largest K where the alternating sum keeps ~1e-6 absolute accuracy
_SUM_MAX_K = 30


@dataclass(frozen=True)
class MinMaxPair:
    """Weakest and strongest gain drawn from a pool of k users."""

    g_min: float
    g_max: float
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"pool size must be a positive integer, got {self.k!r}")
        if not (0.0 < self.g_min <= self.g_max and math.isfinite(self.g_max)):
            raise DomainError(
                f"need 0 < g_min <= g_max, got ({self.g_min!r}, {self.g_max!r})")


def _check_pool(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"pool size must be an integer >= 2, got {k!r}")


def minmax_joint_cdf(x0: float, xm: float, k: int, beta: float = 1.0) -> float:
    """P(g_min <= x0, g_max <= xm) for the extremes of k i.i.d. gains."""
    _check_pool(k)
    _require_positive("beta", beta)
    if not (0.0 <= x0 <= xm):
        raise DomainError(f"need 0 <= x0 <= xm, got ({x0!r}, {xm!r})")
    em = math.exp(-xm / beta)
    e0 = math.exp(-x0 / beta)
    return (1.0 - em) ** k - (e0 - em) ** k


def minmax_joint_pdf(x0: float, xm: float, k: int, beta: float = 1.0) -> float:
    """Joint density of (g_min, g_max) on the wedge 0 < x0 < xm."""
    _check_pool(k)
    _require_positive("beta", beta)
    if not (0.0 < x0 < xm):
        raise DomainError(f"density defined only for 0 < x0 < xm, got ({x0!r}, {xm!r})")
    e0 = math.exp(-x0 / beta)
    em = math.exp(-xm / beta)
    return (k * (k - 1) / beta ** 2) * e0 * em * (e0 - em) ** (k - 2)


def sample_minmax(k: int, beta: float, rng: np.random.Generator) -> MinMaxPair:
    """Draw k i.i.d. Exponential(mean beta) gains, keep the extremes."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"pool size must be a positive integer, got {k!r}")
    _require_positive("beta", beta)
    g = -beta * np.log1p(-rng.random(k))
    return MinMaxPair(g_min=float(g.min()), g_max=float(g.max()), k=k)


def sample_minmax_many(k: int, beta: float, rng: np.random.Generator,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sample_minmax: n pools at once, returns (mins, maxes)."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"pool size must be a positive integer, got {k!r}")
    _require_positive("beta", beta)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
    g = -beta * np.log1p(-rng.random((n, k)))
    return g.min(axis=1), g.max(axis=1)


def _gain_sum(k: int) -> float:
    """Compensated alternating binomial sum for the high-SNR gain."""
    total = 0.5 * math.log2(k)
    carry = 0.0
    for m in range(2, k + 1):
        term = 0.5 * math.comb(k, m) * math.log2(m)
        if m % 2:
            term = -term
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _gain_integral(k: int) -> float:
    """Equivalent order-statistic route: (E[ln g_max] - E[ln g_min]) / ln 4.

    Scale-free, so beta = 1: E[ln g_min] = -ln k - gamma analytically; the
    max term integrates ln(y) against its marginal, with the (k-1) power
    taken through log1p for large k.
    """
    def integrand(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return (math.log(y) * k * math.exp(-y + (k - 1) * math.log1p(-math.exp(-y))))

    e_ln_max, _ = integrate_semi_infinite(integrand, scale=max(1.0, math.log(k)))
    e_ln_min = -EULER_GAMMA - math.log(k)
    return (e_ln_max - e_ln_min) / _LN4


def expected_gain_asup_detailed(k: int) -> tuple[float, str]:
    """High-SNR mean sum-rate gain at the upper endpoint, plus which
    evaluation path produced it ('sum' or 'integral')."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"pool size must be a positive integer, got {k!r}")
    if k == 1:
        return 0.0, "sum"
    if k <= _SUM_MAX_K:
        return _gain_sum(k), "sum"
    return _gain_integral(k), "integral"


def expected_gain_asup(k: int) -> float:
    """High-SNR limit of E[sum-rate gain] when the strongest/weakest of k
    users are paired at the upper allocation endpoint."""
    return expected_gain_asup_detailed(k)[0]


def expected_gain_ainf_approx(k: int, params: SystemParams) -> float:
    """Printed approximation of E[sum-rate gain] at the lower endpoint.

    Uses H_k = digamma(k+1) + gamma; the log term is rewritten as
    log1p(xi/(k*(1+sqrt(1+xi*H_k)))), identical to the surd quotient form
    but exact near zero.
    """
    _check_pool(k)
    h_k = digamma(float(k + 1)) + EULER_GAMMA
    bx = params.beta * params.xi
    e1_term = exp_integral_e1_scaled(k / bx) / _LN4
    log_term = math.log1p(params.xi / (k * (1.0 + math.sqrt(1.0 + params.xi * h_k)))) / _LN2
    return e1_term - log_term
