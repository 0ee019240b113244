"""Opportunistic pairing of the strongest and weakest of K i.i.d. users.

Order-statistic distributions for the (min, max) gain pair, the exact
high-SNR sum-rate gain of the upper allocation endpoint over orthogonal
access, and the printed approximation for the lower endpoint's gain. The
gain is the order-statistic integral for every K; the equivalent
alternating binomial sum has terms that grow like 2^K and cancel
catastrophically. The pool draws themselves are the Monte Carlo engine's
(``mcsim``).
"""

from __future__ import annotations

import math

import numpy as np

from ._quad import integrate_semi_infinite
from .errors import (DomainError, _require_int, _require_positive,
                     _require_real)
from .specfun import _LN2, _LN4, EULER_GAMMA, exp_integral_e1_scaled
from .twouser import SystemParams


def minmax_joint_cdf(x0: float, xm: float, k: int, beta: float = 1.0) -> float:
    """P(g_min <= x0, g_max <= xm) for the extremes of k i.i.d. gains."""
    k = _require_int("pool size", k, 2)
    beta = _require_positive("beta", beta)
    x0, xm = _require_real("x0", x0), _require_real("xm", xm)
    if not (0.0 <= x0 <= xm):
        raise DomainError(f"need 0 <= x0 <= xm, got ({x0!r}, {xm!r})")
    em = math.exp(-xm / beta)
    e0 = math.exp(-x0 / beta)
    return (1.0 - em) ** k - (e0 - em) ** k


def minmax_joint_pdf(x0: float, xm: float, k: int, beta: float = 1.0) -> float:
    """Joint density of (g_min, g_max) on the wedge 0 < x0 < xm."""
    k = _require_int("pool size", k, 2)
    beta = _require_positive("beta", beta)
    x0, xm = _require_real("x0", x0), _require_real("xm", xm)
    if not (0.0 < x0 < xm):
        raise DomainError(f"density defined only for 0 < x0 < xm, got ({x0!r}, {xm!r})")
    e0 = math.exp(-x0 / beta)
    em = math.exp(-xm / beta)
    return (k * (k - 1) / beta ** 2) * e0 * em * (e0 - em) ** (k - 2)


def expected_gain_asup(k: int) -> float:
    """High-SNR limit of E[sum-rate gain] when the strongest/weakest of k
    users are paired at the upper allocation endpoint (0 for k = 1).

    The order-statistic form (E[ln g_max] - E[ln g_min]) / ln 4. It is
    scale-free, so beta = 1: E[ln g_min] = -ln k - gamma analytically; the
    max term integrates ln(y) against its marginal, with the (k-1) power
    taken through log1p for large k.
    """
    k = _require_int("pool size", k)
    if k == 1:
        return 0.0

    def integrand(y: np.ndarray) -> np.ndarray:
        return np.log(y) * k * np.exp(-y + (k - 1) * np.log1p(-np.exp(-y)))

    e_ln_max, _ = integrate_semi_infinite(integrand, scale=max(1.0, math.log(k)))
    e_ln_min = -EULER_GAMMA - math.log(k)
    return (float(e_ln_max) - e_ln_min) / _LN4


def expected_gain_ainf_approx(k: int, params: SystemParams) -> float:
    """Printed approximation of E[sum-rate gain] at the lower endpoint.

    Uses the exactly rounded harmonic number H_k; the log term is
    rewritten as log1p(xi/(k*(1+sqrt(1+xi*H_k)))), identical to the surd
    quotient form but exact near zero.
    """
    k = _require_int("pool size", k, 2)
    h_k = math.fsum(1.0 / i for i in range(1, k + 1))
    bx = params.beta * params.xi
    e1_term = exp_integral_e1_scaled(k / bx) / _LN4
    log_term = math.log1p(params.xi / (k * (1.0 + math.sqrt(1.0 + params.xi * h_k)))) / _LN2
    return e1_term - log_term
