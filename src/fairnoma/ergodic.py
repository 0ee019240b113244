"""Ergodic (expected) capacities over i.i.d. Rayleigh fading for a two-user
downlink, with the channel SNR gains of the ordered pair drawn from the
density (2/beta^2) e^{-(x1+x2)/beta} on 0 < x1 < x2.

Closed forms cover OMA; the NOMA endpoints E[C1_N(a_inf)] and E[C2_N(a_sup)]
combine a closed term with a semi-infinite integral evaluated by adaptive
quadrature on the mapped interval u = x/(x+beta); the two integrals share
their node set and are evaluated as one. The integrands are reduced
analytically before coding: with s = sqrt(1+xi*x), the exponential prefactor
exp((s+1)/(beta*xi) - x/beta) folds into the scaled exponential integral as
exp(-x/beta)*e1s((s+1)/(beta*xi)) and exp(-2x/beta)*e1s(s(s+1)/(beta*xi)),
which keeps every factor bounded at any SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import integrate_semi_infinite
from .errors import DomainError
from .specfun import (_LN2, _LN4, EULER_GAMMA, exp_integral_e1_scaled,
                      exp_integral_e1_scaled_array)
from .twouser import SystemParams


@dataclass(frozen=True)
class ErgodicCurvePoint:
    """Closed-form expected capacities at one transmit SNR (all b/s/Hz)."""

    xi: float
    e_c1_oma: float
    e_c2_oma: float
    e_s_oma: float
    e_c1_noma_ainf: float
    e_c2_noma_asup: float


def ergodic_oma(params: SystemParams) -> tuple[float, float, float]:
    """Expected OMA capacities (weak user, strong user, sum).

    E[C1_O] = e^{2/(bx)} E1(2/(bx)) / ln4 and E[S_O] = e^{1/(bx)} E1(1/(bx)) / ln2
    with bx = beta*xi; the strong user gets the difference.
    """
    bx = params.beta * params.xi
    e_c1 = exp_integral_e1_scaled(2.0 / bx) / _LN4
    e_s = exp_integral_e1_scaled(1.0 / bx) / _LN2
    e_c2 = e_s - e_c1
    return e_c1, e_c2, e_s


def _endpoint_integrand(params: SystemParams) -> Callable[[np.ndarray], np.ndarray]:
    """(2, n) values of the weak (a_inf) and strong (a_sup) integrands; both
    carry the far term exp(-2x/beta) * e1s(s(s+1)/(beta*xi))."""
    beta, xi = params.beta, params.xi
    bx = beta * xi
    coeff = 2.0 / (beta * _LN2)

    def f(x: np.ndarray) -> np.ndarray:
        s = np.sqrt(1.0 + xi * x)
        e1s = exp_integral_e1_scaled_array(
            np.concatenate(((s + 1.0) / bx, s * (s + 1.0) / bx)))
        near = np.exp(-x / beta) * e1s[:x.size]
        far = np.exp(-2.0 * x / beta) * e1s[x.size:]
        return coeff * np.stack((near - far, far))

    return f


def _noma_endpoints(params: SystemParams, rel_tol: float) -> tuple:
    """((E[C1_N(a_inf)], E[C2_N(a_sup)]), their quadrature error estimates),
    from one two-component integral."""
    e1s = exp_integral_e1_scaled(2.0 / (params.beta * params.xi))
    integral, err = integrate_semi_infinite(
        _endpoint_integrand(params), scale=params.beta, rel_tol=rel_tol)
    values = (3.0 * e1s / _LN4 - float(integral[0]),
              e1s / _LN4 + float(integral[1]))
    return values, (float(err[0]), float(err[1]))


def ergodic_noma_weak_ainf(params: SystemParams, rel_tol: float = 1e-8) -> float:
    """Expected weak-user NOMA capacity at the lower region endpoint a_inf."""
    return _noma_endpoints(params, rel_tol)[0][0]


def ergodic_noma_weak_ainf_with_estimate(
        params: SystemParams, rel_tol: float = 1e-8) -> tuple[float, float]:
    """Same as :func:`ergodic_noma_weak_ainf` plus the quadrature error estimate."""
    values, errs = _noma_endpoints(params, rel_tol)
    return values[0], errs[0]


def ergodic_noma_strong_asup(params: SystemParams, rel_tol: float = 1e-8) -> float:
    """Expected strong-user NOMA capacity at the upper region endpoint a_sup."""
    return _noma_endpoints(params, rel_tol)[0][1]


def ergodic_noma_strong_asup_with_estimate(
        params: SystemParams, rel_tol: float = 1e-8) -> tuple[float, float]:
    """Same as :func:`ergodic_noma_strong_asup` plus the quadrature error estimate."""
    values, errs = _noma_endpoints(params, rel_tol)
    return values[1], errs[1]


def expected_gain(params: SystemParams, a_choice: str,
                  rel_tol: float = 1e-8) -> float:
    """Expected sum-rate gain E[S_N(a)] - E[S_O] at a region endpoint.

    At a_inf the strong user is indifferent and the gain is carried entirely
    by the weak user; at a_sup it is the reverse. Approaches 1 b/s/Hz for
    either choice as xi grows.
    """
    e_c1, e_c2, _ = ergodic_oma(params)
    if a_choice == "inf":
        return ergodic_noma_weak_ainf(params, rel_tol) - e_c1
    if a_choice == "sup":
        return ergodic_noma_strong_asup(params, rel_tol) - e_c2
    raise DomainError(f"a_choice must be 'inf' or 'sup', got {a_choice!r}")


def ergodic_curve_point(params: SystemParams,
                        rel_tol: float = 1e-8) -> ErgodicCurvePoint:
    """All five closed-form expected capacities at one transmit SNR."""
    e_c1, e_c2, e_s = ergodic_oma(params)
    (c1_ainf, c2_asup), _ = _noma_endpoints(params, rel_tol)
    return ErgodicCurvePoint(
        xi=params.xi,
        e_c1_oma=e_c1,
        e_c2_oma=e_c2,
        e_s_oma=e_s,
        e_c1_noma_ainf=c1_ainf,
        e_c2_noma_asup=c2_asup,
    )


def high_snr_ergodic_approx(params: SystemParams) -> tuple[float, float]:
    """High-SNR asymptotes of E[C1_N(a_inf)] and E[C2_N(a_sup)].

    Averaging the instantaneous approximations over the ordered exponential
    pair uses E[ln g_max] = ln(2 beta) - gamma and E[ln g_min] = ln(beta/2)
    - gamma, giving (1/2)log2(xi beta) + 1/2 - gamma/ln4 for the weak user
    and the same plus exactly 1 b/s/Hz for the strong user.
    """
    half = 0.5 * math.log(params.xi * params.beta) / _LN2
    shift = EULER_GAMMA / _LN4
    approx_c1 = half + 0.5 - shift
    return approx_c1, approx_c1 + 1.0
