"""Adaptive Gauss-Kronrod quadrature on arrays, shared by the closed-form
modules.

One engine: the 21-point Gauss-Kronrod rule G10K21 with QUADPACK's ``qk21``
error scaling (Piessens et al., *QUADPACK*, 1983). Each round evaluates the
integrand once, on the nodes of every panel that round opened. An integrand
takes a 1-D array of abscissae and returns its values with the abscissae on
the last axis, so one call can carry several components that share their
node set; the value and the error estimate then have the integrand's
leading shape, () for a scalar integrand.

Every integral is taken over [0, 1], after the caller's map, so the first
round is fixed: the panels of ``_START``, their abscissae and half-widths
are built once, not per call. A round costs one integrand call plus about
thirty numpy calls on arrays of (components, panels, 21) values, whatever
their size: one einsum for the Kronrod sums, which every value is built on,
two BLAS products for the Gauss sums and the integrals of |f| and
|f - mean|, and elementwise passes for qk21's scaling. At the few dozen
panels of a closed form that fixed cost is the round: 40 to 55 us for
exp(-x) on [0, 1] on a shared 2-CPU Xeon, where the integrand takes 2 us.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

# G10K21 on [-1, 1] (QUADPACK qk21): the nonnegative Kronrod abscissae in
# descending order with their weights; the 10-point Gauss rule uses the odd
# entries 1, 3, ..., 9 with the weights _WG
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208980221825, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_NODES = np.array([-v for v in _XK[:-1]] + list(_XK[::-1]))
_KRONROD = np.array(_WK[:-1] + _WK[::-1])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
# qk21's floor on an estimate, per unit integral of |f|
_FLOOR = 50.0 * np.finfo(float).eps

# First panels on [0, 1]: graded geometrically toward 0, by factors of 8
# from 2^-40 to 2^-4, then eighths. The closed-form integrands change on the
# scale 1/xi near the left end; with this start the ergodic endpoints
# converge without bisection from -10 to 120 dB.
_START = np.concatenate(([0.0], 2.0 ** np.arange(-40.0, -3.0, 3.0),
                         np.arange(1, 9) / 8.0))
# bisection rounds after the first evaluation; each round at most doubles the
# panel count, so this also bounds the memory of one integral
_MAX_ROUNDS = 10


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray],
                            scale: float = 1.0, rel_tol: float = 1e-8,
                            abs_tol: float = 1e-12) -> tuple:
    """Integrate ``f`` over [0, inf) via the map x = scale*u/(1-u), u in [0, 1).

    ``scale`` should match the natural decay length of the integrand.
    Returns ``(value, err_estimate)`` under :func:`_integrate`'s error
    contract.
    """
    def mapped(u: np.ndarray) -> np.ndarray:
        r = 1.0 - u
        return f(scale * u / r) * (scale / (r * r))

    return _integrate(mapped, rel_tol, abs_tol)


def integrate_unit_interval(f: Callable[[np.ndarray], np.ndarray],
                            rel_tol: float = 1e-10,
                            abs_tol: float = 0.0) -> tuple:
    """Integrate ``f`` over [0, 1], with no map, under :func:`_integrate`'s
    error contract."""
    return _integrate(f, rel_tol, abs_tol)


def _integrate(f: Callable[[np.ndarray], np.ndarray], rel_tol: float,
               abs_tol: float) -> tuple:
    """``(value, err_estimate)`` of the integral over [0, 1] once every
    component's summed estimate is at most ``max(abs_tol, rel_tol*|value|)``.

    Each round bisects the panels whose estimate, in some component not yet
    converged, exceeds that component's target times the panel's width;
    raises :class:`QuadratureError` after ``_MAX_ROUNDS`` rounds, or when no
    panel can be split (a NaN estimate). The public helpers call this
    rather than each other, so a wrapper around one of them (as perfbench's
    tracer installs) sees each integral once.
    """
    lo, hi, x, half = _FIRST_ROUND
    shape, res = _gk21(f, x, half)
    for rounds in range(_MAX_ROUNDS + 1):
        value, estimate = res.sum(axis=2)
        target = np.maximum(abs_tol, rel_tol * np.abs(value))
        met = estimate <= target
        if met.all():
            return value.reshape(shape), estimate.reshape(shape)
        open_ = ~met
        split = (res[1, open_] > target[open_, None] * (hi - lo)).any(axis=0)
        if rounds == _MAX_ROUNDS or not split.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        _, new_res = _gk21(f, *_nodes(new_lo, new_hi))
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        res = np.concatenate((res[:, :, keep], new_res), axis=2)
    worst = int(np.argmax(estimate / target))
    raise QuadratureError(
        f"quadrature did not converge (bisection rounds: {rounds}): error"
        f" estimate {estimate[worst]:.3e} exceeds target {target[worst]:.3e}",
        value=value.reshape(shape).tolist(),
        estimate=estimate.reshape(shape).tolist())


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """``(abscissae, half-widths)`` of G10K21 on the panels [lo, hi]; the
    abscissae flat, panel by panel."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    return x.ravel(), half


def _first_round(start: np.ndarray) -> tuple:
    """``(lo, hi, abscissae, half-widths)`` of the panels between successive
    points of ``start``, read-only."""
    first = (start[:-1], start[1:]) + _nodes(start[:-1], start[1:])
    for array in first:
        array.flags.writeable = False
    return first


# the first round of every integral, shared by every call
_FIRST_ROUND = _first_round(_START)


def _gk21(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
          half: np.ndarray) -> tuple:
    """(integrand leading shape, (2, m, panels) array of the integrals and
    their error estimates) of G10K21 on the panels whose abscissae are ``x``
    and half-widths ``half``, with qk21's scaling: the Gauss-Kronrod
    difference is weighed against the integrand's variation on the panel,
    and floored at 50 eps times the integral of |f|.

    The integrals keep their exact einsum reduction; the Gauss sum and the
    two integrals of |f| and of |f - mean| are BLAS products, the latter two
    in one call."""
    fx = np.asarray(f(x))
    shape = fx.shape[:-1]
    fx = fx.reshape(-1, half.size, _NODES.size)
    # the value, the estimate, the integrals of |f| and |f - mean|, and
    # the ratio of the qk21 scaling, zero where it is not taken
    out = np.zeros((5,) + fx.shape[:2])
    kronrod, err, resabs, resasc, ratio = out
    np.einsum("mpn,n->mp", fx, _KRONROD, out=kronrod)
    np.matmul(fx, _GAUSS, out=err)
    np.subtract(kronrod, err, out=err)
    np.abs(err, out=err)
    # fx less 0 and less its mean, both made absolute in one pass
    mean = np.zeros((2,) + kronrod.shape + (1,))
    np.multiply(0.5, kronrod, out=mean[1, ..., 0])
    dev = np.subtract(fx, mean)
    np.abs(dev, out=dev)
    np.matmul(dev, _KRONROD, out=out[2:4])
    np.multiply(out[:4], half, out=out[:4])
    # err = resasc * min(1, (200 err / resasc)^1.5) unless either is zero
    scaled = np.minimum(err, resasc) != 0.0
    np.divide(200.0 * err, resasc, out=ratio, where=scaled)
    np.power(ratio, 1.5, out=ratio)
    np.minimum(1.0, ratio, out=ratio)
    np.multiply(resasc, ratio, out=err, where=scaled)
    np.maximum(err, _FLOOR * resabs, out=err)
    return shape, out[:2]
