"""Two-user downlink NOMA system model.

Instantaneous OMA/NOMA capacities for an ordered pair of channel SNR gains,
the fair power-allocation region [a_inf, a_sup] in which NOMA beats OMA for
both users simultaneously, and the high-SNR capacity approximations. The
public functions return rates in b/s/Hz; the transmit SNR ``xi`` is linear
(dB conversion happens only at the CLI boundary).

Each per-draw formula is written once, on arrays of instantaneous SNRs
``w = xi*g``, each step into ``out`` (and ``tmp``) when given. The rate
helpers return nats, the capacity of the whole band: the scalar API
evaluates them on a one-element array and converts with ``_to_bits``, the
Monte Carlo kernels on blocks of a chunk, whose moments are converted once
per grid point. The same ufuncs run in the same order, so both give the
same per-draw bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, _require_positive, _require_rate,
                     _require_real)
from .specfun import _LN2


@dataclass(frozen=True)
class SystemParams:
    """Link-level parameters shared by every operation.

    ``xi``: linear transmit SNR; ``beta``: mean of the exponential channel
    SNR gains; ``r0``: minimum target rate in b/s/Hz (used by outage ops).
    """

    xi: float
    beta: float = 1.0
    r0: float = 0.0

    def __post_init__(self):
        # stored as checked, so no threshold is computed in float32
        object.__setattr__(self, "xi", _require_positive("xi", self.xi))
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))
        object.__setattr__(self, "r0", _require_rate("r0", self.r0))


@dataclass(frozen=True)
class ChannelPair:
    """Ordered pair of channel SNR gains, weaker first (0 < g1 <= g2)."""

    g1: float
    g2: float

    def __post_init__(self):
        object.__setattr__(self, "g1", _require_positive("g1", self.g1))
        object.__setattr__(self, "g2", _require_positive("g2", self.g2))
        if self.g1 > self.g2:
            raise DomainError(
                f"ChannelPair requires g1 <= g2, got ({self.g1!r}, {self.g2!r});"
                " pass the weaker gain first")


@dataclass(frozen=True)
class FairRegion:
    """Allocation interval [a_inf, a_sup] for the strong user's power share."""

    a_inf: float
    a_sup: float

    def __post_init__(self):
        object.__setattr__(self, "a_inf", _require_real("a_inf", self.a_inf))
        object.__setattr__(self, "a_sup", _require_real("a_sup", self.a_sup))
        if not (0.0 < self.a_inf <= self.a_sup < 1.0):
            raise DomainError(
                f"FairRegion requires 0 < a_inf <= a_sup < 1, got "
                f"({self.a_inf!r}, {self.a_sup!r})")

    @property
    def width(self) -> float:
        return self.a_sup - self.a_inf


def _one(x: float) -> np.ndarray:
    """``x`` as a one-element float array (on 0-d input ufuncs return
    scalars, which take no ``out=``)."""
    return np.array([x], dtype=float)


def _share_bound(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1.0 / (1.0 + np.sqrt(1.0 + w))``: the bound a(x) at SNR w = xi*x."""
    out = np.add(1.0, w, out=out)
    np.sqrt(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _oma_rate(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.log1p(w)``: the capacity of the whole band at SNR w, in nats; a
    1/k orthogonal share has 1/k of it."""
    return np.log1p(w, out=out)


def _to_bits(nats: np.ndarray, k: int = 1) -> np.ndarray:
    """``nats / (k * _LN2)``, in place: the rate in b/s/Hz of a 1/k share of
    a band whose capacity is ``nats`` (at k = 2 exactly ``0.5 * nats /
    _LN2``, as 2 * _LN2 is exact)."""
    return np.divide(nats, k * _LN2, out=nats)


def _rate_threshold(r0: float, k: int = 2) -> float:
    """2**(k*r0) - 1, accurate for small r0: the SINR below which the
    capacity of a 1/k orthogonal share (``_oma_rate``), or at k = 1 a NOMA
    capacity, falls short of rate r0; outage is a strict ``<`` against it.
    Every outage computation calls it at k = 2 before any other power of
    r0, so an r0 whose threshold overflows a double (above about 512) is
    refused here."""
    try:
        return math.expm1(r0 * (k * _LN2))
    except OverflowError:
        raise DomainError(f"target rate r0 = {r0!r} b/s/Hz needs an SNR"
                          f" threshold 2**({k}*r0) - 1 beyond a double"
                          ) from None


def _sinr(w: np.ndarray, own, rest, out: np.ndarray | None = None,
          tmp: np.ndarray | None = None) -> np.ndarray:
    """``own * w / (rest * w + 1.0)``: the SINR of share ``own`` under the
    undecoded share ``rest``; ``out`` may be ``own``."""
    out = np.multiply(own, w, out=out)
    tmp = np.multiply(rest, w, out=tmp)
    np.add(tmp, 1.0, out=tmp)
    return np.divide(out, tmp, out=out)


def _capacity(sinr: np.ndarray) -> np.ndarray:
    """``np.log1p(sinr)``, in place: the capacity at that SINR, in nats."""
    return np.log1p(sinr, out=sinr)


def _strong_rate(w: np.ndarray, a, out: np.ndarray | None = None) -> np.ndarray:
    """The strong user's NOMA capacity after SIC, in nats: its SINR is
    ``a * w``."""
    return _capacity(np.multiply(a, w, out=out))


def _weak_sinr(w: np.ndarray, a, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """The weak user's SINR under strong-user share ``a``, written into
    ``out``; ``tmp`` is overwritten."""
    np.subtract(1.0, a, out=out)
    return _sinr(w, out, a, out=out, tmp=tmp)


def _weak_rate(w: np.ndarray, a, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """The weak user's NOMA capacity under strong-user share ``a``, in nats,
    written into ``out``; ``tmp`` is overwritten."""
    return _capacity(_weak_sinr(w, a, out, tmp))


def oma_capacity(xi: float, g: float) -> float:
    """Half-bandwidth orthogonal-access capacity, (1/2) log2(1 + xi*g)."""
    w = _require_positive("xi", xi) * _require_positive("g", g)
    return _to_bits(_oma_rate(_one(w)), 2).item()


def _check_share(a) -> float:
    share = _require_real("power share a", a)
    if not 0.0 <= share <= 1.0:
        raise DomainError(f"power share a must lie in [0, 1], got {a!r}")
    return share


def noma_capacity_weak(xi: float, g1: float, a: float) -> float:
    """Weak-user NOMA capacity log2(1 + (1-a) xi g1 / (a xi g1 + 1)).

    The weak user decodes while treating the strong user's share ``a`` as
    interference; monotone decreasing in ``a``.
    """
    w = _require_positive("xi", xi) * _require_positive("g1", g1)
    return _to_bits(_weak_rate(_one(w), _check_share(a), _one(0.0),
                               _one(0.0))).item()


def noma_capacity_strong(xi: float, g2: float, a: float) -> float:
    """Strong-user NOMA capacity log2(1 + a xi g2), interference-free after SIC."""
    w = _require_positive("xi", xi) * _require_positive("g2", g2)
    return _to_bits(_strong_rate(_one(w), _check_share(a))).item()


def allocation_bound(xi: float, x: float) -> float:
    """The bound a(x) = (sqrt(1 + xi*x) - 1)/(xi*x), in (0, 1/2).

    Evaluated as 1/(1 + sqrt(1 + xi*x)), which is cancellation-free and makes
    the xi*x -> 0 limit of 1/2 exact.
    """
    w = _require_positive("xi", xi) * _require_positive("x", x)
    return _share_bound(_one(w)).item()


def fair_region(params: SystemParams, ch: ChannelPair) -> FairRegion:
    """Allocation interval on which NOMA is no worse than OMA for both users.

    The lower endpoint makes the strong user indifferent
    (C2_N(a_inf) = C2_O), the upper one the weak user (C1_N(a_sup) = C1_O).
    """
    return FairRegion(a_inf=allocation_bound(params.xi, ch.g2),
                      a_sup=allocation_bound(params.xi, ch.g1))


def sum_rate(xi: float, ch: ChannelPair, a: float) -> float:
    """NOMA sum rate S_N(a) = C1_N(a) + C2_N(a); monotone increasing in a."""
    return (noma_capacity_weak(xi, ch.g1, a)
            + noma_capacity_strong(xi, ch.g2, a))


class HighSnrCapacities(NamedTuple):
    c1_oma: float
    c2_oma: float
    c1_ainf: float
    c2_asup: float


def high_snr_capacities(xi: float, ch: ChannelPair) -> HighSnrCapacities:
    """High-SNR approximations of the four per-user capacities.

    Returns (1/2)log2(xi g1), (1/2)log2(xi g2), (1/2)log2(xi g2), and
    log2(sqrt(xi/g1) g2). Meaningful when xi*g1 >> 1; no regime check is
    enforced.
    """
    xi = _require_positive("xi", xi)
    half_log_xi = 0.5 * math.log(xi) / _LN2
    log_g1 = math.log(ch.g1) / _LN2
    log_g2 = math.log(ch.g2) / _LN2
    return HighSnrCapacities(
        c1_oma=half_log_xi + 0.5 * log_g1,
        c2_oma=half_log_xi + 0.5 * log_g2,
        c1_ainf=half_log_xi + 0.5 * log_g2,
        c2_asup=half_log_xi - 0.5 * log_g1 + log_g2,
    )
