"""K-user downlink NOMA with SIC in gain order.

Orthogonal access gives user k a 1/K time share; NOMA superposes all K
signals and user k decodes (and cancels) every weaker user first. Two power
vectors are built here: the minimum-power b-vector, which reproduces each
user's orthogonal capacity exactly while spending strictly less than the
full budget, and the full a-vector, which spends the budget except for a
nonnegative ladder residual and gives every user at least the orthogonal
capacity. Each rate function returns all K rates, weakest user first.
Fractional powers of 1+w go through expm1/log1p so large w and K lose no
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_positive, _require_rate, _require_real
from .twouser import _capacity, _oma_rate, _sinr, _snr, _to_bits


_ALLOC_KINDS = ("b_min", "a_full")


@dataclass(frozen=True)
class ChannelSet:
    """Ascending instantaneous gains for K users sharing one carrier."""

    gains: tuple

    def __post_init__(self):
        gains = tuple(_require_positive("gains", g) for g in self.gains)
        if not gains:
            raise DomainError("need at least one user")
        if any(a > b for a, b in zip(gains, gains[1:])):
            raise DomainError("gains must be sorted ascending")
        object.__setattr__(self, "gains", gains)

    @property
    def k(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class AllocationVector:
    """Per-user power fractions plus the unspent remainder of the budget."""

    coeffs: tuple
    residual: float
    kind: str

    def __post_init__(self):
        if self.kind not in _ALLOC_KINDS:
            raise DomainError(f"kind must be one of {_ALLOC_KINDS}, got {self.kind!r}")
        coeffs = tuple(_require_real("coefficients", c) for c in self.coeffs)
        for c in coeffs:
            # the single-user edge spends the whole budget, hence <= 1
            if not (0.0 < c <= 1.0):
                raise DomainError(f"coefficients must lie in (0, 1], got {c!r}")
        residual = _require_real("residual", self.residual)
        if not residual >= -1e-12:   # NaN fails too
            raise DomainError(f"residual must be nonnegative, got {residual!r}")
        if abs(math.fsum(coeffs) + residual - 1.0) > 1e-9:
            raise DomainError("coefficients plus residual must spend exactly the budget")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "residual", residual)


def _snrs(xi: float, channels: ChannelSet) -> np.ndarray:
    """Every user's SNR ``xi * g``; DomainError unless the weakest and the
    strongest, so all, are positive and finite."""
    xi = _require_positive("xi", xi)
    for g in (channels.gains[0], channels.gains[-1]):
        _snr(xi, g, "gains")
    return np.multiply(xi, channels.gains)


def oma_capacity_k(xi: float, channels: ChannelSet) -> tuple:
    """Every user's rate under a 1/K orthogonal share, weakest user first."""
    return tuple(_to_bits(_oma_rate(_snrs(xi, channels)), channels.k).tolist())


def _noma_rates(xi: float, channels: ChannelSet, coeffs) -> np.ndarray:
    """``noma_capacity_k`` as an array."""
    w = _snrs(xi, channels)
    if isinstance(coeffs, AllocationVector):
        coeffs = coeffs.coeffs
    coeffs = tuple(_require_rate("coefficients", c) for c in coeffs)
    if len(coeffs) != channels.k:
        raise DomainError(f"need {channels.k} coefficients, got {len(coeffs)}")
    if math.fsum(coeffs) > 1.0 + 1e-9:
        raise DomainError("coefficients exceed the power budget")
    rest = [math.fsum(coeffs[k:]) for k in range(1, channels.k + 1)]
    return _to_bits(_capacity(_sinr(w, coeffs, rest)))


def noma_capacity_k(xi: float, channels: ChannelSet, coeffs) -> tuple:
    """Every user's NOMA rate, weakest user first: own power over downstream
    (undecodable) power. ``coeffs`` may be an AllocationVector."""
    return tuple(_noma_rates(xi, channels, coeffs).tolist())


def _root_minus_one(w: np.ndarray, k: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``np.expm1(np.log1p(w) / k)``, that is (1+w)**(1/k) - 1; ``w``
    itself at k = 1, where it is exact."""
    if k == 1:
        return w
    out = np.log1p(w, out=out)
    np.divide(out, k, out=out)
    return np.expm1(out, out=out)


def _min_power_total(snrs, k: int, scratch=None) -> np.ndarray:
    """Sum of the minimum per-user shares that replicate OMA capacities over
    the K users of ``snrs``, an iterable of K SNR vectors of length n taken
    one at a time, strongest user first: ``total = t / w`` for the
    strongest, then ``total = total + t * (1.0 + w * total) / w``, ``t``
    from ``_root_minus_one``; the first step equals the second's form at
    ``total = 0`` bit for bit (NaN at w = 0 and w = inf either way). Each
    SNR vector is overwritten by its user's share before the next is taken.
    ``scratch`` holds three vectors of length n (fresh ones when None);
    returns the first."""
    snrs = iter(snrs)
    w = next(snrs)
    total, root, term = np.empty((3, len(w))) if scratch is None else scratch
    np.divide(_root_minus_one(w, k, out=root), w, out=total)
    np.copyto(w, total)
    for w in snrs:
        t = _root_minus_one(w, k, out=root)
        np.multiply(w, total, out=term)
        np.add(1.0, term, out=term)
        np.multiply(t, term, out=term)
        np.divide(term, w, out=w)
        np.add(total, w, out=total)
    return total


def min_alloc_b(xi: float, channels: ChannelSet) -> AllocationVector:
    """Smallest per-user powers whose NOMA rates equal the orthogonal ones.

    Built from the strongest user down: each bound is taken with equality,
    so every user's rate matches its 1/K orthogonal rate exactly and the
    total spend stays at or below the budget.
    """
    b = _snrs(xi, channels)[None]
    # the columns of b, strongest user first
    _min_power_total(b.T[::-1], channels.k)
    coeffs = tuple(b[0].tolist())
    return AllocationVector(coeffs=coeffs, residual=1.0 - math.fsum(coeffs),
                            kind="b_min")


def full_alloc_a(xi: float, channels: ChannelSet) -> AllocationVector:
    """Budget-spending fair vector built from the weakest user up.

    User 1 takes everything the remaining users cannot use; each later user
    k sizes its share against the remaining-power level A_{k-1}. The
    residual is the final ladder level A_K >= 0.
    """
    snrs = _snrs(xi, channels)
    n = channels.k
    if n == 1:
        return AllocationVector(coeffs=(1.0,), residual=0.0, kind="a_full")
    # at A_0 = 1 this is a_1 = (1 + w - (1+w)^{(K-1)/K})/w, without the power
    coeffs = []
    level = 1.0
    for w, t in zip(snrs.tolist(), _root_minus_one(snrs, n).tolist()):
        a = (1.0 + level * w) * t / (w * (1.0 + t))
        coeffs.append(a)
        level -= a
    return AllocationVector(coeffs=tuple(coeffs), residual=level, kind="a_full")


def verify_fairness(xi: float, channels: ChannelSet, alloc) -> tuple:
    """Per-user rate slack C_k^N - C_k^O under the actual downstream power.

    Zero everywhere for the minimum b-vector; nonnegative for the a-vector
    (its construction assumes ladder interference, which is never less than
    the actual sum of downstream coefficients).
    """
    oma = _to_bits(_oma_rate(_snrs(xi, channels)), channels.k)
    return tuple((_noma_rates(xi, channels, alloc) - oma).tolist())
