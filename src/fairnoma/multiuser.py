"""K-user downlink NOMA with SIC in gain order.

Orthogonal access gives user k a 1/K time share; NOMA superposes all K
signals and user k decodes (and cancels) every weaker user first. Two power
vectors are built here: the minimum-power b-vector, which reproduces each
user's orthogonal capacity exactly while spending strictly less than the
full budget, and the full a-vector, which spends the budget except for a
nonnegative ladder residual and gives every user at least the orthogonal
capacity. Fractional powers of 1+w go through expm1/log1p so large w and K
lose no precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import _LN2


_ALLOC_KINDS = ("b_min", "a_full")


@dataclass(frozen=True)
class ChannelSet:
    """Ascending instantaneous gains for K users sharing one carrier."""

    gains: tuple
    beta: float = 1.0

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        if not gains:
            raise DomainError("need at least one user")
        for g in gains:
            if not (math.isfinite(g) and g > 0.0):
                raise DomainError(f"gains must be positive, got {g!r}")
        if any(a > b for a, b in zip(gains, gains[1:])):
            raise DomainError("gains must be sorted ascending")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta!r}")
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
        coeffs = tuple(float(c) for c in self.coeffs)
        for c in coeffs:
            # the single-user edge spends the whole budget, hence <= 1
            if not (0.0 < c <= 1.0):
                raise DomainError(f"coefficients must lie in (0, 1], got {c!r}")
        if self.residual < -1e-12:
            raise DomainError(f"residual must be nonnegative, got {self.residual!r}")
        if abs(math.fsum(coeffs) + self.residual - 1.0) > 1e-9:
            raise DomainError("coefficients plus residual must spend exactly the budget")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class InterferenceLadder:
    """Remaining-power levels A_0 = 1 >= A_1 >= ... seen down the SIC chain."""

    a_levels: tuple

    def __post_init__(self):
        levels = tuple(float(v) for v in self.a_levels)
        if not levels or levels[0] != 1.0:
            raise DomainError("ladder must start at 1")
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise DomainError("ladder must be strictly decreasing")
        if levels[-1] < -1e-12:
            raise DomainError("ladder must stay nonnegative")
        object.__setattr__(self, "a_levels", levels)


def _check_user_index(k: int, n_users: int) -> None:
    if not isinstance(k, int) or not 1 <= k <= n_users:
        raise IndexError(f"user index must be in 1..{n_users}, got {k!r}")


def _check_xi(xi: float) -> None:
    if not (math.isfinite(xi) and xi > 0.0):
        raise DomainError(f"xi must be positive, got {xi!r}")


def oma_capacity_k(xi: float, channels: ChannelSet, k: int) -> float:
    """User k's rate under a 1/K orthogonal share (k is 1-based, SIC order)."""
    _check_xi(xi)
    _check_user_index(k, channels.k)
    return math.log1p(xi * channels.gains[k - 1]) / (channels.k * _LN2)


def noma_capacity_k(xi: float, channels: ChannelSet, coeffs, k: int) -> float:
    """User k's NOMA rate: own power over downstream (undecodable) power."""
    _check_xi(xi)
    _check_user_index(k, channels.k)
    if isinstance(coeffs, AllocationVector):
        coeffs = coeffs.coeffs
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) != channels.k:
        raise DomainError(f"need {channels.k} coefficients, got {len(coeffs)}")
    for c in coeffs:
        if not (math.isfinite(c) and c >= 0.0):
            raise DomainError(f"coefficients must be >= 0, got {c!r}")
    if math.fsum(coeffs) > 1.0 + 1e-9:
        raise DomainError("coefficients exceed the power budget")
    w = xi * channels.gains[k - 1]
    downstream = math.fsum(coeffs[k:])
    return math.log1p(coeffs[k - 1] * w / (1.0 + w * downstream)) / _LN2


def _root_minus_one(w: float, k: int) -> float:
    """(1+w)**(1/k) - 1; exact at k = 1."""
    return w if k == 1 else math.expm1(math.log1p(w) / k)


def min_alloc_b(xi: float, channels: ChannelSet) -> AllocationVector:
    """Smallest per-user powers whose NOMA rates equal the orthogonal ones.

    Built from the strongest user down: each bound is taken with equality,
    so every user's rate matches its 1/K orthogonal rate exactly and the
    total spend stays at or below the budget.
    """
    _check_xi(xi)
    n = channels.k
    coeffs = [0.0] * n
    downstream = 0.0
    for idx in range(n - 1, -1, -1):
        w = xi * channels.gains[idx]
        b = _root_minus_one(w, n) * (1.0 + w * downstream) / w
        coeffs[idx] = b
        downstream += b
    return AllocationVector(coeffs=tuple(coeffs),
                            residual=1.0 - math.fsum(coeffs), kind="b_min")


def full_alloc_a(xi: float, channels: ChannelSet) -> AllocationVector:
    """Budget-spending fair vector built from the weakest user up.

    User 1 takes everything the remaining users cannot use; each later user
    k sizes its share against the remaining-power level A_{k-1}. The
    residual is the final ladder level A_K >= 0.
    """
    _check_xi(xi)
    n = channels.k
    w1 = xi * channels.gains[0]
    if n == 1:
        return AllocationVector(coeffs=(1.0,), residual=0.0, kind="a_full")
    # a_1 = (1 + w - (1+w)^{(K-1)/K})/w without forming the large power
    a1 = -(1.0 + w1) * math.expm1(-math.log1p(w1) / n) / w1
    coeffs = [a1]
    level = 1.0 - a1
    for idx in range(1, n):
        w = xi * channels.gains[idx]
        t = _root_minus_one(w, n)
        a = (1.0 + level * w) * t / (w * (1.0 + t))
        coeffs.append(a)
        level -= a
    return AllocationVector(coeffs=tuple(coeffs), residual=level, kind="a_full")


def interference_ladder(alloc: AllocationVector) -> InterferenceLadder:
    """Remaining-power levels implied by an allocation, starting at 1."""
    levels = [1.0]
    for c in alloc.coeffs:
        levels.append(levels[-1] - c)
    return InterferenceLadder(a_levels=tuple(levels))


def with_residual_to_strongest(alloc: AllocationVector) -> AllocationVector:
    """Hand the unspent budget to the last (interference-free) user."""
    coeffs = alloc.coeffs[:-1] + (alloc.coeffs[-1] + alloc.residual,)
    return AllocationVector(coeffs=coeffs, residual=0.0, kind=alloc.kind)


def verify_fairness(xi: float, channels: ChannelSet, alloc) -> tuple:
    """Per-user rate slack C_k^N - C_k^O under the actual downstream power.

    Zero everywhere for the minimum b-vector; nonnegative for the a-vector
    (its construction assumes ladder interference, which is never less than
    the actual sum of downstream coefficients).
    """
    n = channels.k
    return tuple(
        noma_capacity_k(xi, channels, alloc, k) - oma_capacity_k(xi, channels, k)
        for k in range(1, n + 1))
