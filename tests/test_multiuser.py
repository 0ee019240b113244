"""K-user allocation vectors: exactness, ordering, and fairness slack.

Capacity references are hand-rolled log2 expressions rather than the
package's log1p forms, so equality checks exercise two independent routes.
"""

import math

import numpy as np
import pytest

from fairnoma.errors import DomainError
from fairnoma.mcsim import SimConfig, simulate
from fairnoma.multiuser import (
    AllocationVector,
    ChannelSet,
    _min_power_total,
    _root_minus_one,
    full_alloc_a,
    min_alloc_b,
    noma_capacity_k,
    oma_capacity_k,
    verify_fairness,
)
from fairnoma.twouser import (
    ChannelPair,
    SystemParams,
    fair_region,
    noma_capacity_strong,
    noma_capacity_weak,
    oma_capacity,
)
from helpers import min_power_sum_oracle


def oma_rate_ref(xi, g, k_total):
    return math.log2(1.0 + xi * g) / k_total


def noma_rate_ref(xi, g, coeffs, k):
    own = coeffs[k - 1]
    downstream = sum(coeffs[k:])
    return math.log2(1.0 + own * xi * g / (1.0 + xi * g * downstream))


def random_channel_sets(n_sets, k_lo, k_hi, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        k = int(rng.integers(k_lo, k_hi + 1))
        gains = tuple(np.sort(rng.exponential(1.0, k)))
        xi = float(10.0 ** rng.uniform(-1.0, 5.0))
        yield xi, ChannelSet(gains=gains)


class TestChannelSet:
    def test_sorting_and_positivity_enforced(self):
        with pytest.raises(DomainError):
            ChannelSet(gains=(2.0, 1.0))
        with pytest.raises(DomainError):
            ChannelSet(gains=(0.0, 1.0))
        with pytest.raises(DomainError):
            ChannelSet(gains=())
        # checked before any float(): no numeric strings, no bools
        for gains in (("0.5", "1.5"), (True, 2.0)):
            with pytest.raises(DomainError):
                ChannelSet(gains=gains)

    def test_ties_permitted(self):
        ch = ChannelSet(gains=(1.0, 1.0, 2.0))
        assert ch.k == 3


class TestAllocationVectorType:
    def test_kind_restricted(self):
        with pytest.raises(DomainError):
            AllocationVector(coeffs=(0.5,), residual=0.5, kind="other")

    def test_coefficient_bounds(self):
        with pytest.raises(DomainError):
            AllocationVector(coeffs=(0.0, 0.5), residual=0.5, kind="b_min")
        with pytest.raises(DomainError):
            AllocationVector(coeffs=(1.5,), residual=-0.5, kind="b_min")

    def test_residual_nonnegative_and_budget_closed(self):
        with pytest.raises(DomainError):
            AllocationVector(coeffs=(0.9,), residual=-0.1, kind="a_full")
        with pytest.raises(DomainError):
            AllocationVector(coeffs=(0.4,), residual=0.2, kind="a_full")

    def test_single_user_boundary_allowed(self):
        v = AllocationVector(coeffs=(1.0,), residual=0.0, kind="b_min")
        assert v.coeffs == (1.0,)


class TestOrthogonalCapacity:
    def test_single_user_gets_full_capacity(self):
        ch = ChannelSet(gains=(0.8,))
        assert oma_capacity_k(25.0, ch, 1) == pytest.approx(
            math.log2(1.0 + 25.0 * 0.8), rel=1e-15)

    def test_two_user_matches_pair_module(self):
        ch = ChannelSet(gains=(0.4, 1.7))
        assert oma_capacity_k(31.0, ch, 1) == oma_capacity(31.0, 0.4)
        assert oma_capacity_k(31.0, ch, 2) == oma_capacity(31.0, 1.7)

    def test_quarter_share_of_power_of_two(self):
        # xi*g = 15 with four users: (1/4) log2(16) = 1 exactly
        ch = ChannelSet(gains=(1.0, 2.0, 3.0, 15.0))
        assert oma_capacity_k(1.0, ch, 4) == 1.0

    def test_index_is_one_based(self):
        ch = ChannelSet(gains=(1.0, 2.0))
        with pytest.raises(IndexError):
            oma_capacity_k(10.0, ch, 0)
        with pytest.raises(IndexError):
            oma_capacity_k(10.0, ch, 3)
        with pytest.raises(IndexError):
            oma_capacity_k(10.0, ch, 1.0)
        with pytest.raises(IndexError):
            oma_capacity_k(10.0, ch, True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_errors(self):
        # xi and every gain are doubles, but xi times the strongest gain
        # overflows, or xi times the weakest underflows to 0
        for xi, gains in ((1e300, (1.0, 1e10)), (1e-200, (1e-200, 1.0))):
            ch = ChannelSet(gains=gains)
            for op in (lambda: oma_capacity_k(xi, ch, 2),
                       lambda: noma_capacity_k(xi, ch, (0.5, 0.5), 2),
                       lambda: min_alloc_b(xi, ch),
                       lambda: full_alloc_a(xi, ch),
                       lambda: verify_fairness(xi, ch, (0.5, 0.5))):
                with pytest.raises(DomainError, match=r"xi \* gains"):
                    op()


class TestNomaCapacity:
    def test_last_user_interference_free(self):
        ch = ChannelSet(gains=(0.5, 1.0, 4.0))
        c = noma_capacity_k(10.0, ch, (0.5, 0.3, 0.2), 3)
        assert c == pytest.approx(math.log2(1.0 + 0.2 * 40.0), rel=1e-15)

    def test_two_user_split_matches_pair_module(self):
        ch = ChannelSet(gains=(0.4, 1.7))
        a = 0.23
        assert noma_capacity_k(31.0, ch, (1.0 - a, a), 1) == pytest.approx(
            noma_capacity_weak(31.0, 0.4, a), rel=1e-15)
        assert noma_capacity_k(31.0, ch, (1.0 - a, a), 2) == pytest.approx(
            noma_capacity_strong(31.0, 1.7, a), rel=1e-15)

    def test_zeros_except_one_user(self):
        ch = ChannelSet(gains=(1.0, 2.0, 3.0, 15.0))
        c = noma_capacity_k(31.0, ch, (0.0, 0.0, 0.5, 0.0), 3)
        assert c == pytest.approx(math.log2(1.0 + 0.5 * 31.0 * 3.0), rel=1e-15)

    def test_accepts_allocation_vector(self):
        ch = ChannelSet(gains=(0.5, 2.0))
        alloc = min_alloc_b(50.0, ch)
        assert noma_capacity_k(50.0, ch, alloc, 2) == noma_capacity_k(
            50.0, ch, alloc.coeffs, 2)

    def test_coefficient_validation(self):
        ch = ChannelSet(gains=(0.5, 2.0))
        with pytest.raises(DomainError):
            noma_capacity_k(10.0, ch, (0.5,), 1)
        with pytest.raises(DomainError):
            noma_capacity_k(10.0, ch, (-0.1, 0.5), 1)
        with pytest.raises(DomainError):
            noma_capacity_k(10.0, ch, (0.8, 0.8), 1)
        with pytest.raises(DomainError):
            noma_capacity_k(10.0, ch, ("0.5", "0.5"), 1)


class TestMinAllocB:
    def test_single_user_spends_everything(self):
        v = min_alloc_b(123.0, ChannelSet(gains=(0.7,)))
        assert v.coeffs == (1.0,)
        assert v.residual == 0.0
        assert v.kind == "b_min"

    def test_two_user_capacity_equality(self):
        xi = 40.0
        ch = ChannelSet(gains=(0.3, 2.1))
        v = min_alloc_b(xi, ch)
        for k, g in ((1, 0.3), (2, 2.1)):
            assert noma_rate_ref(xi, g, v.coeffs, k) == pytest.approx(
                oma_rate_ref(xi, g, 2), rel=1e-9)

    def test_five_user_strict_saving(self):
        rng = np.random.default_rng(11)
        gains = tuple(np.sort(rng.exponential(1.0, 5)))
        v = min_alloc_b(1e3, ChannelSet(gains=gains))
        assert math.fsum(v.coeffs) < 1.0
        assert v.residual > 0.0


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


class TestOneRecursion:
    """``_min_power_total`` serves the scalar API, which passes the columns
    of a (1, K) array, and the Monte Carlo kernel, which passes one chunk
    row rewritten per user; both give the bits of the recursion that starts
    from a total of 0 for every user, shares and totals alike."""

    XI = 1e3

    @staticmethod
    def _reference(w: np.ndarray, k: int) -> tuple:
        # the recursion from a zero total, strongest user first, on an
        # (n, K) array of ascending SNRs
        w = w.copy()
        total = np.zeros(len(w))
        for j in range(k - 1, -1, -1):
            t = _root_minus_one(w[:, j].copy(), k)
            w[:, j] = t * (1.0 + w[:, j] * total) / w[:, j]
            total = total + w[:, j]
        return total, w

    @staticmethod
    def _gains(k: int) -> np.ndarray:
        # (K, n) ascending gains: trial 0's weakest is 0, and xi times trial
        # 1's strongest (and at K > 1 its second strongest) overflows
        g = np.sort(np.random.default_rng(k).exponential(1.0, (64, k)), axis=1)
        g[0, 0] = 0.0
        g[1, -2:] = (1e306, 2e306)[-k:]
        return g.T.copy()

    @pytest.mark.parametrize("k", [1, 2, 5, 30, 64])
    def test_columns_and_chunk_rows_match_the_zero_start(self, k):
        g = self._gains(k)
        with np.errstate(all="ignore"):
            want_total, want_shares = self._reference(self.XI * g.T, k)
            # the scalar API's way: the columns of a (1, K) array per trial
            totals, shares = [], []
            for gains in g.T:
                b = np.multiply(self.XI, [gains])
                totals.append(_min_power_total(b.T[::-1], k)[0])
                shares.append(b[0])
            # the kernel's way: one chunk row, recomputed for each user
            w = np.empty(g.shape[1])
            row_shares = np.empty_like(g)

            def snrs():
                for j in range(k - 1, -1, -1):
                    yield np.multiply(self.XI, g[j], out=w)
                    row_shares[j] = w

            row_total = _min_power_total(snrs(), k)
        assert np.isnan(want_total[:2]).all()
        assert np.isfinite(want_total[2:]).all()
        assert _hex(totals) == _hex(want_total)
        assert _hex(shares) == _hex(want_shares)
        assert _hex(row_total) == _hex(want_total)
        assert _hex(row_shares.T) == _hex(want_shares)


# E[helpers.min_power_sum] over the ordered gains of K = 3 i.i.d. Exp(1)
# users at xi = 1, 100 and 1e5, computed once with scipy 1.17.1's
# integrate.tplquad (epsabs 1e-6, epsrel 0) against their density
# 3! exp(-(g_1 + g_2 + g_3)), with g_1 = exp(s) for s in [-40, log(40/3)],
# g_2 - g_1 in [0, 20] and g_3 - g_2 in [0, 40], as helpers.
# min_power_sum_oracle does at K = 2. The error estimates were 9.97e-7,
# 1.00e-6 and 1.00e-6. Pinned because the 3-D quadrature takes seconds.
SUM_B_K3_REFERENCE = {1.0: 0.9124782447046677, 100.0: 0.5945561186397258,
                      1e5: 0.4429793226103111}


class TestMinPowerSumOracles:
    """Figure 6's ``e_sum_b_mc`` column, the engine's mean of sum(b), at
    0, 20 and 50 dB against references that share none of its draws. The
    seeds, the trial counts and the bound were fixed before the first
    run."""

    @staticmethod
    def _engine(k: int) -> list:
        return simulate(SimConfig(
            trials=200_000, seed=106, xi_grid=(1.0, 100.0, 1e5),
            scenario="multiuser", k_grid=(k,)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_quadrature(self, k):
        # a 2-D (K = 2) or a pinned 3-D (K = 3) integral over the ordered
        # gains
        for pt in self._engine(k):
            r = pt.measures["sum_b"]
            want = (min_power_sum_oracle(pt.xi) if k == 2
                    else SUM_B_K3_REFERENCE[pt.xi])
            z = (r.mean - want) / r.std_error
            assert abs(z) <= 4.5, (k, pt.xi, z)

    def test_matches_sorted_exponentials_at_k5(self):
        # two samples: the engine's, and sorted default_rng exponentials
        # through the scalar min_alloc_b, the same pools at every SNR
        rng = np.random.default_rng(107)
        pools = np.sort(rng.exponential(1.0, (10_000, 5)), axis=1).tolist()
        for pt in self._engine(5):
            sums = [math.fsum(min_alloc_b(pt.xi, ChannelSet(gains=tuple(g))
                                          ).coeffs) for g in pools]
            se = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
            r = pt.measures["sum_b"]
            z = (r.mean - float(np.mean(sums))) / math.hypot(r.std_error, se)
            assert abs(z) <= 4.5, (pt.xi, z)


class TestFullAllocA:
    def test_single_user_exact(self):
        v = full_alloc_a(123.0, ChannelSet(gains=(0.7,)))
        assert v.coeffs == (1.0,)
        assert v.residual == 0.0
        assert v.kind == "a_full"

    def test_two_user_weak_share_matches_fair_region(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            g1, g2 = sorted(rng.exponential(1.0, 2))
            xi = float(10.0 ** rng.uniform(-1.0, 5.0))
            v = full_alloc_a(xi, ChannelSet(gains=(g1, g2)))
            reg = fair_region(SystemParams(xi=xi), ChannelPair(g1=g1, g2=g2))
            assert 1.0 - v.coeffs[0] == pytest.approx(reg.a_sup, rel=1e-12)

    def test_five_user_shares_valid(self):
        rng = np.random.default_rng(29)
        gains = tuple(np.sort(rng.exponential(1.0, 5)))
        v = full_alloc_a(300.0, ChannelSet(gains=gains))
        assert all(0.0 < a < 1.0 for a in v.coeffs)
        assert math.fsum(v.coeffs) <= 1.0
        assert v.residual >= 0.0


class TestFairnessSlack:
    def test_min_vector_slack_vanishes(self):
        for xi, ch in random_channel_sets(200, 2, 10, seed=37):
            slacks = verify_fairness(xi, ch, min_alloc_b(xi, ch))
            assert max(abs(s) for s in slacks) <= 1e-9

    def test_full_vector_slack_nonnegative(self):
        for xi, ch in random_channel_sets(200, 2, 10, seed=41):
            slacks = verify_fairness(xi, ch, full_alloc_a(xi, ch))
            assert min(slacks) >= -1e-9

    def test_residual_to_strongest_gives_strict_gain(self):
        rng = np.random.default_rng(43)
        gains = tuple(np.sort(rng.exponential(1.0, 5)))
        ch = ChannelSet(gains=gains)
        raw = full_alloc_a(1e3, ch)
        assert raw.residual > 0.0
        # the unspent budget handed to the last (interference-free) user
        boosted = AllocationVector(
            coeffs=raw.coeffs[:-1] + (raw.coeffs[-1] + raw.residual,),
            residual=0.0, kind=raw.kind)
        assert boosted.residual == 0.0
        slacks = verify_fairness(1e3, ch, boosted)
        assert slacks[-1] > 0.0
        assert min(slacks[:-1]) >= -1e-9


class TestOrderingInvariants:
    def test_min_vector_below_full_vector(self):
        for xi, ch in random_channel_sets(1500, 2, 10, seed=47):
            b = min_alloc_b(xi, ch)
            a = full_alloc_a(xi, ch)
            assert all(bk < ak for bk, ak in zip(b.coeffs, a.coeffs))

    def test_full_vector_rates_dominate_where_residual_spent(self):
        # actual downstream power under the a-vector is short of the ladder
        # level by the residual, so every user clears its orthogonal rate
        for xi, ch in random_channel_sets(150, 2, 8, seed=53):
            b = min_alloc_b(xi, ch)
            a = full_alloc_a(xi, ch)
            if a.residual <= 0.0:
                continue
            for k in range(1, ch.k + 1):
                cb = noma_capacity_k(xi, ch, b, k)
                ca = noma_capacity_k(xi, ch, a, k)
                assert ca > cb

    def test_fractional_root_ratio_decreasing(self):
        # f(x) = ((1+x)^(m/K) - 1)/x falls as x grows whenever m < K
        xs = np.logspace(-3.0, 6.0, 200)
        for m, k_total in ((1, 5), (2, 5), (4, 5)):
            f = (np.exp(np.log1p(xs) * (m / k_total)) - 1.0) / xs
            assert np.all(np.diff(f) < 0.0)


class TestInterferenceLadder:
    def test_top_level_strictly_interior(self):
        for xi, ch in random_channel_sets(300, 2, 9, seed=61):
            a1 = full_alloc_a(xi, ch).coeffs[0]
            assert 0.0 < 1.0 - a1 < 1.0
