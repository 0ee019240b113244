import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fairnoma import twouser as tu
from fairnoma.errors import DomainError


class TestConstructors:
    def test_system_params_validation(self):
        tu.SystemParams(xi=1.0, beta=2.0, r0=0.0)
        p = tu.SystemParams(xi=np.float32(2.0), beta=np.int64(1),
                            r0=np.float32(0.5))
        assert all(type(v) is float for v in (p.xi, p.beta, p.r0))
        for bad in ({"xi": 0.0}, {"xi": -1.0}, {"xi": math.nan},
                    {"xi": 1.0, "beta": 0.0}, {"xi": 1.0, "r0": -0.1}):
            with pytest.raises(DomainError):
                tu.SystemParams(**bad)

    @pytest.mark.parametrize("field,options", [
        ("xi", {"xi": True}),
        ("xi", {"xi": "10"}),
        ("beta", {"xi": 1.0, "beta": True}),
        ("r0", {"xi": 1.0, "r0": False}),
        ("r0", {"xi": 1.0, "r0": "1"}),
    ])
    def test_system_params_rejects_non_reals(self, field, options):
        # a bool is an int to Python, but True is no SNR or rate
        with pytest.raises(DomainError, match=field):
            tu.SystemParams(**options)

    def test_channel_pair_ordering(self):
        with pytest.raises(DomainError):
            tu.ChannelPair(2.0, 1.0)
        with pytest.raises(DomainError):
            tu.ChannelPair(0.0, 1.0)
        tie = tu.ChannelPair(1.5, 1.5)
        assert tie.g1 == tie.g2

    def test_fair_region_invariant(self):
        with pytest.raises(DomainError):
            tu.FairRegion(a_inf=0.4, a_sup=0.3)
        region = tu.FairRegion(a_inf=0.25, a_sup=1.0 / 3.0)
        assert region.width == pytest.approx(1.0 / 12.0)


class TestCapacities:
    def test_oma_exact_points(self):
        assert tu.oma_capacity(1.0, 3.0) == 1.0
        assert tu.oma_capacity(100.0, 0.5) == pytest.approx(0.5 * math.log2(51.0),
                                                            rel=1e-15, abs=0.0)
        assert tu.oma_capacity(1.0, 1e-300) == pytest.approx(0.0, abs=1e-290)

    def test_noma_weak_exact_points(self):
        assert tu.noma_capacity_weak(1.0, 3.0, 0.25) == pytest.approx(
            math.log2(16.0 / 7.0), rel=1e-15, abs=0.0)
        assert tu.noma_capacity_weak(2.0, 1.5, 0.0) == pytest.approx(
            math.log2(4.0), rel=1e-15, abs=0.0)
        assert tu.noma_capacity_weak(2.0, 1.5, 1.0) == 0.0

    def test_noma_strong_exact_points(self):
        assert tu.noma_capacity_strong(1.0, 8.0, 0.25) == pytest.approx(
            math.log2(3.0), rel=1e-15, abs=0.0)
        assert tu.noma_capacity_strong(1.0, 8.0, 0.0) == 0.0
        assert tu.noma_capacity_strong(1.0, 8.0, 1.0) == pytest.approx(
            2.0 * tu.oma_capacity(1.0, 8.0), rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tu.oma_capacity(0.0, 1.0)
        with pytest.raises(DomainError):
            tu.oma_capacity(1.0, -1.0)
        # xi and g are doubles, xi * g is not: it overflows or underflows
        for xi, g in ((1e300, 1e10), (1e-200, 1e-200)):
            for capacity in (tu.oma_capacity,
                             lambda xi, g: tu.noma_capacity_weak(xi, g, 0.5),
                             lambda xi, g: tu.noma_capacity_strong(xi, g, 0.5)):
                with pytest.raises(DomainError, match=r"xi \* g"):
                    capacity(xi, g)
        with pytest.raises(DomainError):
            tu.noma_capacity_weak(1.0, 1.0, -0.01)
        with pytest.raises(DomainError):
            tu.noma_capacity_strong(1.0, 1.0, 1.01)
        for share in (True, "x"):
            with pytest.raises(DomainError):
                tu.noma_capacity_weak(1.0, 1.0, share)

    def test_weak_monotone_decreasing_strong_increasing_in_a(self):
        a_grid = np.linspace(0.0, 1.0, 21)
        weak = [tu.noma_capacity_weak(5.0, 2.0, float(a)) for a in a_grid]
        strong = [tu.noma_capacity_strong(5.0, 2.0, float(a)) for a in a_grid]
        assert all(x > y for x, y in zip(weak, weak[1:]))
        assert all(x < y for x, y in zip(strong, strong[1:]))


class TestAllocationBound:
    def test_exact_rational_points(self):
        assert tu.allocation_bound(1.0, 3.0) == pytest.approx(
            1.0 / 3.0, rel=1e-15, abs=0.0)
        assert tu.allocation_bound(1.0, 8.0) == 0.25
        assert tu.allocation_bound(1.0, 99.0) == pytest.approx(
            1.0 / 11.0, rel=1e-15, abs=0.0)

    def test_range_and_monotonicity(self):
        grid = np.geomspace(1e-9, 1e12, 300)
        values = [tu.allocation_bound(1.0, float(x)) for x in grid]
        assert all(0.0 < v < 0.5 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_half_limit_is_exact(self):
        assert tu.allocation_bound(1e-12, 1e-12) == pytest.approx(0.5, abs=1e-16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tu.allocation_bound(1.0, 0.0)
        with pytest.raises(DomainError):
            tu.allocation_bound(-1.0, 1.0)
        # at xi * x = inf the bound would be 0, outside (0, 1/2)
        for xi, x in ((1e300, 1e10), (1e-200, 1e-200)):
            with pytest.raises(DomainError, match=r"xi \* x"):
                tu.allocation_bound(xi, x)


class TestFairRegion:
    def test_exact_region(self):
        params = tu.SystemParams(xi=1.0)
        region = tu.fair_region(params, tu.ChannelPair(3.0, 8.0))
        assert region.a_inf == pytest.approx(0.25, rel=1e-15, abs=0.0)
        assert region.a_sup == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)

    def test_degenerate_pair(self):
        params = tu.SystemParams(xi=2.0)
        region = tu.fair_region(params, tu.ChannelPair(1.7, 1.7))
        assert region.a_inf == region.a_sup

    def test_endpoints_against_bisection_oracle(self):
        # a_inf solves C2_N(a) = C2_O; a_sup solves C1_N(a) = C1_O
        xi, g1, g2 = 100.0, 0.5, 2.0
        region = tu.fair_region(tu.SystemParams(xi=xi), tu.ChannelPair(g1, g2))
        a_inf = brentq(
            lambda a: tu.noma_capacity_strong(xi, g2, a) - tu.oma_capacity(xi, g2),
            1e-15, 0.5, xtol=1e-15, rtol=8.9e-16)
        a_sup = brentq(
            lambda a: tu.noma_capacity_weak(xi, g1, a) - tu.oma_capacity(xi, g1),
            1e-15, 0.999999, xtol=1e-15, rtol=8.9e-16)
        assert abs(region.a_inf - a_inf) <= 1e-10
        assert abs(region.a_sup - a_sup) <= 1e-10


def _random_instances(rng, n):
    xi = 10.0 ** rng.uniform(-1.0, 6.0, size=n)
    ga = rng.exponential(1.0, size=n) + 1e-9
    gb = rng.exponential(1.0, size=n) + 1e-9
    g1 = np.minimum(ga, gb)
    g2 = np.maximum(ga, gb)
    return xi, g1, g2


class TestFairnessProperties:
    def test_fairness_over_region(self):
        # both users at least match OMA anywhere in [a_inf, a_sup]
        rng = np.random.default_rng(101)
        xi, g1, g2 = _random_instances(rng, 10_000)
        frac = np.linspace(0.0, 1.0, 10)
        for i in range(xi.size):
            x, a1, a2 = float(xi[i]), float(g1[i]), float(g2[i])
            region = tu.fair_region(tu.SystemParams(xi=x), tu.ChannelPair(a1, a2))
            c1_oma = tu.oma_capacity(x, a1)
            c2_oma = tu.oma_capacity(x, a2)
            for f in frac:
                a = region.a_inf + float(f) * region.width
                assert tu.noma_capacity_weak(x, a1, a) >= c1_oma - 1e-9
                assert tu.noma_capacity_strong(x, a2, a) >= c2_oma - 1e-9

    def test_boundary_tightness(self):
        rng = np.random.default_rng(102)
        xi, g1, g2 = _random_instances(rng, 2_000)
        for i in range(xi.size):
            x, a1, a2 = float(xi[i]), float(g1[i]), float(g2[i])
            region = tu.fair_region(tu.SystemParams(xi=x), tu.ChannelPair(a1, a2))
            c2_oma = tu.oma_capacity(x, a2)
            c1_oma = tu.oma_capacity(x, a1)
            assert tu.noma_capacity_strong(x, a2, region.a_inf) == pytest.approx(
                c2_oma, rel=1e-9)
            assert tu.noma_capacity_weak(x, a1, region.a_sup) == pytest.approx(
                c1_oma, rel=1e-9)

    def test_sic_ordering(self):
        # decoding SINR for the weak user's message is higher at the strong user
        rng = np.random.default_rng(103)
        for _ in range(2_000):
            x = float(10.0 ** rng.uniform(-1.0, 5.0))
            g1 = float(rng.exponential(1.0) + 1e-9)
            g2 = g1 * float(1.0 + rng.uniform(1e-6, 10.0))
            a = float(rng.uniform(1e-9, 1.0 - 1e-9))
            sinr_at_strong = (1.0 - a) * x * g2 / (a * x * g2 + 1.0)
            sinr_at_weak = (1.0 - a) * x * g1 / (a * x * g1 + 1.0)
            assert sinr_at_strong > sinr_at_weak

    def test_sum_rate_exact_point_and_dominance(self):
        pair = tu.ChannelPair(3.0, 8.0)
        assert tu.sum_rate(1.0, pair, 0.25) == pytest.approx(
            math.log2(16.0 / 7.0) + math.log2(3.0), rel=1e-14, abs=0.0)
        rng = np.random.default_rng(104)
        xi, g1, g2 = _random_instances(rng, 2_000)
        for i in range(xi.size):
            x = float(xi[i])
            pair = tu.ChannelPair(float(g1[i]), float(g2[i]))
            region = tu.fair_region(tu.SystemParams(xi=x), pair)
            s_oma = tu.oma_capacity(x, pair.g1) + tu.oma_capacity(x, pair.g2)
            mid = 0.5 * (region.a_inf + region.a_sup)
            for a in (region.a_inf, mid, region.a_sup):
                assert tu.sum_rate(x, pair, a) >= s_oma - 1e-9

    def test_sum_rate_monotone_in_a(self):
        a_grid = np.linspace(0.01, 0.99, 40)
        for xi, g1, g2 in ((0.5, 0.2, 1.0), (10.0, 1.0, 5.0), (1e4, 0.3, 0.9)):
            pair = tu.ChannelPair(g1, g2)
            values = [tu.sum_rate(xi, pair, float(a)) for a in a_grid]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_sum_rate_increasing_in_gains_at_a_sup(self):
        # with a re-solved as a_sup at every point, S_N grows with either gain
        rng = np.random.default_rng(105)
        for _ in range(1_000):
            x = float(10.0 ** rng.uniform(-1.0, 5.0))
            g2 = float(rng.exponential(1.0) + 0.05)
            g1_grid = np.linspace(0.05 * g2, 0.95 * g2, 16)
            values = []
            for g1 in g1_grid:
                pair = tu.ChannelPair(float(g1), g2)
                a_sup = tu.allocation_bound(x, float(g1))
                values.append(tu.sum_rate(x, pair, a_sup))
            assert all(b - a > 0.0 for a, b in zip(values, values[1:]))
            g1 = float(rng.exponential(1.0) + 0.05)
            a_sup = tu.allocation_bound(x, g1)
            g2_grid = np.linspace(g1, 8.0 * g1, 16)
            values = [tu.sum_rate(x, tu.ChannelPair(g1, float(g2)), a_sup)
                      for g2 in g2_grid]
            assert all(b - a > 0.0 for a, b in zip(values, values[1:]))


class TestHighSnr:
    def test_symmetry_when_gains_tie(self):
        hs = tu.high_snr_capacities(1e4, tu.ChannelPair(2.0, 2.0))
        assert hs.c1_ainf == hs.c2_oma

    def test_strong_user_closed_point(self):
        hs = tu.high_snr_capacities(1e5, tu.ChannelPair(1.0, 4.0))
        assert hs.c2_asup == pytest.approx(
            0.5 * math.log2(1e5) + 2.0, rel=1e-14, abs=0.0)

    def test_weak_user_approximation_quality(self):
        # relative error decays like 1/sqrt(xi); ~7e-4 at 1e5, <1e-4 by 1e7
        for xi, tol in ((1e5, 1e-3), (1e7, 1e-4)):
            pair = tu.ChannelPair(1.0, 4.0)
            hs = tu.high_snr_capacities(xi, pair)
            a_inf = tu.fair_region(tu.SystemParams(xi=xi), pair).a_inf
            exact = tu.noma_capacity_weak(xi, pair.g1, a_inf)
            assert abs(exact - hs.c1_ainf) <= tol * exact
