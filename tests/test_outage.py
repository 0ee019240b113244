"""Outage probabilities: closed forms vs quadrature, region integration, and
Monte Carlo oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from fairnoma import outage
from fairnoma.errors import DomainError
from fairnoma.mcsim import SimConfig, run_outage
from fairnoma.twouser import SystemParams


def _params(xi, r0=2.0, beta=1.0):
    return SystemParams(xi=xi, beta=beta, r0=r0)


def _mc(p, trials, seed):
    """Monte Carlo outage measures at one operating point; every policy of
    the table is evaluated on the same draws."""
    config = SimConfig(trials=trials, seed=seed, xi_grid=(p.xi,), beta=p.beta,
                       r0=p.r0)
    return run_outage(config)[0].measures


def strong_outage_region_oracle(params):
    """2-D integration of the strong user's upper-endpoint outage region.

    The event in the ordered-gain plane is g1 > xi*g2^2/(q-1)^2 - 2*g2/(q-1):
    everything below g2 = 2(q-1)/xi, plus the sliver above the parabola up to
    g2 = (q^2-1)/xi. Integrates the joint density directly, no error-function
    machinery shared with the implementation.
    """
    xi, beta = params.xi, params.beta
    q = 2.0 ** params.r0
    k1 = 2.0 * (q - 1.0) / xi
    k2 = (q * q - 1.0) / xi

    def dens(g1, g2):
        return (2.0 / beta ** 2) * math.exp(-(g1 + g2) / beta)

    def inner(g2, lo):
        val, _ = integrate.quad(lambda g1: dens(g1, g2), lo, g2,
                                epsabs=1e-15, epsrel=1e-12)
        return val

    p1, _ = integrate.quad(lambda g2: inner(g2, 0.0), 0.0, k1,
                           epsabs=1e-14, epsrel=1e-12, limit=200)

    def parabola(g2):
        return (xi * g2 * g2 - 2.0 * g2 * (q - 1.0)) / (q - 1.0) ** 2

    p2, _ = integrate.quad(lambda g2: inner(g2, parabola(g2)), k1, k2,
                           epsabs=1e-14, epsrel=1e-12, limit=200)
    return p1 + p2


def weak_outage_quad_oracle(params):
    """Independent route: semi-infinite quadrature of the defining integral
    with scipy's own infinite-limit transform."""
    pair = outage.alpha_pair(params)
    beta = params.beta
    y0 = pair.alpha2 / beta

    def f(t):
        y = y0 + t
        return math.exp(-y * (pair.alpha1_fn(beta * y) + 1.0))

    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
                            limit=300)
    return 1.0 + math.exp(-2.0 * y0) - 2.0 * val


class TestOmaForms:
    def test_weak_frozen_value(self):
        got = outage.oma_outage_weak(_params(100.0))
        assert got == pytest.approx(1.0 - math.exp(-0.3), rel=1e-15)

    def test_strong_frozen_value(self):
        got = outage.oma_outage_strong(_params(100.0))
        want = 1.0 + math.exp(-0.3) - 2.0 * math.exp(-0.15)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_rate_never_in_outage(self):
        p = _params(50.0, r0=0.0)
        assert outage.oma_outage_weak(p) == 0.0
        assert outage.oma_outage_strong(p) == 0.0

    def test_vanishes_at_high_snr(self):
        weak = [outage.oma_outage_weak(_params(10.0 ** e)) for e in range(1, 13)]
        assert all(b < a for a, b in zip(weak, weak[1:]))
        assert weak[-1] < 1e-10

    def test_strong_never_worse_than_weak(self):
        for r0 in (0.2, 1.0, 3.0):
            for xi in np.geomspace(1.0, 1e6, 9):
                p = _params(float(xi), r0=r0)
                assert outage.oma_outage_strong(p) <= outage.oma_outage_weak(p)


class TestAlphaPair:
    def test_exact_threshold_values(self):
        assert outage.alpha_pair(_params(1.0, r0=1.0)).alpha2 == 3.0
        assert outage.alpha_pair(_params(4.0, r0=1.0)).alpha2 == 0.75

    def test_matches_quadratic_root_expression(self):
        # the defining root: (4^r0-2)/(2 xi) + sqrt((4^r0-1)/xi^2 + (4^r0-2)^2/(4 xi^2))
        for r0 in (0.1, 0.5, 1.0, 2.0, 6.0):
            for xi in (1.0, 100.0, 1e6):
                big_q = 4.0 ** r0
                root = ((big_q - 2.0) / (2.0 * xi)
                        + math.sqrt((big_q - 1.0) / xi ** 2
                                    + (big_q - 2.0) ** 2 / (4.0 * xi ** 2)))
                got = outage.alpha_pair(_params(xi, r0=r0)).alpha2
                assert got == pytest.approx(root, rel=1e-12)

    def test_alpha1_matches_direct_form(self):
        for r0 in (0.3, 1.0, 2.0, 4.0):
            q = 2.0 ** r0
            for xi in (0.5, 100.0, 1e5):
                pair = outage.alpha_pair(_params(xi, r0=r0))
                for mult in (1.0, 2.0, 10.0, 1000.0):
                    x = mult * pair.alpha2
                    s = math.sqrt(1.0 + xi * x)
                    direct = (q - 1.0) / (xi * x + q * (1.0 - s))
                    assert pair.alpha1_fn(x) == pytest.approx(direct, rel=1e-10)

    def test_unit_value_at_the_threshold(self):
        for r0, xi in ((0.5, 10.0), (2.0, 100.0), (4.0, 1e4)):
            pair = outage.alpha_pair(_params(xi, r0=r0))
            assert pair.alpha1_fn(pair.alpha2) == pytest.approx(1.0, rel=1e-12)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            outage.alpha_pair(_params(10.0, r0=0.0))
        pair = outage.alpha_pair(_params(100.0, r0=2.0))
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                pair.alpha1_fn(x)
        # below the sign-change point s+1 = 2^r0 the share is undefined
        with pytest.raises(DomainError):
            pair.alpha1_fn(0.2 * pair.alpha2)


class TestWeakUserLowerEndpoint:
    def test_degenerate_rate_is_exactly_zero(self):
        assert outage.noma_outage_weak_ainf(_params(100.0, r0=0.0)) == 0.0

    def test_vanishing_rate_limit(self):
        assert outage.noma_outage_weak_ainf(_params(100.0, r0=1e-9)) < 1e-9

    @pytest.mark.parametrize("r0", [60.0, 80.0, 150.0, 250.0, 300.0])
    def test_certain_outage_at_a_huge_rate(self, r0):
        # alpha2/beta + 29 rounds back to alpha2/beta, where alpha1 is
        # undefined; every term but the 1 is below the least double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outage.noma_outage_weak_ainf(_params(1.0, r0=r0)) == 1.0

    def test_matches_independent_quadrature_route(self):
        for xi, r0 in ((100.0, 2.0), (1e3, 2.0), (1e5, 2.0), (50.0, 0.7)):
            p = _params(xi, r0=r0)
            got = outage.noma_outage_weak_ainf(p)
            want = weak_outage_quad_oracle(p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_monte_carlo(self):
        p = _params(1e3)
        pw = _mc(p, 1_000_000, 101)["p_noma_weak_ainf"]
        cf = outage.noma_outage_weak_ainf(p)
        assert abs(pw.mean - cf) < 3.0 * pw.std_error

    def test_dominates_oma_on_sweep(self):
        for db in range(0, 61, 4):
            p = _params(10.0 ** (db / 10.0))
            assert (outage.noma_outage_weak_ainf(p)
                    <= outage.oma_outage_weak(p) + 1e-12)

    def test_improvement_ratio_grows_with_snr(self):
        ratios = []
        for db in range(0, 61, 4):
            p = _params(10.0 ** (db / 10.0))
            ratios.append(outage.oma_outage_weak(p)
                          / outage.noma_outage_weak_ainf(p))
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 4.0


class TestStrongUserUpperEndpoint:
    def test_degenerate_rate_is_exactly_zero(self):
        assert outage.noma_outage_strong_asup(_params(100.0, r0=0.0)) == 0.0
        assert outage.noma_outage_strong_asup(_params(100.0, r0=1e-9)) < 1e-9

    def test_matches_region_integration(self):
        for xi, r0 in ((1e3, 2.0), (100.0, 2.0), (1e3, 1.0), (10.0, 3.0)):
            p = _params(xi, r0=r0)
            got = outage.noma_outage_strong_asup(p)
            want = strong_outage_region_oracle(p)
            assert abs(got - want) <= 1e-6
            assert got == pytest.approx(want, rel=1e-9)

    def test_matches_monte_carlo(self):
        p = _params(1e3)
        ps = _mc(p, 1_000_000, 101)["p_noma_strong_asup"]
        cf = outage.noma_outage_strong_asup(p)
        assert abs(ps.mean - cf) < 3.0 * ps.std_error

    def test_dominates_oma_on_sweep(self):
        for db in range(0, 61, 4):
            p = _params(10.0 ** (db / 10.0))
            assert (outage.noma_outage_strong_asup(p)
                    <= outage.oma_outage_strong(p) + 1e-12)

    def test_survives_extreme_exponents(self):
        # the unscaled form would need exp((2^6-3)^2/4) ~ e^930 here
        v = outage.noma_outage_strong_asup(_params(1.0, r0=6.0))
        assert 0.999 < v <= 1.0


class TestProbabilityRange:
    def test_all_forms_in_unit_interval_on_grid(self):
        for r0 in np.linspace(0.1, 6.0, 9):
            for xi in np.geomspace(1.0, 1e6, 9):
                p = _params(float(xi), r0=float(r0))
                for v in (outage.oma_outage_weak(p),
                          outage.oma_outage_strong(p),
                          outage.noma_outage_weak_ainf(p),
                          outage.noma_outage_strong_asup(p)):
                    assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("r0", [600.0, 2000.0])
    def test_overflowing_rate_threshold_is_a_domain_error(self, r0):
        # 4**r0 - 1 is no double: refused before any power of r0 overflows
        p = _params(10.0, r0=r0)
        for op in (outage.oma_outage_weak, outage.oma_outage_strong,
                   outage.alpha_pair, outage.noma_outage_weak_ainf,
                   outage.noma_outage_strong_asup, outage.outage_point):
            with pytest.raises(DomainError, match="r0"):
                op(p)
        with pytest.raises(DomainError, match="r0"):
            run_outage(SimConfig(trials=10, seed=1, xi_grid=(10.0,), r0=r0))


class TestEmpiricalPolicies:
    def test_boundary_identities_via_mc(self):
        p = _params(1e3)
        m = _mc(p, 400_000, 13)
        pw = m["p_noma_weak_asup"]
        assert abs(pw.mean - outage.oma_outage_weak(p)) < 3.0 * pw.std_error
        ps = m["p_noma_strong_ainf"]
        assert abs(ps.mean - outage.oma_outage_strong(p)) < 3.0 * ps.std_error

    def test_mid_policy_between_endpoints(self):
        p = _params(1e3)
        m = _mc(p, 400_000, 17)
        pw_mid, ps_mid = m["p_noma_weak_mid"], m["p_noma_strong_mid"]
        assert (outage.noma_outage_weak_ainf(p) - 3.0 * pw_mid.std_error
                < pw_mid.mean
                < outage.oma_outage_weak(p) + 3.0 * pw_mid.std_error)
        assert (outage.noma_outage_strong_asup(p) - 3.0 * ps_mid.std_error
                < ps_mid.mean
                < outage.oma_outage_strong(p) + 3.0 * ps_mid.std_error)

    def test_monotone_in_the_share_policy(self):
        # one table, one set of draws, so the sweep is paired per draw
        m = _mc(_params(1e3), 200_000, 29)
        weak = [m[f"p_noma_weak_{tag}"].mean for tag in ("ainf", "mid", "asup")]
        strong = [m[f"p_noma_strong_{tag}"].mean
                  for tag in ("ainf", "mid", "asup")]
        assert weak[0] <= weak[1] <= weak[2]
        assert strong[0] >= strong[1] >= strong[2]

    def test_deterministic_given_seed(self):
        p = _params(500.0)
        first = _mc(p, 100_000, 3)
        second = _mc(p, 100_000, 3)
        assert first == second


class TestOutagePoint:
    def test_builder_collects_all_four(self):
        pt = outage.outage_point(_params(1e3))
        assert pt.xi == 1e3 and pt.r0 == 2.0
        assert pt.p_noma_weak_ainf <= pt.p_oma_weak
        assert pt.p_noma_strong_asup <= pt.p_oma_strong

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(DomainError):
            outage.OutagePoint(xi=10.0, r0=1.0, p_oma_weak=1.2,
                               p_oma_strong=0.1, p_noma_weak_ainf=0.1,
                               p_noma_strong_asup=0.1)
        with pytest.raises(DomainError):
            outage.OutagePoint(xi=10.0, r0=1.0, p_oma_weak=0.1,
                               p_oma_strong=0.05, p_noma_weak_ainf=0.2,
                               p_noma_strong_asup=0.01)
