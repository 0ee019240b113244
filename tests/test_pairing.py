"""Min/max pairing: order statistics, the exact high-SNR gain, and the
lower-endpoint approximation."""

import math

import numpy as np
import pytest
from scipy import integrate

from fairnoma import pairing
from fairnoma.errors import DomainError
from fairnoma.mcsim import SimConfig, run_pairing
from fairnoma.specfun import EULER_GAMMA, digamma
from fairnoma.twouser import SystemParams
from helpers import engine_minmax, harmonic_number

# expected_gain_asup(k) from 50-digit mpmath, as the order-statistic integral
# and as the alternating binomial sum at k*0.3 + 70 digits (they agree to
# 1e-50); pinned so the test needs no mpmath
GAIN_ASUP_REFERENCE = [
    (2, 1.0),
    (3, 1.5),
    (4, 1.8300749985576876371),
    (5, 2.0751874963942190927),
    (10, 2.7913803408639264206),
    (20, 3.4596969417224409451),
    (25, 3.6675841980108481172),
    (30, 3.8353092825518519562),
    (31, 3.8652857315703766801),
    (64, 4.5153885995581882346),
    (128, 5.1188605933605155211),
    (512, 6.2891027263080106793),
]


class TestJointCdf:
    def test_frozen_value(self):
        want = (1.0 - math.exp(-2.0)) ** 2 - (math.exp(-1.0) - math.exp(-2.0)) ** 2
        assert pairing.minmax_joint_cdf(1.0, 2.0, 2) == pytest.approx(want, rel=1e-15)
        assert pairing.minmax_joint_cdf(1.0, 2.0, 2) == pytest.approx(0.6935682870, abs=1e-9)

    def test_zero_min_bound_gives_zero(self):
        for k in (2, 5, 11):
            assert pairing.minmax_joint_cdf(0.0, 3.0, k) == 0.0

    def test_total_mass(self):
        assert pairing.minmax_joint_cdf(700.0, 700.0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_matches_quadrature_of_pdf(self):
        for k in (2, 4, 7):
            val, _ = integrate.dblquad(
                lambda b, a: pairing.minmax_joint_pdf(a, b, k),
                0.0, 1.0, lambda a: a, lambda a: 2.0, epsabs=1e-11)
            assert pairing.minmax_joint_cdf(1.0, 2.0, k) == pytest.approx(val, abs=1e-9)

    def test_matches_empirical_cdf(self):
        rng = np.random.default_rng(2024)
        k = 4
        mn, mx = engine_minmax(k, 1.0, rng, 200_000)
        for x0, xm in ((0.2, 0.9), (0.5, 2.0), (1.0, 1.5)):
            emp = float(np.mean((mn <= x0) & (mx <= xm)))
            cdf = pairing.minmax_joint_cdf(x0, xm, k)
            se = math.sqrt(cdf * (1.0 - cdf) / 200_000)
            assert abs(emp - cdf) < 4.0 * se

    def test_scale_parameter(self):
        a = pairing.minmax_joint_cdf(1.0, 2.0, 3, beta=2.0)
        b = pairing.minmax_joint_cdf(0.5, 1.0, 3, beta=1.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(2.0, 1.0, 3)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(-0.1, 1.0, 3)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(1.0, 2.0, 1)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(1.0, 2.0, 3, beta=0.0)


class TestJointPdf:
    def test_two_user_case_is_ordered_pair_density(self):
        for x0, xm in ((0.3, 0.7), (1.0, 2.0), (0.1, 5.0)):
            got = pairing.minmax_joint_pdf(x0, xm, 2)
            assert got == pytest.approx(2.0 * math.exp(-(x0 + xm)), rel=1e-14)

    def test_normalizes_over_the_wedge(self):
        for k in (3, 6):
            val, _ = integrate.dblquad(
                lambda b, a: pairing.minmax_joint_pdf(a, b, k),
                0.0, 80.0, lambda a: a, lambda a: 80.0, epsabs=1e-10)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_mixed_partial_of_cdf(self):
        h = 1e-4
        k = 4

        def cdf(x0, xm):
            return pairing.minmax_joint_cdf(x0, xm, k)

        fd = (cdf(1 + h, 2 + h) - cdf(1 - h, 2 + h)
              - cdf(1 + h, 2 - h) + cdf(1 - h, 2 - h)) / (4.0 * h * h)
        assert fd == pytest.approx(pairing.minmax_joint_pdf(1.0, 2.0, k), abs=1e-6)

    def test_wedge_guard(self):
        for x0, xm in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(DomainError):
                pairing.minmax_joint_pdf(x0, xm, 3)


class TestSampling:
    def test_max_mean_is_harmonic_number(self):
        rng = np.random.default_rng(99)
        _, mx = engine_minmax(10, 1.0, rng, 1_000_000)
        se = float(np.std(mx, ddof=1)) / 1000.0
        assert abs(float(np.mean(mx)) - harmonic_number(10)) < 3.0 * se
        assert harmonic_number(10) == pytest.approx(2.9289682540, abs=1e-9)

    def test_min_mean_is_beta_over_k(self):
        rng = np.random.default_rng(98)
        for beta in (1.0, 2.0):
            mn, _ = engine_minmax(10, beta, rng, 1_000_000)
            se = float(np.std(mn, ddof=1)) / 1000.0
            assert abs(float(np.mean(mn)) - beta / 10) < 3.0 * se


class TestUpperEndpointGain:
    def test_small_pools_exact(self):
        assert pairing.expected_gain_asup(1) == 0.0
        assert pairing.expected_gain_asup(2) == pytest.approx(1.0, rel=1e-14)
        assert pairing.expected_gain_asup(3) == pytest.approx(1.5, rel=1e-12)

    def test_matches_mpmath_reference_table(self):
        for k, want in GAIN_ASUP_REFERENCE:
            got = pairing.expected_gain_asup(k)
            assert abs(got - want) <= 1e-9 * want, (k, got, want)

    def test_strictly_increasing_in_pool_size(self):
        vals = [pairing.expected_gain_asup(k) for k in range(2, 31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # and beyond the figures' K = 2..30
        assert pairing.expected_gain_asup(40) > pairing.expected_gain_asup(30)

    def test_matches_monte_carlo_gain(self):
        cfg = SimConfig(trials=300_000, seed=31, xi_grid=(1e5,),
                        scenario="pair_minmax", k_grid=tuple(range(2, 11)))
        for point in run_pairing(cfg):
            gap = abs(point.measures["ds_asup"].mean
                      - pairing.expected_gain_asup(point.k))
            assert gap <= 0.1, (point.k, gap)

    def test_matches_log_ratio_identity(self):
        # the quantity the formula integrates: E[log2(g_max/g_min)] / 2
        rng = np.random.default_rng(310)
        for k in (5, 30, 100):
            mn, mx = engine_minmax(k, 1.0, rng, 300_000)
            vals = 0.5 * np.log2(mx / mn)
            se = float(np.std(vals, ddof=1)) / math.sqrt(300_000)
            z = (float(np.mean(vals)) - pairing.expected_gain_asup(k)) / se
            assert abs(z) < 4.0, (k, z)

    def test_rejects_bad_pool(self):
        for k in (0, -2, 2.5):
            with pytest.raises(DomainError):
                pairing.expected_gain_asup(k)


class TestUpperShareLimit:
    def test_mean_share_approaches_half_for_huge_pools(self):
        # min of K exponentials is Exponential(beta/K), sampled directly
        rng = np.random.default_rng(77)
        xi = 1e5
        means = []
        for k in (100, 10_000, 1_000_000):
            g_min = -(1.0 / k) * np.log1p(-rng.random(100_000))
            share = 1.0 / (1.0 + np.sqrt(1.0 + xi * g_min))
            means.append(float(share.mean()))
        assert means[0] < means[1] < means[2]
        assert means[-1] > 0.45


class TestLowerEndpointApprox:
    def test_digamma_matches_harmonic_numbers(self):
        for k in range(1, 51):
            h_k = digamma(float(k + 1)) + EULER_GAMMA
            assert h_k == pytest.approx(harmonic_number(k), abs=1e-12)

    def test_tracks_monte_carlo_in_its_regime(self):
        # plug-in-of-means approximation: valid once xi*beta/k is modest
        for xi, k in ((100.0, 50), (1e3, 200)):
            cfg = SimConfig(trials=200_000, seed=41, xi_grid=(xi,),
                            scenario="pair_minmax", k_users=k)
            mc = run_pairing(cfg)[0].measures["ds_ainf"].mean
            approx = pairing.expected_gain_ainf_approx(k, SystemParams(xi=xi))
            assert abs(approx - mc) <= 0.1

    def test_decreases_for_large_pools(self):
        p = SystemParams(xi=1e5)
        vals = [pairing.expected_gain_ainf_approx(k, p)
                for k in (300, 400, 500, 700, 1000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_log_term_rewrite_matches_surd_quotient(self):
        for k in (2, 10, 50):
            for xi in (10.0, 1e3, 1e6):
                h_k = harmonic_number(k)
                surd = math.log2(1.0 + (math.sqrt(1.0 + xi * h_k) - 1.0) / (k * h_k))
                e1_term = pairing.expected_gain_ainf_approx(k, SystemParams(xi=xi))
                from fairnoma.specfun import exp_integral_e1_scaled
                direct = exp_integral_e1_scaled(k / xi) / math.log(4.0) - surd
                assert e1_term == pytest.approx(direct, rel=1e-12)

    def test_requires_pool_of_two(self):
        with pytest.raises(DomainError):
            pairing.expected_gain_ainf_approx(1, SystemParams(xi=10.0))
