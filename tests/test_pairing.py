"""Min/max pairing: order statistics, the exact high-SNR gain, and the
lower-endpoint approximation."""

import math

import numpy as np
import pytest
from scipy import integrate

from fairnoma import pairing
from fairnoma.errors import DomainError
from fairnoma.mcsim import SimConfig, simulate
from fairnoma.specfun import exp_integral_e1_scaled
from fairnoma.twouser import SystemParams
from helpers import (engine_minmax, harmonic_number, noma_endpoint_oracle,
                     noma_fixed_sum_oracle, oma_max_oracle)

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
        assert pairing.minmax_joint_cdf(1.0, 2.0, 2) == pytest.approx(
            want, rel=1e-15, abs=0.0)
        assert pairing.minmax_joint_cdf(1.0, 2.0, 2) == pytest.approx(0.6935682870, abs=1e-9)

    def test_zero_min_bound_gives_zero(self):
        for k in (2, 5, 11):
            assert pairing.minmax_joint_cdf(0.0, 3.0, k) == 0.0

    def test_total_mass(self):
        assert pairing.minmax_joint_cdf(700.0, 700.0, 3) == pytest.approx(
            1.0, rel=1e-12, abs=0.0)

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
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(2.0, 1.0, 3)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(-0.1, 1.0, 3)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(1.0, 2.0, 1)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf(1.0, 2.0, 3, beta=0.0)
        with pytest.raises(DomainError):
            pairing.minmax_joint_cdf("a", 1.0, 2)


class TestJointPdf:
    def test_two_user_case_is_ordered_pair_density(self):
        for x0, xm in ((0.3, 0.7), (1.0, 2.0), (0.1, 5.0)):
            got = pairing.minmax_joint_pdf(x0, xm, 2)
            assert got == pytest.approx(
                2.0 * math.exp(-(x0 + xm)), rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("k", (2, 7, 30))
    @pytest.mark.parametrize("beta", (0.5, 2.0))
    def test_distribution_matches_exact_cdfs(self, k, beta):
        # Both checks share one critical value at alpha = 1e-6: by the
        # Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant,
        # P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2) for every n, and by
        # Hoeffding's the same bound holds for one joint-CDF point.
        n = 200_000
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        mn, mx = engine_minmax(k, beta, np.random.default_rng(31), n)
        marginals = ((mn, lambda x: -np.expm1(-k * x / beta)),
                     (mx, lambda x: (-np.expm1(-x / beta)) ** k))
        for sample, cdf in marginals:
            f = cdf(np.sort(sample))
            i = np.arange(1, n + 1)
            ks = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
            assert ks < eps, (k, beta, ks, eps)
        # min around beta/k, max around beta*H_k
        for q in (0.1, 0.5, 1.5):
            for r in (0.5, 1.0, 2.0):
                x0, xm = q * beta / k, r * beta * harmonic_number(k)
                emp = float(np.mean((mn <= x0) & (mx <= xm)))
                cdf = pairing.minmax_joint_cdf(x0, xm, k, beta)
                assert abs(emp - cdf) < eps, (k, beta, x0, xm, emp, cdf)


class TestPoolOmaOracles:
    def test_oma_columns_match_exact_means(self):
        # the weakest of K is Exp(beta/K), so E[c1_oma] is e^x E1(x) / ln 4
        # at x = K/(beta xi); the strongest is a 1-D integral against the
        # maximum's density. Seed and bound were fixed before the first run.
        points = simulate(SimConfig(trials=200_000, seed=101,
                                    xi_grid=(1.0, 100.0, 1e5),
                                    scenario="pair_minmax",
                                    k_grid=(2, 3, 10, 30)),
                          measures={"c1_oma", "c2_oma"})
        assert len(points) == 12
        for pt in points:
            exact = {"c1_oma": exp_integral_e1_scaled(pt.k / pt.xi)
                     / math.log(4.0),
                     "c2_oma": oma_max_oracle(pt.k, pt.xi, 1.0)}
            for name, want in exact.items():
                r = pt.measures[name]
                z = (r.mean - want) / r.std_error
                assert abs(z) <= 4.5, (pt.k, pt.xi, name, z)


# (E[C1_N(a_inf)], E[C2_N(a_sup)]) of the weakest and the strongest of K
# i.i.d. Exp(1) users, keyed by (K, xi), computed once with scipy 1.17.1 by
# helpers.noma_endpoint_oracle (integrate.dblquad, epsabs = epsrel = 1e-10).
# The error estimates, in the table's order, were 9.61e-11, 9.44e-11;
# 9.05e-11, 8.40e-11; 9.73e-11, 2.16e-10; 8.82e-11, 1.91e-9 (xi = 1);
# 3.49e-10, 8.39e-10; 4.76e-10, 1.24e-9; 9.55e-11, 1.29e-10; 6.07e-10,
# 5.85e-10 (xi = 100); 1.46e-9, 2.41e-9; 2.17e-9, 4.23e-9; 9.52e-11,
# 2.47e-10; 6.23e-9, 1.03e-8 (xi = 1e5). Pinned because the 24 dblquads
# take seconds; the (2, 1.0) entry is recomputed live.
POOL_ENDPOINT_REFERENCE = {
    (2, 1.0): (0.28628066950833325, 0.6851632348082617),
    (3, 1.0): (0.2180078509418467, 0.8341267957100436),
    (10, 1.0): (0.08484504478064052, 1.2401924635533668),
    (30, 1.0): (0.03172775829742656, 1.5463869237472514),
    (2, 100.0): (2.979365520464224, 4.175951337075651),
    (3, 100.0): (2.9053479422694246, 4.775877970667188),
    (10, 100.0): (2.328521287023942, 6.163125183440103),
    (30, 100.0): (1.5584289491099876, 7.0599354162876224),
    (2, 1e5): (8.346270550859794, 9.37987416798145),
    (3, 1e5): (8.521240607149897, 10.083733800288506),
    (10, 1e5): (8.761694289667966, 11.785328480833451),
    (30, 1e5): (8.64121385471702, 13.061963911500639),
}


class TestPoolNomaOracles:
    def test_noma_endpoint_columns_match_quadrature(self):
        # the two NOMA endpoint columns figures 3 and 4 draw on, against a
        # 2-D integral over the (min, max) wedge. Seed, trials and bound were
        # fixed before the first run.
        live = noma_endpoint_oracle(2, 1.0)
        assert POOL_ENDPOINT_REFERENCE[2, 1.0] == pytest.approx(live,
                                                                 rel=1e-9)
        points = simulate(SimConfig(trials=200_000, seed=102,
                                    xi_grid=(1.0, 100.0, 1e5),
                                    scenario="pair_minmax",
                                    k_grid=(2, 3, 10, 30)),
                          measures={"c1_noma_ainf", "c2_noma_asup"})
        assert len(points) == 12
        for pt in points:
            exact = dict(zip(("c1_noma_ainf", "c2_noma_asup"),
                             live if (pt.k, pt.xi) == (2, 1.0)
                             else POOL_ENDPOINT_REFERENCE[pt.k, pt.xi]))
            for name, want in exact.items():
                r = pt.measures[name]
                z = (r.mean - want) / r.std_error
                assert abs(z) <= 4.5, (pt.k, pt.xi, name, z)


class TestPoolOutageOracles:
    def test_oma_outage_matches_exact_probabilities(self):
        # below r0 = 1 the OMA SNR threshold is theta = 3: the weakest of K
        # is Exp(beta/K), so P(w1 < theta) = 1 - exp(-K theta/(beta xi)),
        # and the strongest is below it with (1 - exp(-theta/(beta xi)))**K.
        # The SE is the exact p's, floored at one count. Seed, trials and
        # bound were fixed before the first run.
        trials, theta = 200_000, 3.0
        points = simulate(SimConfig(trials=trials, seed=108,
                                    xi_grid=(1.0, 10.0, 100.0), r0=1.0,
                                    scenario="pair_minmax", k_grid=(2, 5, 30)),
                          measures={"p_oma_weak", "p_oma_strong"})
        assert len(points) == 9
        for pt in points:
            x = theta / pt.xi
            exact = {"p_oma_weak": -math.expm1(-pt.k * x),
                     "p_oma_strong": (-math.expm1(-x)) ** pt.k}
            for name, p in exact.items():
                r = pt.measures[name]
                se = max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
                z = (r.mean - p) / se
                assert abs(z) <= 4.5, (pt.k, pt.xi, name, z)


class TestPoolFixedShareOracle:
    def test_fixed_share_sum_matches_quadrature(self):
        # figure 4's s_fixed_mc column: the NOMA sum rate at share 0.2, the
        # sum of a 1-D integral over each marginal. Seed, trials and bound
        # were fixed before the first run.
        points = simulate(SimConfig(trials=200_000, seed=103,
                                    xi_grid=(1.0, 100.0, 1e5),
                                    scenario="pair_minmax",
                                    k_grid=(2, 3, 10, 30),
                                    fixed_share=0.2),
                          measures={"s_noma_fixed"})
        assert len(points) == 12
        for pt in points:
            r = pt.measures["s_noma_fixed"]
            z = (r.mean - noma_fixed_sum_oracle(pt.k, pt.xi, 0.2)) / r.std_error
            assert abs(z) <= 4.5, (pt.k, pt.xi, z)


class TestUpperEndpointGain:
    def test_small_pools_exact(self):
        assert pairing.expected_gain_asup(1) == 0.0
        assert pairing.expected_gain_asup(2) == pytest.approx(
            1.0, rel=1e-14, abs=0.0)
        assert pairing.expected_gain_asup(3) == pytest.approx(
            1.5, rel=1e-12, abs=0.0)

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
        for point in simulate(cfg):
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
        for k in (0, -2, 2.5, True):
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
    def test_uses_exact_harmonic_numbers(self):
        # H_k enters only under the log term: the approximation is the
        # printed formula at the exactly rounded H_k, bit for bit
        for k in range(2, 51):
            for xi in (10.0, 1e3):
                h_k = harmonic_number(k)
                log_term = math.log1p(xi / (k * (1.0 + math.sqrt(1.0 + xi * h_k))))
                want = (exp_integral_e1_scaled(k / xi) / math.log(4.0)
                        - log_term / math.log(2.0))
                got = pairing.expected_gain_ainf_approx(k, SystemParams(xi=xi))
                assert got == want, (k, xi)

    def test_tracks_monte_carlo_in_its_regime(self):
        # plug-in-of-means approximation: valid once xi*beta/k is modest
        for xi, k in ((100.0, 50), (1e3, 200)):
            cfg = SimConfig(trials=200_000, seed=41, xi_grid=(xi,),
                            scenario="pair_minmax", k_grid=(k,))
            mc = simulate(cfg)[0].measures["ds_ainf"].mean
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
                direct = exp_integral_e1_scaled(k / xi) / math.log(4.0) - surd
                assert e1_term == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_requires_pool_of_two(self):
        with pytest.raises(DomainError):
            pairing.expected_gain_ainf_approx(1, SystemParams(xi=10.0))
