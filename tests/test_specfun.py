import math

import numpy as np
import pytest

from fairnoma import specfun as sf
from fairnoma.errors import DomainError, QuadratureError
from helpers import e1_oracle, erfc_oracle, harmonic_number


class TestExpIntegralE1:
    def test_frozen_examples(self):
        assert sf.exp_integral_e1(1.0) == pytest.approx(0.2193839344, abs=1e-10)
        assert sf.exp_integral_e1(2.0) == pytest.approx(0.0489005107, abs=1e-10)

    def test_against_quadrature_oracle(self):
        for x in np.geomspace(1e-6, 50.0, 60):
            x = float(x)
            oracle = e1_oracle(x)
            assert sf.exp_integral_e1(x) == pytest.approx(oracle, rel=1e-8)

    def test_crossover_is_seamless(self):
        # series/continued-fraction handoff at x = 1: both sides track the
        # oracle, so the seam introduces no jump beyond the true slope
        for x in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            assert sf.exp_integral_e1(x) == pytest.approx(e1_oracle(x), rel=5e-12)

    def test_positive_decreasing_and_bounded(self):
        grid = np.geomspace(1e-8, 600.0, 200)
        values = [sf.exp_integral_e1(float(x)) for x in grid]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        for x, v in zip(grid, values):
            assert v < math.exp(-x) / x

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sf.exp_integral_e1(bad)
            with pytest.raises(DomainError):
                sf.exp_integral_e1_scaled(bad)
            with pytest.raises(DomainError):
                sf.exp_integral_e1_scaled_array(np.array([1.0, bad]))

    def test_array_variant_matches_scalar(self):
        # a log grid, plus both sides of every switch between the series,
        # the four Chebyshev octaves and the continued fraction
        edges = [np.nextafter(b, side) for b in (1.0, 2.0, 4.0, 8.0, 16.0)
                 for side in (0.0, np.inf)]
        x = np.concatenate((np.geomspace(1e-12, 1e12, 2401),
                            [1.0, 2.0, 4.0, 8.0, 16.0], edges))
        got = sf.exp_integral_e1_scaled_array(x)
        want = np.array([sf.exp_integral_e1_scaled(float(v)) for v in x])
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_scaled_variant_matches_product(self):
        for x in np.geomspace(1e-6, 500.0, 40):
            x = float(x)
            expected = math.exp(x) * sf.exp_integral_e1(x)
            assert sf.exp_integral_e1_scaled(x) == pytest.approx(expected, rel=1e-12)

    def test_scaled_variant_survives_extreme_arguments(self):
        # plain E1 underflows near x ~ 745; the scaled form must not
        for x in (1e3, 1e6, 1e12):
            v = sf.exp_integral_e1_scaled(x)
            assert 0.0 < v < 1.0 / x
            assert v == pytest.approx(1.0 / x, rel=2.0 / x)

    def test_detailed_estimate_is_honest(self):
        for x in (1e-5, 0.3, 1.0, 7.0, 40.0):
            r = sf.exp_integral_e1_detailed(x)
            assert r.est_rel_error >= 0.0
            oracle = e1_oracle(x)
            assert abs(r.value - oracle) / oracle <= r.est_rel_error + 1e-12


class TestErfc:
    def test_exact_and_frozen_points(self):
        assert sf.erfc(0.0) == 1.0
        assert sf.erfc(1.0) == pytest.approx(0.1572992071, abs=1e-10)

    def test_reflection_identity(self):
        for z in np.linspace(0.0, 6.0, 49):
            z = float(z)
            assert sf.erfc(z) + sf.erfc(-z) == pytest.approx(2.0, abs=1e-14)

    def test_against_quadrature_oracle(self):
        for z in np.linspace(-6.0, 6.0, 49):
            z = float(z)
            assert sf.erfc(z) == pytest.approx(erfc_oracle(z), rel=1e-12)

    def test_range_and_monotonicity(self):
        # true range is (0, 2); at z <= -5.7 the value 2 - O(1e-15) rounds to
        # 2.0 in doubles, so the range check admits the rounded endpoint and
        # strict monotonicity is asserted where consecutive values are
        # representable
        grid = np.linspace(-6.0, 6.0, 121)
        values = [sf.erfc(float(z)) for z in grid]
        assert all(0.0 < v <= 2.0 for v in values)
        strict = [v for z, v in zip(grid, values) if z >= -5.0]
        assert all(a > b for a, b in zip(strict, strict[1:]))

    def test_domain_errors(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sf.erfc(bad)

    def test_erfcx_consistency_and_range(self):
        for z in np.linspace(0.0, 5.0, 26):
            z = float(z)
            expected = math.exp(z * z) * sf.erfc(z)
            assert sf.erfcx(z) == pytest.approx(expected, rel=1e-12)
        # stays finite far beyond where erfc underflows
        big = sf.erfcx(1e8)
        assert big == pytest.approx(1.0 / (1e8 * math.sqrt(math.pi)), rel=1e-10)
        with pytest.raises(DomainError):
            sf.erfcx(-0.5)

    def test_detailed_estimate_is_honest(self):
        for z in (-4.0, -0.7, 0.2, 1.3, 2.0, 5.5):
            r = sf.erfc_detailed(z)
            assert r.est_rel_error >= 0.0
            oracle = erfc_oracle(z)
            assert abs(r.value - oracle) / abs(oracle) <= r.est_rel_error + 1e-12


class TestDigamma:
    def test_known_values(self):
        g = sf.EULER_GAMMA
        assert sf.digamma(1.0) == pytest.approx(-g, abs=1e-14)
        assert sf.digamma(2.0) == pytest.approx(1.0 - g, abs=1e-14)
        assert sf.digamma(11.0) == pytest.approx(2.9289682540 - 0.5772156649, abs=1e-9)

    def test_harmonic_identity(self):
        # psi(K+1) = H_K - gamma
        for k in range(1, 101):
            expected = harmonic_number(k) - sf.EULER_GAMMA
            assert abs(sf.digamma(k + 1.0) - expected) <= 1e-12

    def test_recurrence_on_fractional_arguments(self):
        rng = np.random.default_rng(20260817)
        for _ in range(300):
            x = float(rng.uniform(0.05, 40.0))
            defect = sf.digamma(x + 1.0) - sf.digamma(x) - 1.0 / x
            assert abs(defect) <= 1e-12

    def test_monotone_increasing(self):
        grid = np.geomspace(0.1, 200.0, 120)
        values = [sf.digamma(float(x)) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sf.digamma(bad)

    def test_detailed_estimate_is_honest(self):
        for x in (0.5, 1.0, 3.7, 12.0, 80.0):
            r = sf.digamma_detailed(x)
            assert r.est_rel_error >= 0.0
            # recurrence-based reference from a far-shifted evaluation
            ref = sf.digamma(x + 60.0) - math.fsum(1.0 / (x + i) for i in range(60))
            assert abs(r.value - ref) <= (r.est_rel_error + 1e-13) * max(abs(ref), 1.0)


class TestContinuedFractionFailure:
    @pytest.mark.parametrize("fn, x, exact", [
        (sf.exp_integral_e1_scaled, 2.0, math.exp(2.0) * 0.04890051070806112),
        (sf.erfcx, 2.0, math.exp(4.0) * 0.004677734981047266),
    ])
    def test_raises_quadrature_error_with_last_iterate(self, monkeypatch,
                                                       fn, x, exact):
        monkeypatch.setattr(sf, "_MAX_ITER", 3)
        with pytest.raises(QuadratureError, match="continued fraction") as info:
            fn(x)
        # the last iterate is close, and its estimate is the right size
        err = info.value
        assert 0.0 < err.estimate < 0.1 * exact
        assert abs(err.value - exact) < 10.0 * err.estimate
