import math

import numpy as np
import pytest

from fairnoma import specfun as sf
from fairnoma.errors import DomainError, QuadratureError
from helpers import e1_oracle


def _e1_scaled_oracle(x: float) -> float:
    """e^x E1(x) from the quadrature oracle."""
    return math.exp(x) * e1_oracle(x)


class TestExpIntegralE1:
    def test_frozen_examples(self):
        assert math.exp(-1.0) * sf.exp_integral_e1_scaled(1.0) == pytest.approx(
            0.2193839344, abs=1e-10)
        assert math.exp(-2.0) * sf.exp_integral_e1_scaled(2.0) == pytest.approx(
            0.0489005107, abs=1e-10)

    def test_against_quadrature_oracle(self):
        for x in np.geomspace(1e-6, 50.0, 60):
            x = float(x)
            oracle = _e1_scaled_oracle(x)
            assert sf.exp_integral_e1_scaled(x) == pytest.approx(oracle, rel=1e-8)
            assert sf.exp_integral_e1_scaled_array(np.array([x]))[0] == \
                pytest.approx(oracle, rel=1e-8)

    def test_crossover_is_seamless(self):
        # series/continued-fraction handoff at x = 1: both sides track the
        # oracle, so the seam introduces no jump beyond the true slope
        for x in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            assert sf.exp_integral_e1_scaled(x) == pytest.approx(
                _e1_scaled_oracle(x), rel=5e-12)

    def test_positive_decreasing_and_bounded(self):
        # x/(x+1) < x e^x E1(x) < 1 for every x > 0
        grid = np.geomspace(1e-8, 600.0, 200)
        values = [sf.exp_integral_e1_scaled(float(x)) for x in grid]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        for x, v in zip(grid, values):
            assert 1.0 / (x + 1.0) < v < 1.0 / x

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
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
            expected = _e1_scaled_oracle(x)
            assert sf.exp_integral_e1_scaled(x) == pytest.approx(expected, rel=1e-12)

    def test_scaled_variant_survives_extreme_arguments(self):
        # plain E1 underflows near x ~ 745; the scaled form must not
        for x in (1e3, 1e6, 1e12):
            v = sf.exp_integral_e1_scaled(x)
            assert 0.0 < v < 1.0 / x
            assert v == pytest.approx(1.0 / x, rel=2.0 / x)


class TestContinuedFractionFailure:
    @pytest.mark.parametrize("fn, x, exact", [
        (sf.exp_integral_e1_scaled, 2.0, math.exp(2.0) * 0.04890051070806112),
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
