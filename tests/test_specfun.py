import math

import numpy as np
import pytest

from fairnoma import specfun as sf
from fairnoma.errors import DomainError
from helpers import e1_oracle


def _e1_scaled_oracle(x: float) -> float:
    """e^x E1(x) from the quadrature oracle."""
    return math.exp(x) * e1_oracle(x)


# (x, e^x E1(x)), computed once with mpmath at 40 digits at the double x:
# points on each side of every switch between the series, the Chebyshev
# octaves and the continued fraction, the worst points of a 3000-point scan
# of each range, and x = 1.0385, 1.1355 and 1.158, where an earlier forward
# continued fraction was off by up to 1.1e-14
E1S_REFERENCE = [
    (1e-300, 6.9019831223331217232e+2),
    (1e-10, 2.244863526738378747e+1),
    (0.001, 6.3378740703254879563),
    (0.25, 1.3408854448313933526),
    (0.7679506871546828, 7.0968506088386625395e-1),
    (0.9999999999999999, 5.9634736232319411916e-1),
    (1.0, 5.9634736232319407434e-1),
    (1.0385, 5.8123576095747827802e-1),
    (1.1355, 5.4660291508079987804e-1),
    (1.158, 5.3919645196420533826e-1),
    (1.5, 4.4825666929158295392e-1),
    (1.9999999999999998, 3.6132861688822261549e-1),
    (2.0, 3.613286168882225847e-1),
    (3.0, 2.6208374025531849619e-1),
    (5.5, 1.5682943358012753129e-1),
    (8.0, 1.1227963925349931183e-1),
    (12.0, 7.7326133138919230607e-2),
    (15.995, 5.9025568271474382013e-2),
    (15.999999999999998, 5.9008103608556442389e-2),
    (16.0, 5.9008103608556436187e-2),
    (16.5, 5.7312454022601481473e-2),
    (63.88, 1.5416626270893339852e-2),
    (1000.0, 9.99001994023880715e-4),
    (1e10, 9.9999999990000000002e-11),
    (1e300, 9.999999999999999475e-301),
]


class TestExpIntegralE1:
    @pytest.mark.parametrize("x,want", E1S_REFERENCE,
                             ids=[repr(x) for x, _ in E1S_REFERENCE])
    def test_against_reference_values(self, x, want):
        for got in (sf.exp_integral_e1_scaled(x),
                    sf.exp_integral_e1_scaled_array(np.array([x]))[0]):
            assert abs(got - want) <= 3e-15 * want


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
        # series/Chebyshev handoff at x = 1: both sides track the oracle, so
        # the seam introduces no jump beyond the true slope
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
        x = np.concatenate((np.geomspace(1e-300, 1e300, 4001),
                            [1.0, 2.0, 4.0, 8.0, 16.0], edges))
        got = sf.exp_integral_e1_scaled_array(x)
        want = np.array([sf.exp_integral_e1_scaled(float(v)) for v in x])
        assert got.shape == x.shape
        # the same formula on each range, so the same bits
        np.testing.assert_array_equal(got, want)

    def test_scaled_variant_matches_product(self):
        for x in np.geomspace(1e-6, 500.0, 40):
            x = float(x)
            expected = _e1_scaled_oracle(x)
            assert sf.exp_integral_e1_scaled(x) == pytest.approx(
                expected, rel=1e-12, abs=0.0)

    def test_scaled_variant_survives_extreme_arguments(self):
        # plain E1 underflows near x ~ 745; the scaled form must not
        for x in (1e3, 1e6, 1e12):
            v = sf.exp_integral_e1_scaled(x)
            assert 0.0 < v < 1.0 / x
            assert v == pytest.approx(1.0 / x, rel=2.0 / x, abs=0.0)

