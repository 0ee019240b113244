"""Outage probabilities: the package's forms against independent quadrature
routes, pinned mpmath values and Monte Carlo oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from fairnoma import outage
from fairnoma.errors import DomainError
from fairnoma.mcsim import SimConfig, simulate
from fairnoma.twouser import SystemParams


def _params(xi, r0=2.0, beta=1.0):
    return SystemParams(xi=xi, beta=beta, r0=r0)


def _mc(p, trials, seed):
    """Monte Carlo outage measures at one operating point; every share of
    the table is evaluated on the same draws."""
    config = SimConfig(trials=trials, seed=seed, xi_grid=(p.xi,), beta=p.beta,
                       r0=p.r0)
    return simulate(config)[0].measures


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
    with scipy's own infinite-limit transform, and alpha1 in its direct form
    (q - 1)/(xi x + q (1 - s)), s = sqrt(1 + xi x)."""
    xi, beta = params.xi, params.beta
    q = 2.0 ** params.r0
    y0 = (q * q - 1.0) / (xi * beta)

    def f(t):
        y = y0 + t
        x = beta * y
        alpha1 = (q - 1.0) / (xi * x + q * (1.0 - math.sqrt(1.0 + xi * x)))
        return math.exp(-y * (alpha1 + 1.0))

    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
                            limit=300)
    return 1.0 + math.exp(-2.0 * y0) - 2.0 * val


class TestOmaForms:
    def test_weak_frozen_value(self):
        got = outage.outage_point(_params(100.0)).p_oma_weak
        assert got == pytest.approx(1.0 - math.exp(-0.3), rel=1e-15, abs=0.0)

    def test_strong_frozen_value(self):
        got = outage.outage_point(_params(100.0)).p_oma_strong
        want = 1.0 + math.exp(-0.3) - 2.0 * math.exp(-0.15)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_rate_never_in_outage(self):
        pt = outage.outage_point(_params(50.0, r0=0.0))
        assert pt.p_oma_weak == 0.0
        assert pt.p_oma_strong == 0.0

    def test_vanishes_at_high_snr(self):
        weak = [outage.outage_point(_params(10.0 ** e)).p_oma_weak
                for e in range(1, 13)]
        assert all(b < a for a, b in zip(weak, weak[1:]))
        assert weak[-1] < 1e-10

    def test_strong_never_worse_than_weak(self):
        for r0 in (0.2, 1.0, 3.0):
            for xi in np.geomspace(1.0, 1e6, 9):
                pt = outage.outage_point(_params(float(xi), r0=r0))
                assert pt.p_oma_strong <= pt.p_oma_weak


class TestWeakUserLowerEndpoint:
    def test_degenerate_rate_is_exactly_zero(self):
        pt = outage.outage_point(_params(100.0, r0=0.0))
        assert pt.p_noma_weak_ainf == 0.0

    def test_vanishing_rate_limit(self):
        pt = outage.outage_point(_params(100.0, r0=1e-9))
        assert pt.p_noma_weak_ainf < 1e-9

    @pytest.mark.parametrize("r0", [60.0, 80.0, 150.0, 250.0, 300.0])
    def test_certain_outage_at_a_huge_rate(self, r0):
        # both probabilities are 1 in double precision, and exactly 1 is
        # returned rather than the quadrature's 1 - 2^-53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = outage.outage_point(_params(1.0, r0=r0))
            assert pt.p_noma_weak_ainf == 1.0
            assert pt.p_noma_strong_asup == 1.0

    def test_matches_independent_quadrature_route(self):
        for xi, r0 in ((100.0, 2.0), (1e3, 2.0), (1e5, 2.0), (50.0, 0.7)):
            p = _params(xi, r0=r0)
            got = outage.outage_point(p).p_noma_weak_ainf
            want = weak_outage_quad_oracle(p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_monte_carlo(self):
        p = _params(1e3)
        pw = _mc(p, 1_000_000, 101)["p_noma_weak_ainf"]
        cf = outage.outage_point(p).p_noma_weak_ainf
        assert abs(pw.mean - cf) < 3.0 * pw.std_error

    def test_dominates_oma_on_sweep(self):
        for db in range(0, 121, 4):
            pt = outage.outage_point(_params(10.0 ** (db / 10.0)))
            assert pt.p_noma_weak_ainf <= pt.p_oma_weak * (1.0 + 1e-9)

    def test_improvement_ratio_grows_with_snr(self):
        ratios = []
        for db in range(0, 61, 4):
            pt = outage.outage_point(_params(10.0 ** (db / 10.0)))
            ratios.append(pt.p_oma_weak / pt.p_noma_weak_ainf)
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 4.0


# (xi in dB, r0, beta, P(weak outage at a_inf), P(strong outage at a_sup)),
# computed once with mpmath at 60 digits (90 for the weak user, whose form
# here is a complement). Each integrates out the other gain of the ordered
# pair x1 < x2 than the package does: for the strong user x1, from
# max(0, xi x2^2/(q-1)^2 - 2 x2/(q-1)) to x2, over x2 < (q^2-1)/xi; for the
# weak user x2, above the inverse of x2 alpha1(x2), over x1.
OUTAGE_REFERENCE = [
    (-10, 0.1, 0.5, 9.9720715640911134554e-1, 8.9299292536129675299e-1),
    (-10, 0.1, 1, 9.4555037790804594237e-1, 5.8771321956781447625e-1),
    (-10, 0.1, 2, 7.6055594599606271273e-1, 2.6794800753271652787e-1),
    (-10, 0.5, 0.5, 9.9999999999999999368e-1, 9.999998940441027211e-1),
    (-10, 0.5, 1, 9.9999999699225769378e-1, 9.9957900837927829928e-1),
    (-10, 0.5, 2, 9.9993573634127064549e-1, 9.7339314814644724864e-1),
    (-10, 1, 0.5, 1.0, 9.9999999999999999431e-1),
    (-10, 1, 1, 1.0, 9.9999999722309857097e-1),
    (-10, 1, 2, 9.9999999999976959533e-1, 9.9993827008483951898e-1),
    (-10, 2, 0.5, 1.0, 1.0),
    (-10, 2, 1, 1.0, 1.0),
    (-10, 2, 2, 1.0, 9.9999999999992342237e-1),
    (-10, 4, 0.5, 1.0, 1.0),
    (-10, 4, 1, 1.0, 1.0),
    (-10, 4, 2, 1.0, 1.0),
    (-10, 8, 0.5, 1.0, 1.0),
    (-10, 8, 1, 1.0, 1.0),
    (-10, 8, 2, 1.0, 1.0),
    (20, 0.1, 0.5, 3.5363479489439946685e-3, 8.5165438103546237885e-6),
    (20, 0.1, 1, 1.6815559939313426805e-3, 2.1322671484473459476e-6),
    (20, 0.1, 2, 8.0751985375844603856e-4, 5.3345869196709758047e-7),
    (20, 0.5, 0.5, 2.1797823912360152138e-2, 3.2900881331034571188e-4),
    (20, 0.5, 1, 1.0230532329846557963e-2, 8.3033656538360290394e-5),
    (20, 0.5, 2, 4.8516900773492405447e-3, 2.0856923211334725612e-5),
    (20, 1, 0.5, 5.9027227851223721967e-2, 2.399408048465348343e-3),
    (20, 1, 1, 2.7157411979639365346e-2, 6.1631647781954702464e-4),
    (20, 1, 2, 1.2602624741933232872e-2, 1.5618864011243269054e-4),
    (20, 2, 0.5, 2.5193246164598452401e-1, 3.626871206705035119e-2),
    (20, 2, 1, 1.140835918263136946e-1, 1.0277816154658297069e-2),
    (20, 2, 2, 4.996351848029198038e-2, 2.739988561624246426e-3),
    (20, 4, 0.5, 9.9880155430163196739e-1, 6.8255968946659939665e-1),
    (20, 4, 1, 9.4613274125730837123e-1, 4.5114683812509017476e-1),
    (20, 4, 2, 6.9655550948649630872e-1, 2.3108653563926338114e-1),
    (20, 8, 0.5, 1.0, 9.9999931029922750473e-1),
    (20, 8, 1, 1.0, 9.9986880163682367315e-1),
    (20, 8, 2, 1.0, 9.9786289207865504183e-1),
    (60, 0.1, 0.5, 2.8786435743420987417e-7, 8.5416124352095443235e-14),
    (60, 0.1, 1, 1.4381942897852123952e-7, 2.135403422731085923e-14),
    (60, 0.1, 2, 7.1869828552249072468e-8, 5.3385089492386402595e-15),
    (60, 0.5, 0.5, 1.6627387445986645239e-6, 3.3529518096324114268e-12),
    (60, 0.5, 1, 8.3050679469301557977e-7, 8.3823874716384189751e-13),
    (60, 0.5, 2, 4.1494859862598843785e-7, 2.0955978613551181984e-13),
    (60, 1, 0.5, 4.0201976677592169055e-6, 2.5333194933792036949e-11),
    (60, 1, 1, 2.0071287543243617604e-6, 6.3333160333620023451e-12),
    (60, 1, 2, 1.0025170571994815909e-6, 1.5833311708351251477e-12),
    (60, 2, 0.5, 1.212366225492580292e-5, 4.6798766660337378694e-10),
    (60, 2, 1, 6.0434251867145292469e-6, 1.1699845831271094156e-10),
    (60, 2, 2, 3.0152738836057632569e-6, 2.9249807288294436343e-11),
    (60, 4, 0.5, 6.2932316108986018191e-5, 9.8055584169600673855e-8),
    (60, 4, 1, 3.0987453271530782847e-5, 2.4519447229435761266e-8),
    (60, 4, 2, 1.5336245104821457635e-5, 6.1305558541861641569e-9),
    (60, 8, 0.5, 1.7710094403447821553e-2, 5.1386775480005777897e-3),
    (60, 8, 1, 5.0535765868289942682e-3, 1.3608657440657815705e-3),
    (60, 8, 2, 1.4585215926196411297e-3, 3.5027503575885973162e-4),
    (100, 0.1, 0.5, 2.8710156299201735637e-11, 8.54161494638821614e-22),
    (100, 0.1, 1, 1.4354965198039560011e-11, 2.1354037366284469131e-22),
    (100, 0.1, 2, 7.1774426644879777445e-12, 5.3385093416103583803e-23),
    (100, 0.5, 0.5, 1.6569129863438109464e-10, 3.3529581670461006103e-20),
    (100, 0.5, 1, 8.2844789109275380929e-11, 8.3823954184100086082e-21),
    (100, 0.5, 2, 4.1422090431524657993e-11, 2.0955988547018467874e-21),
    (100, 1, 0.5, 4.0002005594706711913e-10, 2.5333333319493333338e-19),
    (100, 1, 1, 2.0000709057334761455e-10, 6.3333333316033333336e-20),
    (100, 1, 2, 1.0000250682469220477e-10, 1.5833333331170833334e-20),
    (100, 2, 0.5, 1.2001203781725065376e-9, 4.6799999876664000203e-18),
    (100, 2, 1, 6.0004255439535402464e-10, 1.1699999984583000013e-18),
    (100, 2, 2, 3.0001504377015358376e-10, 2.9249999980728750008e-19),
    (100, 4, 0.5, 6.0024143001004975145e-9, 9.8099995557150126723e-16),
    (100, 4, 1, 3.0008528120106456458e-9, 2.452499944464375792e-16),
    (100, 4, 2, 1.5003013164130546345e-9, 6.131249930580469245e-17),
    (100, 8, 0.5, 1.0285126323483794494e-7, 5.7712908791188121112e-11),
    (100, 8, 1, 5.1280827029366032892e-8, 1.4428312223584669665e-11),
    (100, 8, 2, 2.5594228163860831051e-8, 3.6070886841784682838e-12),
    (120, 0.1, 0.5, 2.8709462143344218886e-13, 8.5416149466368477344e-26),
    (120, 0.1, 1, 1.4354719776419464943e-13, 2.1354037366595258624e-26),
    (120, 0.1, 2, 7.1773558947341456254e-14, 5.3385093416492070669e-27),
    (120, 0.5, 0.5, 1.6568601229256845138e-12, 3.3529581676755482196e-24),
    (120, 0.5, 1, 8.2842920131485945756e-13, 8.3823954191968181198e-25),
    (120, 0.5, 2, 4.1421429655005661708e-13, 2.0955988548001979763e-25),
    (120, 1, 0.5, 4.0000200533919675001e-12, 2.5333333333194933333e-23),
    (120, 1, 1, 2.0000070899096188297e-12, 6.3333333333160333333e-24),
    (120, 1, 2, 1.0000025066525215811e-12, 1.5833333333311708333e-24),
    (120, 2, 0.5, 1.2000120325485047057e-11, 4.679999999876664e-22),
    (120, 2, 1, 6.0000425407742948741e-12, 1.169999999984583e-22),
    (120, 2, 2, 3.000015040252592783e-12, 2.92499999998072875e-23),
    (120, 4, 0.5, 6.0002407289488370373e-11, 9.8099999955571500013e-20),
    (120, 4, 1, 3.0000851014425439074e-11, 2.4524999994446437501e-20),
    (120, 4, 2, 1.5000300855784900665e-11, 6.1312499993058046875e-21),
    (120, 8, 0.5, 1.0206748190888375937e-9, 5.7713582197862167952e-15),
    (120, 8, 1, 5.1023650674284888473e-10, 1.4428396399732739609e-15),
    (120, 8, 2, 2.5508309591035496103e-10, 3.6070992062165904896e-16),
    (20, 1e-9, 1, 1.6065666413313902379e-11, 1.9218120576443118791e-22),
]


@pytest.mark.parametrize("xi_db,r0,beta,p_weak,p_strong", OUTAGE_REFERENCE,
                         ids=[f"{d}dB-r0{r}-beta{b}"
                              for d, r, b, _, _ in OUTAGE_REFERENCE])
def test_endpoints_match_mpmath_reference(xi_db, r0, beta, p_weak, p_strong):
    pt = outage.outage_point(_params(10.0 ** (xi_db / 10.0), r0=r0, beta=beta))
    assert pt.p_noma_weak_ainf == pytest.approx(p_weak, rel=1e-9, abs=0.0)
    assert pt.p_noma_strong_asup == pytest.approx(p_strong, rel=1e-9, abs=0.0)


class TestStrongUserUpperEndpoint:
    def test_degenerate_rate_is_exactly_zero(self):
        pt = outage.outage_point(_params(100.0, r0=0.0))
        assert pt.p_noma_strong_asup == 0.0
        pt = outage.outage_point(_params(100.0, r0=1e-9))
        assert pt.p_noma_strong_asup < 1e-9

    def test_matches_region_integration(self):
        for xi, r0 in ((1e3, 2.0), (100.0, 2.0), (1e3, 1.0), (10.0, 3.0)):
            p = _params(xi, r0=r0)
            got = outage.outage_point(p).p_noma_strong_asup
            want = strong_outage_region_oracle(p)
            assert abs(got - want) <= 1e-6
            assert got == pytest.approx(want, rel=1e-9)

    def test_matches_monte_carlo(self):
        p = _params(1e3)
        ps = _mc(p, 1_000_000, 101)["p_noma_strong_asup"]
        cf = outage.outage_point(p).p_noma_strong_asup
        assert abs(ps.mean - cf) < 3.0 * ps.std_error

    def test_dominates_oma_on_sweep(self):
        for db in range(0, 121, 4):
            pt = outage.outage_point(_params(10.0 ** (db / 10.0)))
            assert pt.p_noma_strong_asup <= pt.p_oma_strong * (1.0 + 1e-9)

    def test_survives_extreme_exponents(self):
        # the erfc closed form would need exp((2^6-3)^2/4) ~ e^930 here
        v = outage.outage_point(_params(1.0, r0=6.0)).p_noma_strong_asup
        assert 0.999 < v <= 1.0


class TestProbabilityRange:
    def test_all_forms_in_unit_interval_on_grid(self):
        for r0 in np.linspace(0.1, 6.0, 9):
            for xi in np.geomspace(1.0, 1e6, 9):
                pt = outage.outage_point(_params(float(xi), r0=float(r0)))
                for v in (pt.p_oma_weak, pt.p_oma_strong,
                          pt.p_noma_weak_ainf, pt.p_noma_strong_asup):
                    assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("r0", [600.0, 2000.0])
    def test_overflowing_rate_threshold_is_a_domain_error(self, r0):
        # 4**r0 - 1 is no double: refused before any power of r0 overflows
        with pytest.raises(DomainError, match="r0"):
            outage.outage_point(_params(10.0, r0=r0))
        with pytest.raises(DomainError, match="r0"):
            simulate(SimConfig(trials=10, seed=1, xi_grid=(10.0,), r0=r0))


class TestEmpiricalPolicies:
    def test_boundary_identities_via_mc(self):
        p = _params(1e3)
        pt = outage.outage_point(p)
        m = _mc(p, 400_000, 13)
        pw = m["p_noma_weak_asup"]
        assert abs(pw.mean - pt.p_oma_weak) < 3.0 * pw.std_error
        ps = m["p_noma_strong_ainf"]
        assert abs(ps.mean - pt.p_oma_strong) < 3.0 * ps.std_error

    def test_mid_policy_between_endpoints(self):
        p = _params(1e3)
        pt = outage.outage_point(p)
        m = _mc(p, 400_000, 17)
        pw_mid, ps_mid = m["p_noma_weak_mid"], m["p_noma_strong_mid"]
        assert (pt.p_noma_weak_ainf - 3.0 * pw_mid.std_error
                < pw_mid.mean
                < pt.p_oma_weak + 3.0 * pw_mid.std_error)
        assert (pt.p_noma_strong_asup - 3.0 * ps_mid.std_error
                < ps_mid.mean
                < pt.p_oma_strong + 3.0 * ps_mid.std_error)

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
        # far below an absolute 1e-12, and still 25 times the OMA value
        with pytest.raises(DomainError):
            outage.OutagePoint(xi=1e12, r0=1.0, p_oma_weak=3e-12,
                               p_oma_strong=4e-24, p_noma_weak_ainf=2e-12,
                               p_noma_strong_asup=1e-22)
