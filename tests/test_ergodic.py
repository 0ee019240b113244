import math

import numpy as np
import pytest

from fairnoma import ergodic as erg
from fairnoma.twouser import SystemParams
from helpers import e1_oracle

_LN2 = math.log(2.0)


def _ordered_pair_mc(xi, n, seed):
    """Independent per-draw capacities over the ordered exponential pair."""
    rng = np.random.default_rng(seed)
    g = rng.exponential(1.0, size=(n, 2))
    w1 = xi * g.min(axis=1)
    w2 = xi * g.max(axis=1)
    a_inf = 1.0 / (1.0 + np.sqrt(1.0 + w2))
    a_sup = 1.0 / (1.0 + np.sqrt(1.0 + w1))
    return {
        "c1_oma": 0.5 * np.log1p(w1) / _LN2,
        "c2_oma": 0.5 * np.log1p(w2) / _LN2,
        "c1_noma_ainf": np.log1p((1.0 - a_inf) * w1 / (a_inf * w1 + 1.0)) / _LN2,
        "c2_noma_asup": np.log1p(a_sup * w2) / _LN2,
        "log_ratio_half": 0.5 * (np.log(w2) - np.log(w1)) / _LN2,
    }


def _mean_se(x):
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


class TestErgodicOma:
    def test_frozen_values_at_unit_snr(self):
        # quoted 7-digit reference values carry ~1e-6 slack of their own; the
        # quadrature oracle below is the precise check
        e_c1, _, e_s = erg.ergodic_oma(SystemParams(xi=1.0, beta=1.0))
        assert e_c1 == pytest.approx(0.2606427, abs=2e-6)
        assert e_s == pytest.approx(0.8603490, abs=2e-6)
        # same quantities against the independent quadrature oracle
        assert e_c1 == pytest.approx(math.e**2 * e1_oracle(2.0) / math.log(4.0),
                                     rel=1e-10)
        assert e_s == pytest.approx(math.e * e1_oracle(1.0) / math.log(2.0),
                                    rel=1e-10)

    def test_beta_xi_product_is_what_matters(self):
        a = erg.ergodic_oma(SystemParams(xi=50.0, beta=0.2))
        b = erg.ergodic_oma(SystemParams(xi=10.0, beta=1.0))
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_zero_snr_limit(self):
        e_c1, e_c2, e_s = erg.ergodic_oma(SystemParams(xi=1e-8, beta=1.0))
        assert 0.0 < e_c1 < 1e-6
        assert 0.0 < e_c2 < 1e-6
        assert 0.0 < e_s < 1e-6

    def test_sum_identity(self):
        for xi in (0.5, 7.0, 1e3, 1e6):
            e_c1, e_c2, e_s = erg.ergodic_oma(SystemParams(xi=xi, beta=1.0))
            assert e_c1 + e_c2 == pytest.approx(e_s, rel=1e-12, abs=0.0)
            assert 0.0 < e_c1 < e_c2


class TestNomaEndpoints:
    def test_weak_ainf_vs_monte_carlo(self):
        mc = _ordered_pair_mc(1e4, 1_000_000, seed=51)
        mean, se = _mean_se(mc["c1_noma_ainf"])
        value = erg.ergodic_curve_point(
            SystemParams(xi=1e4, beta=1.0)).e_c1_noma_ainf
        assert abs(value - mean) <= 3.0 * se

    def test_strong_asup_vs_monte_carlo(self):
        mc = _ordered_pair_mc(1e4, 1_000_000, seed=52)
        mean, se = _mean_se(mc["c2_noma_asup"])
        value = erg.ergodic_curve_point(
            SystemParams(xi=1e4, beta=1.0)).e_c2_noma_asup
        assert abs(value - mean) <= 3.0 * se

    def test_fairness_in_expectation_on_db_grid(self):
        for xi_db in range(0, 61, 10):
            params = SystemParams(xi=10.0 ** (xi_db / 10.0), beta=1.0)
            e_c1, e_c2, _ = erg.ergodic_oma(params)
            pt = erg.ergodic_curve_point(params)
            assert pt.e_c1_noma_ainf >= e_c1
            assert pt.e_c2_noma_asup >= e_c2

    def test_eq13_gap_shrinks_with_snr(self):
        # E[C1_N(a_inf)] ~ E[C2_O] at high SNR; the true gap is 0.104 at
        # xi=1e4 and 0.042 at 1e5 (slow 1/sqrt(xi) decay with a log factor)
        gaps = []
        for xi in (1e4, 1e5):
            params = SystemParams(xi=xi, beta=1.0)
            _, e_c2, _ = erg.ergodic_oma(params)
            gaps.append(abs(erg.ergodic_curve_point(params).e_c1_noma_ainf
                            - e_c2))
        assert gaps[0] <= 0.15
        assert gaps[1] <= 0.05
        assert gaps[1] < gaps[0]

    def test_quadrature_self_consistency(self):
        for xi in (10.0, 1e3, 1e5):
            params = SystemParams(xi=xi, beta=1.0)
            coarse, ests = erg._noma_endpoints(params, 1e-8)
            fine, _ = erg._noma_endpoints(params, 5e-9)
            for c, f, est in zip(coarse, fine, ests):
                assert abs(c - f) <= est + 1e-13


# (xi in dB, beta, E[C1_N(a_inf)], E[C2_N(a_sup)]) in b/s/Hz, computed once
# with mpmath at 30 digits. Each comes from a 1-D integral that differs from
# the package's: the other gain of the ordered pair is integrated out in
# closed form (for C2 the strong gain x2 > x1, for C1 the weak gain
# x1 < x2), and mpmath.quad runs on [0, inf) split at 10^k/xi.
ENDPOINT_REFERENCE = [
    (-10, 0.5, 0.017804516985506978269, 0.052191537084231589458),
    (-10, 1, 0.035146103946573112058, 0.10097279842555109052),
    (-10, 2, 0.068477382847183235272, 0.19017250252546602278),
    (20, 0.5, 2.4295129643737189292, 3.6039911752963148882),
    (20, 1, 2.9793655204642243738, 4.1759513370756514006),
    (20, 2, 3.5394723363685473409, 4.7346253006169635895),
    (50, 0.5, 7.832804591114218135, 8.8763491341245458475),
    (50, 1, 8.3462705508597932285, 9.3798741679814468502),
    (50, 2, 8.8566265492646854328, 9.8823759376234507036),
    (80, 0.5, 12.868325738660553894, 13.87095399790471701),
    (80, 1, 13.369119714648301642, 14.371066829211387973),
    (80, 2, 13.869707121566436295, 14.871146622194512363),
    (100, 0.5, 16.192882738794237236, 17.193228848500928844),
    (100, 1, 16.692986536382735462, 17.693240135630000798),
    (100, 2, 17.193062528370336306, 18.193248116927518864),
    (120, 0.5, 19.515148688852620056, 20.515191626876027099),
    (120, 1, 20.015161507628520944, 21.01519275562891853),
    (120, 2, 20.51517083144553545, 21.515193553778662458),
]


@pytest.mark.parametrize("xi_db,beta,c1_ainf,c2_asup", ENDPOINT_REFERENCE,
                         ids=[f"{d}dB-beta{b}" for d, b, _, _ in ENDPOINT_REFERENCE])
def test_endpoints_match_mpmath_reference(xi_db, beta, c1_ainf, c2_asup):
    pt = erg.ergodic_curve_point(SystemParams(xi=10.0 ** (xi_db / 10.0),
                                              beta=beta))
    assert pt.e_c1_noma_ainf == pytest.approx(c1_ainf, rel=1e-9)
    assert pt.e_c2_noma_asup == pytest.approx(c2_asup, rel=1e-9)


class TestExpectedGain:
    def test_theorem_two_both_endpoints(self):
        pt = erg.ergodic_curve_point(SystemParams(xi=1e5, beta=1.0))
        assert pt.e_c1_noma_ainf - pt.e_c1_oma == pytest.approx(1.0, abs=0.05)
        assert pt.e_c2_noma_asup - pt.e_c2_oma == pytest.approx(1.0, abs=0.05)

    def test_gain_vanishes_at_zero_snr(self):
        pt = erg.ergodic_curve_point(SystemParams(xi=1e-6, beta=1.0))
        for gain in (pt.e_c1_noma_ainf - pt.e_c1_oma,
                     pt.e_c2_noma_asup - pt.e_c2_oma):
            assert -1e-10 <= gain <= 1e-3

    def test_gain_inf_vs_exact_per_draw_mc(self):
        mc = _ordered_pair_mc(1e3, 1_000_000, seed=53)
        delta = mc["c1_noma_ainf"] - mc["c1_oma"]
        mean, se = _mean_se(delta)
        pt = erg.ergodic_curve_point(SystemParams(xi=1e3, beta=1.0))
        gain = pt.e_c1_noma_ainf - pt.e_c1_oma
        assert abs(gain - mean) <= 3.0 * se

    def test_log_ratio_identity(self):
        # distribution-level fact: E[(1/2) log2(g2/g1)] = 1 for ordered
        # exponential pairs, any scale
        mc = _ordered_pair_mc(1.0, 1_000_000, seed=54)
        mean, se = _mean_se(mc["log_ratio_half"])
        assert abs(mean - 1.0) <= 3.0 * se


class TestCurvePointAndApprox:
    def test_curve_point_invariants(self):
        params = SystemParams(xi=100.0, beta=1.0)
        pt = erg.ergodic_curve_point(params)
        assert pt.xi == 100.0
        assert pt.e_c1_oma + pt.e_c2_oma == pytest.approx(pt.e_s_oma, rel=1e-9)
        assert pt.e_c1_noma_ainf >= pt.e_c1_oma
        assert pt.e_c2_noma_asup >= pt.e_c2_oma

    def test_high_snr_approx_structure(self):
        params = SystemParams(xi=1e5, beta=1.0)
        approx_c1, approx_c2 = erg.high_snr_ergodic_approx(params)
        assert approx_c2 - approx_c1 == pytest.approx(1.0, abs=1e-12)
        # the weak-user asymptote coincides with E[C2_O]'s asymptote
        _, e_c2, _ = erg.ergodic_oma(params)
        assert approx_c1 == pytest.approx(e_c2, abs=1e-3)

    def test_high_snr_approx_tracks_quadrature_forms(self):
        params = SystemParams(xi=1e6, beta=1.0)
        approx_c1, approx_c2 = erg.high_snr_ergodic_approx(params)
        pt = erg.ergodic_curve_point(params)
        assert approx_c1 == pytest.approx(pt.e_c1_noma_ainf, abs=0.05)
        assert approx_c2 == pytest.approx(pt.e_c2_noma_asup, abs=0.01)
