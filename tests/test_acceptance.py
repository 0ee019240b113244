"""Acceptance gate: ten go/no-go criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Each criterion pins a headline claim of the library at a stated tolerance:
sum-rate gains, closed forms against Monte Carlo, the outage dB gap,
pairing gains, the K-user allocation suite, monotonicity, special-function
accuracy, and byte-level reproducibility of the CSV front end.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import e1_oracle
from test_outage import strong_outage_region_oracle

from fairnoma.cli import main as cli_main
from fairnoma.ergodic import ergodic_curve_point, ergodic_oma
from fairnoma.mcsim import SimConfig, simulate
from fairnoma.multiuser import (
    ChannelSet,
    full_alloc_a,
    min_alloc_b,
    verify_fairness,
)
from fairnoma.outage import outage_point
from fairnoma.pairing import expected_gain_asup
from fairnoma.specfun import (exp_integral_e1_scaled,
                              exp_integral_e1_scaled_array)
from fairnoma.twouser import ChannelPair, SystemParams, fair_region, sum_rate

DB_GRID = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
XI_GRID = tuple(10.0 ** (d / 10.0) for d in DB_GRID)
SEED = 12345


@pytest.fixture(scope="module")
def ergodic_runs():
    """One million-trial sweep, both endpoint policies on the same draws,
    over the 10 dB grid."""
    config = SimConfig(trials=1_000_000, seed=SEED, xi_grid=XI_GRID, beta=1.0,
                       scenario="pair_iid")
    return simulate(config, workers=4)


def test_criterion_01_sum_rate_gain_near_one_bit():
    t0 = time.perf_counter()
    config = SimConfig(trials=1_000_000, seed=SEED, xi_grid=(1e5,), beta=1.0,
                       scenario="pair_iid")
    m = simulate(config, workers=4)[0].measures
    gains = {"inf": m["ds_ainf"].mean, "sup": m["ds_asup"].mean}
    elapsed = time.perf_counter() - t0
    assert abs(gains["inf"] - 1.0) <= 0.05, gains
    assert abs(gains["sup"] - 1.0) <= 0.05, gains
    assert elapsed <= 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: ds(inf)={gains['inf']:.4f}, "
          f"ds(sup)={gains['sup']:.4f} in {elapsed:.1f}s")


def test_criterion_02_oma_ergodic_closed_forms_vs_mc(ergodic_runs):
    for pt in ergodic_runs:
        cf = ergodic_oma(SystemParams(xi=pt.xi))
        for name, value in zip(("c1_oma", "c2_oma", "s_oma"), cf):
            est = pt.measures[name]
            z = abs(est.mean - value) / est.std_error
            assert z <= 3.0, (pt.xi, name, z)
    print("criterion 2 PASS: OMA ergodic closed forms within 3 SE "
          f"at all {len(ergodic_runs)} grid points")


def test_criterion_03_noma_quadrature_forms_vs_mc(ergodic_runs):
    worst = 0.0
    for pt in ergodic_runs:
        m = pt.measures
        cf = ergodic_curve_point(SystemParams(xi=pt.xi))
        rel_weak = abs(m["c1_noma_ainf"].mean
                       - cf.e_c1_noma_ainf) / cf.e_c1_noma_ainf
        rel_strong = abs(m["c2_noma_asup"].mean
                         - cf.e_c2_noma_asup) / cf.e_c2_noma_asup
        worst = max(worst, rel_weak, rel_strong)
        assert rel_weak <= 0.01 and rel_strong <= 0.01, (pt.xi,)
        # qualitative curve ordering: strong NOMA endpoint on top,
        # weak OMA at the bottom, in both the closed forms and the MC means
        four_cf = (cf.e_c1_oma, cf.e_c2_oma,
                   cf.e_c1_noma_ainf, cf.e_c2_noma_asup)
        assert cf.e_c2_noma_asup == max(four_cf)
        assert cf.e_c1_oma == min(four_cf)
        four_mc = (m["c1_oma"].mean, m["c2_oma"].mean,
                   m["c1_noma_ainf"].mean, m["c2_noma_asup"].mean)
        assert four_mc[3] == max(four_mc) and four_mc[0] == min(four_mc)
    print(f"criterion 3 PASS: NOMA integral forms within {worst:.2%} "
          "of MC, curve ordering reproduced")


def test_criterion_04_outage_closed_forms_vs_mc():
    configs = (
        SimConfig(trials=1_000_000, seed=SEED, xi_grid=XI_GRID[:5],
                  beta=1.0, r0=2.0, scenario="pair_iid"),
        SimConfig(trials=10_000_000, seed=SEED, xi_grid=XI_GRID[5:],
                  beta=1.0, r0=2.0, scenario="pair_iid"),
    )
    names = ("p_oma_weak", "p_oma_strong", "p_noma_weak_ainf",
             "p_noma_strong_asup")
    worst_z = 0.0
    for config in configs:
        for pt in simulate(config, workers=4):
            cf = outage_point(SystemParams(xi=pt.xi, r0=2.0))
            for name in names:
                p_cf = getattr(cf, name)
                est = pt.measures[name]
                # binomial SE from the closed form, or from the estimate
                # when the estimate is larger (guards the deep tail where
                # a one-count fluctuation dominates)
                se = max(math.sqrt(p_cf * (1.0 - p_cf) / est.trials),
                         est.std_error)
                z = abs(est.mean - p_cf) / se if se > 0.0 else 0.0
                worst_z = max(worst_z, z)
                assert z <= 3.0, (pt.xi, name, p_cf, est.mean, z)
    for xi in (10.0, 1e3, 1e5):
        params = SystemParams(xi=xi, r0=2.0)
        gap = abs(outage_point(params).p_noma_strong_asup
                  - strong_outage_region_oracle(params))
        assert gap <= 1e-6, (xi, gap)
    print(f"criterion 4 PASS: outage closed forms max |z|={worst_z:.2f}; "
          "region-integration oracle within 1e-6")


def test_criterion_05_two_db_outage_gap():
    target = 1e-2

    def crossing(field: str) -> float:
        lo, hi = 0.0, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            p = getattr(outage_point(SystemParams(xi=10.0 ** (mid / 10.0),
                                                  r0=2.0)), field)
            if p > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    db_oma = crossing("p_oma_strong")
    db_noma = crossing("p_noma_strong_asup")
    gap = db_oma - db_noma
    assert 1.0 <= gap <= 3.0, (db_oma, db_noma, gap)
    print(f"criterion 5 PASS: strong-user outage 1e-2 at {db_oma:.2f} dB "
          f"(OMA) vs {db_noma:.2f} dB (NOMA), gap {gap:.2f} dB")


def test_criterion_06_pairing_gain_formula():
    assert expected_gain_asup(2) == pytest.approx(1.0, abs=1e-9)
    assert expected_gain_asup(3) == pytest.approx(1.5, abs=1e-9)
    config = SimConfig(trials=1_000_000, seed=SEED, xi_grid=(1e5,), beta=1.0,
                       scenario="pair_minmax", k_grid=tuple(range(2, 11)))
    worst = 0.0
    for pt in simulate(config, workers=4):
        gap = abs(pt.measures["ds_asup"].mean - expected_gain_asup(pt.k))
        worst = max(worst, gap)
        assert gap <= 0.1, (pt.k, gap)
    print(f"criterion 6 PASS: pairing-gain formula within {worst:.3f} "
          "b/s/Hz of MC for K=2..10; exact K=2,3 values reproduced")


def test_criterion_07_kuser_allocation_suite():
    rng = np.random.default_rng(SEED)
    xis = tuple(10.0 ** (d / 10.0) for d in (10.0, 30.0, 50.0))
    for _ in range(10_000):
        k = int(rng.integers(2, 11))
        xi = xis[rng.integers(0, 3)]
        ch = ChannelSet(gains=tuple(np.sort(rng.exponential(1.0, k))))
        a = full_alloc_a(xi, ch)
        b = min_alloc_b(xi, ch)
        assert all(0.0 < ak < 1.0 for ak in a.coeffs)
        assert math.fsum(a.coeffs) <= 1.0 + 1e-12
        assert all(bk < ak for bk, ak in zip(b.coeffs, a.coeffs))
        assert min(verify_fairness(xi, ch, a)) >= -1e-9
        assert max(abs(s) for s in verify_fairness(xi, ch, b)) <= 1e-9
    config = SimConfig(trials=200_000, seed=SEED, xi_grid=XI_GRID, beta=1.0,
                       k_grid=(5,), scenario="multiuser")
    means = [pt.measures["sum_b"].mean
             for pt in simulate(config, workers=4)]
    assert all(m < 1.0 for m in means)
    assert all(x > y for x, y in zip(means, means[1:]))
    print("criterion 7 PASS: 10000 random K-user instances satisfy the "
          f"allocation bounds; E[sum b] falls from {means[0]:.3f} to "
          f"{means[-1]:.3f} over 0-60 dB at K=5")


def test_criterion_08_sum_rate_monotonicity():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        xi = float(10.0 ** rng.uniform(0.0, 5.0))
        g_lo, g_hi = np.sort(rng.exponential(1.0, 2))

        def s_n(g1: float, g2: float) -> float:
            region = fair_region(SystemParams(xi=xi),
                                 ChannelPair(g1=g1, g2=g2))
            return sum_rate(xi, ChannelPair(g1=g1, g2=g2), region.a_sup)

        up_g1 = [s_n(g1, g_hi) for g1 in np.linspace(0.1 * g_hi, g_hi, 8)]
        up_g2 = [s_n(g_lo, g2) for g2 in np.linspace(g_lo, 10.0 * g_lo, 8)]
        assert all(x < y for x, y in zip(up_g1, up_g1[1:]))
        assert all(x < y for x, y in zip(up_g2, up_g2[1:]))
    print("criterion 8 PASS: S_N(a_sup) strictly increasing in either "
          "gain over 1000 random configurations")


def test_criterion_09_special_function_accuracy():
    # e^x E1(x), scalar and array
    x = np.logspace(-6.0, math.log10(50.0), 60)
    oracle = np.array([math.exp(v) * e1_oracle(v) for v in x])
    scalar = np.array([exp_integral_e1_scaled(float(v)) for v in x])
    worst_e1 = max(float(np.max(np.abs(got - oracle) / oracle))
                   for got in (scalar, exp_integral_e1_scaled_array(x)))
    assert worst_e1 <= 1e-8
    print(f"criterion 9 PASS: e^x E1 rel err {worst_e1:.1e}")


def test_criterion_10_byte_identical_csvs(tmp_path, capsys):
    runs = (("a", []), ("b", []), ("c", ["--workers", "3"]),
            ("d", ["--workers", "1"]))
    for figure, flags in ((1, ["--xi-db", "0,30,60"]),
                          (6, ["--xi-db", "0,30,60", "--k", "3"])):
        blobs = []
        for sub, extra in runs:
            out = tmp_path / f"f{figure}{sub}"
            code = cli_main(["figure", str(figure), "--trials", "70000",
                             "--seed", str(SEED), "--out-dir", str(out)]
                            + flags + extra)
            capsys.readouterr()
            assert code == 0
            blobs.append((out / f"figure{figure}.csv").read_bytes())
        assert all(blob == blobs[0] for blob in blobs)
    print("criterion 10 PASS: figure CSVs byte-identical across reruns "
          "and worker counts")
