"""Monte Carlo engine: determinism, paired draws, and statistical honesty."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fairnoma import ergodic, mcsim, multiuser, twouser
from fairnoma.errors import DomainError
from fairnoma.mcsim import (CHUNK_TRIALS, SimConfig, SimResult,
                            noma_outage_empirical, run_ergodic_pair,
                            run_multiuser_power, run_outage, run_pairing)


def _cfg(**kw):
    base = dict(trials=20_000, seed=5, xi_grid=(100.0,))
    base.update(kw)
    return SimConfig(**base)


def _run_probe(probe: str, **env) -> str:
    """stdout of ``probe`` run in a fresh interpreter that imports this
    checkout's fairnoma, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(mcsim.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestConfigValidation:
    def test_rejects_bad_trials(self):
        for trials in (0, -1, 2.5):
            with pytest.raises(DomainError):
                _cfg(trials=trials)

    def test_rejects_bad_seed(self):
        for seed in (-1, 2 ** 64, 1.5):
            with pytest.raises(DomainError):
                _cfg(seed=seed)

    def test_rejects_bad_xi_grid(self):
        for grid in ((), (0.0,), (-1.0,), (1.0, 1.0), (2.0, 1.0), (math.inf,)):
            with pytest.raises(DomainError):
                _cfg(xi_grid=grid)

    def test_rejects_bad_policy(self):
        for policy in ("best", 0.0, 1.0, -0.2, True, math.nan):
            with pytest.raises(DomainError):
                _cfg(a_policy=policy)

    def test_rejects_bad_scenario_and_k(self):
        with pytest.raises(DomainError):
            _cfg(scenario="pair")
        with pytest.raises(DomainError):
            _cfg(k_users=0)
        with pytest.raises(DomainError):
            _cfg(beta=0.0)
        with pytest.raises(DomainError):
            _cfg(r0=-0.1)
        for k_grid in ((), (0,), (2.0,), (5, 3)):
            with pytest.raises(DomainError):
                _cfg(k_grid=k_grid)

    def test_scenario_mismatch_raises(self):
        with pytest.raises(DomainError):
            run_pairing(_cfg(scenario="pair_iid"))
        with pytest.raises(DomainError):
            run_multiuser_power(_cfg(scenario="pair_iid"))
        with pytest.raises(DomainError):
            run_ergodic_pair(_cfg(scenario="multiuser"))
        with pytest.raises(DomainError):
            run_outage(_cfg(scenario="pair_minmax"))


class TestDeterminism:
    def test_repeat_run_is_bit_identical(self):
        cfg = _cfg(trials=30_000, xi_grid=(10.0, 1000.0))
        first = run_ergodic_pair(cfg)
        second = run_ergodic_pair(cfg)
        for p, q in zip(first, second):
            assert p.measures == q.measures

    def test_worker_count_cannot_change_results(self):
        # spans several chunks so parallel partitioning is actually exercised
        cfg = _cfg(trials=3 * CHUNK_TRIALS + 17, xi_grid=(10.0, 1000.0))
        serial = run_ergodic_pair(cfg, workers=None)
        parallel = run_ergodic_pair(cfg, workers=4)
        for p, q in zip(serial, parallel):
            for name in p.measures:
                assert p.measures[name] == q.measures[name]

    def test_worker_count_cannot_change_counts(self):
        cfg = _cfg(trials=2 * CHUNK_TRIALS + 5, r0=1.0)
        serial = run_outage(cfg, workers=None)[0]
        parallel = run_outage(cfg, workers=3)[0]
        assert serial.measures == parallel.measures

    def test_blas_thread_count_cannot_change_results(self):
        # chunks long enough that a BLAS dot product would go multi-threaded
        probe = """
            from fairnoma.mcsim import (SimConfig, run_multiuser_power,
                                        run_pairing)
            pool = SimConfig(trials=70_000, seed=9, xi_grid=(1e3,),
                             scenario="pair_minmax", k_grid=(2, 7, 30))
            multi = SimConfig(trials=70_000, seed=9, xi_grid=(10.0, 1e4),
                              scenario="multiuser", k_users=5)
            for p in run_pairing(pool) + run_multiuser_power(multi):
                for name, r in sorted(p.measures.items()):
                    print(p.xi, p.k, name, r.mean.hex(), r.std_error.hex())
            """
        outputs = [_run_probe(probe, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert outputs[0].count("\n") == 3 * 15 + 2
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        a = run_ergodic_pair(_cfg(seed=1))[0].measures["s_noma_asup"].mean
        b = run_ergodic_pair(_cfg(seed=2))[0].measures["s_noma_asup"].mean
        assert a != b

    def test_result_carries_provenance(self):
        res = run_ergodic_pair(_cfg(trials=1234, seed=77))[0]
        sr = res.measures["c1_oma"]
        assert isinstance(sr, SimResult)
        assert sr.trials == 1234 and sr.seed == 77
        assert res.xi == 100.0 and res.k == 2


class TestWorkers:
    def test_pool_clamped_to_chunks_and_cpus(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for ThreadPoolExecutor: records its size, starts no
            thread, and maps serially."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(mcsim, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 8)
        assert mcsim._map_chunks(lambda ci: ci * ci, 3, 16) == [0, 1, 4]
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        assert mcsim._map_chunks(lambda ci: ci, 20, 5) == list(range(20))
        assert sizes == [3, 8, 5]
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 1)
        assert mcsim._map_chunks(lambda ci: ci, 4, 4) == [0, 1, 2, 3]
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 8)
        assert mcsim._map_chunks(lambda ci: ci, 1, 4) == [0]
        assert mcsim._map_chunks(lambda ci: ci, 4, None) == [0, 1, 2, 3]
        assert sizes == [3, 8, 5]

    def test_rejects_worker_counts_below_one(self):
        for workers in (0, -3, 1.5):
            with pytest.raises(DomainError):
                run_outage(_cfg(trials=100, r0=1.0), workers=workers)

    def test_threads_never_share_a_workspace(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: two chunks writing one workspace at once would corrupt
        # their draws, and the results would differ from a serial run
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 8)
        pool = _cfg(trials=6 * CHUNK_TRIALS + 5, scenario="pair_minmax",
                    k_grid=(3, 7))
        multi = _cfg(trials=6 * CHUNK_TRIALS + 5, scenario="multiuser",
                     k_users=4)
        serial = run_pairing(pool) + run_multiuser_power(multi)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = (run_pairing(pool, workers=8)
                        + run_multiuser_power(multi, workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert [p.measures for p in threaded] == [p.measures for p in serial]


class TestChunkMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    @pytest.mark.parametrize("runner,options", [
        ("run_ergodic_pair", {}),
        ("run_outage", {"r0": 2.0, "a_policy": 0.3}),
        ("run_pairing", {"scenario": "pair_minmax", "k_grid": (7,)}),
        ("run_multiuser_power", {"scenario": "multiuser", "k_users": 5}),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_do_not_page_fault(self, runner, options, workers):
        # Chunk temporaries of half a megabyte or more are mapped fresh,
        # zero-filled by the kernel and unmapped again: about 1500-2500
        # minor faults per chunk. Reused workspaces take none once the
        # allocator is warm. Two warm-up sweeps, because glibc unmaps the
        # first sweep's workspace, then serves the second from a heap that
        # it keeps for the third. The 8-chunk sweep measured last still
        # pays any first touch of its own workspaces.
        probe = f"""
            import resource
            from fairnoma.mcsim import CHUNK_TRIALS, SimConfig, {runner}
            config = SimConfig(trials=4 * CHUNK_TRIALS, seed=3,
                               xi_grid=(10.0, 1e3), **{options!r})
            {runner}(config, {workers})
            {runner}(config, {workers})
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            {runner}(config, {workers})
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        faults_per_chunk = int(_run_probe(probe)) / 8
        assert faults_per_chunk < 100, faults_per_chunk


class TestCommonRandomNumbers:
    def test_policy_not_in_stream_key(self):
        # identical draws under both policies: the OMA measures match bitwise
        cfg_inf = _cfg(a_policy="inf", trials=50_000)
        cfg_sup = _cfg(a_policy="sup", trials=50_000)
        res_inf = run_ergodic_pair(cfg_inf)[0].measures
        res_sup = run_ergodic_pair(cfg_sup)[0].measures
        assert res_inf["c1_oma"] == res_sup["c1_oma"]
        assert res_inf["s_oma"] == res_sup["s_oma"]
        assert res_inf["s_noma_ainf"].mean != res_sup["s_noma_asup"].mean

    def test_every_policy_from_one_draw_set(self):
        # a numeric policy adds 'fixed' measures without moving the others
        plain = run_ergodic_pair(_cfg(trials=50_000))[0].measures
        fixed = run_ergodic_pair(_cfg(trials=50_000, a_policy=0.3))[0].measures
        assert set(fixed) - set(plain) == {"c1_noma_fixed", "c2_noma_fixed",
                                           "s_noma_fixed", "ds_fixed"}
        for name in plain:
            assert fixed[name] == plain[name]
        table = run_outage(_cfg(trials=50_000, r0=2.0, a_policy=0.3))[0].measures
        p_weak, p_strong = noma_outage_empirical(
            twouser.SystemParams(xi=100.0, r0=2.0), 0.3, 50_000, 5)
        assert p_weak == table["p_noma_weak_fixed"]
        assert p_strong == table["p_noma_strong_fixed"]

    def test_pair_order_statistic_matches_row_reduction(self):
        # the order statistic of the uniforms, mapped to gains, is the row
        # reduction of the gains bit for bit: on a full chunk, on a partial
        # one that ends inside a row block, and with ties
        rng = np.random.default_rng(0)
        step = mcsim._ROW_BLOCK
        for n in (CHUNK_TRIALS, 3 * step // 2 + 7, 1):
            for k in range(2, 31):
                u = rng.random((n, k))
                u[:10, 1] = u[:10, 0]
                for beta in (0.5, 1.0, 2.0):
                    g = mcsim._gains(u, beta)
                    blocks = ((slice(s, s + step), u[s:s + step])
                              for s in range(0, n, step))
                    w1, w2 = mcsim._pair_snrs(blocks, 123.0, beta,
                                              (np.empty(n), np.empty(n)))
                    assert np.array_equal(w1, 123.0 * g.min(axis=1))
                    assert np.array_equal(w2, 123.0 * g.max(axis=1))

    def test_row_blocks_are_the_chunk_draw(self):
        # the chunk drawn a row block at a time into one reused buffer is
        # the one-shot draw of the whole chunk, value for value
        ws = mcsim._Workspace(30, 1)
        for n in (CHUNK_TRIALS, 3 * mcsim._ROW_BLOCK // 2 + 7, 1):
            for k in (2, 7, 30):
                key = np.random.SeedSequence((1, 2, 0, k, 3))
                whole = np.random.Generator(np.random.Philox(key)).random((n, k))
                rng = np.random.Generator(np.random.Philox(key))
                got = np.full((n, k), np.nan)
                for rows, u in ws.blocks(rng, n, k):
                    got[rows] = u
                assert np.array_equal(got, whole)

    def test_paired_difference_cuts_variance(self):
        m = run_ergodic_pair(_cfg(trials=200_000, xi_grid=(1e4,)))[0].measures
        direct = m["ds_asup"].mean
        indirect = m["s_noma_asup"].mean - m["s_oma"].mean
        assert abs(direct - indirect) <= 1e-10
        # pairing beats what two independent runs would propagate
        independent = math.hypot(m["s_noma_asup"].std_error,
                                 m["s_oma"].std_error)
        assert m["ds_asup"].std_error < 0.75 * independent


class TestStatisticalHonesty:
    def test_se_scales_like_inverse_root_n(self):
        small = run_ergodic_pair(_cfg(trials=10_000, seed=3))[0]
        big = run_ergodic_pair(_cfg(trials=1_000_000, seed=3))[0]
        ratio = (small.measures["s_noma_asup"].std_error
                 / big.measures["s_noma_asup"].std_error)
        assert 8.0 <= ratio <= 12.0

    def test_means_match_closed_forms(self):
        params = twouser.SystemParams(xi=1e3)
        m = run_ergodic_pair(_cfg(trials=400_000, seed=9, xi_grid=(1e3,),
                                  a_policy="inf"))[0].measures
        e_c1, e_c2, e_s = ergodic.ergodic_oma(params)
        targets = {"c1_oma": e_c1, "c2_oma": e_c2, "s_oma": e_s,
                   "c1_noma_ainf": ergodic.ergodic_noma_weak_ainf(params)}
        for name, cf in targets.items():
            z = (m[name].mean - cf) / m[name].std_error
            assert abs(z) < 4.0, (name, z)

    def test_binomial_se_formula(self):
        cfg = _cfg(trials=100_000, r0=2.0, xi_grid=(1e3,))
        m = run_outage(cfg)[0].measures
        for sr in m.values():
            assert sr.std_error == pytest.approx(
                math.sqrt(sr.mean * (1.0 - sr.mean) / sr.trials), rel=1e-12)
            assert 0.0 <= sr.mean <= 1.0


class TestBoundaryIdentities:
    def test_sup_weak_equals_oma_weak_per_draw(self):
        m = run_ergodic_pair(_cfg(trials=100_000, a_policy="sup",
                                  xi_grid=(1e4,)))[0].measures
        assert abs(m["c1_noma_asup"].mean - m["c1_oma"].mean) <= 1e-12

    def test_inf_strong_equals_oma_strong_per_draw(self):
        m = run_ergodic_pair(_cfg(trials=100_000, a_policy="inf",
                                  xi_grid=(1e4,)))[0].measures
        assert abs(m["c2_noma_ainf"].mean - m["c2_oma"].mean) <= 1e-12

    def test_outage_identity_counts_are_exact(self):
        cfg = _cfg(trials=300_000, r0=2.0, xi_grid=(100.0, 1e3))
        for point in run_outage(cfg):
            m = point.measures
            assert m["p_noma_weak_asup"].mean == m["p_oma_weak"].mean
            assert m["p_noma_strong_ainf"].mean == m["p_oma_strong"].mean

    def test_mid_policy_sits_between_endpoints(self):
        m = run_outage(_cfg(trials=300_000, r0=2.0, xi_grid=(1e3,)))[0].measures
        assert (m["p_noma_weak_ainf"].mean <= m["p_noma_weak_mid"].mean
                <= m["p_noma_weak_asup"].mean)
        assert (m["p_noma_strong_asup"].mean <= m["p_noma_strong_mid"].mean
                <= m["p_noma_strong_ainf"].mean)

    def test_single_policy_op_matches_full_table(self):
        cfg = _cfg(trials=150_000, r0=2.0, xi_grid=(1e3,), a_policy="inf")
        full = run_outage(cfg)[0].measures
        p_weak, p_strong = noma_outage_empirical(
            twouser.SystemParams(xi=1e3, r0=2.0), "inf", 150_000, 5)
        assert p_weak.mean == full["p_noma_weak_ainf"].mean
        assert p_strong.mean == full["p_noma_strong_ainf"].mean


class TestPairingScenario:
    def test_requires_two_users(self):
        with pytest.raises(DomainError):
            run_pairing(_cfg(scenario="pair_minmax", k_users=1))

    def test_gain_grows_with_pool_size(self):
        cfg = _cfg(trials=200_000, scenario="pair_minmax", xi_grid=(1e5,),
                   k_grid=(2, 5, 10))
        points = run_pairing(cfg)
        gains = [p.measures["ds_asup"].mean for p in points]
        assert gains[0] < gains[1] < gains[2]
        for p in points:
            m = p.measures
            assert m["c_max_asup"].mean > m["c_min_asup"].mean
            # fairness: both endpoints beat orthogonal access on average
            assert m["ds_asup"].mean > 0.0
            assert m["ds_ainf"].mean > 0.0

    def test_pool_of_two_matches_plain_pair(self):
        # different substreams, so agreement is statistical, not bitwise
        pair = run_ergodic_pair(_cfg(trials=400_000, seed=21,
                                     xi_grid=(1e3,)))[0].measures
        pool = run_pairing(_cfg(trials=400_000, seed=21, xi_grid=(1e3,),
                                scenario="pair_minmax", k_users=2))[0].measures
        joint_se = math.hypot(pair["s_oma"].std_error, pool["s_oma"].std_error)
        assert abs(pair["s_oma"].mean - pool["s_oma"].mean) < 4.0 * joint_se

    def test_fixed_share_measures_present(self):
        m = run_pairing(_cfg(trials=50_000, scenario="pair_minmax",
                             a_policy=0.2, k_users=4))[0].measures
        assert {"s_fixed", "ds_fixed", "c_min_fixed", "c_max_fixed"} <= set(m)


class TestMultiuserScenario:
    def test_single_user_needs_exactly_full_power(self):
        points = run_multiuser_power(_cfg(trials=30_000, scenario="multiuser",
                                          k_users=1, xi_grid=(10.0, 1e3)))
        for p in points:
            assert p.measures["sum_b"].mean == 1.0
            assert p.measures["sum_b"].std_error == 0.0

    def test_total_below_one_and_decreasing_in_snr(self):
        points = run_multiuser_power(_cfg(trials=150_000, scenario="multiuser",
                                          k_users=5,
                                          xi_grid=(10.0, 1e3, 1e5)))
        means = [p.measures["sum_b"].mean for p in points]
        assert all(m < 1.0 for m in means)
        assert means[0] > means[1] > means[2]


class TestScalarApiIsTheEngine:
    """The scalar API and the Monte Carlo kernels share one implementation
    of the per-draw physics, so the API reproduces every value a kernel
    reduces, bit for bit. The kernels' intermediate vectors are recorded by
    wrapping the engine's ``_gains``, ``_shares`` and ``_moment``."""

    XI_GRID = (0.1, 3.7, 1e2, 1e4, 1e6, 1e9)

    @staticmethod
    def _record(monkeypatch) -> dict:
        seen = {"gains": [], "shares": [], "moments": []}
        gains, shares, moment = mcsim._gains, mcsim._shares, mcsim._moment

        def record_gains(*args, **kwargs):
            g = gains(*args, **kwargs)
            seen["gains"].append(g.copy())
            return g

        def record_shares(*args, **kwargs):
            out = shares(*args, **kwargs)
            seen["shares"].append({tag: a.copy() for tag, a in out.items()})
            return out

        def record_moment(v):
            seen["moments"].append(v.copy())
            return moment(v)

        monkeypatch.setattr(mcsim, "_gains", record_gains)
        monkeypatch.setattr(mcsim, "_shares", record_shares)
        monkeypatch.setattr(mcsim, "_moment", record_moment)
        return seen

    @staticmethod
    def _mismatches(pairs) -> list:
        return [(name, float.hex(api), float.hex(float(engine)))
                for name, api, engine in pairs
                if float.hex(api) != float.hex(float(engine))]

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_pair_shares_and_rates(self, monkeypatch, beta):
        seen = self._record(monkeypatch)
        # a full chunk and a partial one per grid point, run serially so the
        # recordings come in chunk order
        run_ergodic_pair(_cfg(trials=CHUNK_TRIALS + 37, beta=beta,
                              xi_grid=self.XI_GRID))
        checked = []
        for chunk, xi in enumerate(np.repeat(self.XI_GRID, 2).tolist()):
            weak, strong = seen["gains"][2 * chunk:2 * chunk + 2]
            shares = seen["shares"][chunk]
            assert list(shares) == ["ainf", "asup"]
            # c1_oma, c2_oma, s_oma, then c1, c2, s, ds per share
            moments = seen["moments"][11 * chunk:11 * chunk + 11]
            n = len(weak)
            for i in range(0, n, 97) if chunk % 2 == 0 else range(n):
                g1, g2 = float(weak[i]), float(strong[i])
                region = twouser.fair_region(twouser.SystemParams(xi=xi),
                                             twouser.ChannelPair(g1, g2))
                checked += [
                    ("a_inf", region.a_inf, shares["ainf"][i]),
                    ("a_sup", region.a_sup, shares["asup"][i]),
                    ("c1_oma", twouser.oma_capacity(xi, g1), moments[0][i]),
                    ("c2_oma", twouser.oma_capacity(xi, g2), moments[1][i])]
                for j, a in enumerate((region.a_inf, region.a_sup)):
                    checked += [
                        ("c1_noma", twouser.noma_capacity_weak(xi, g1, a),
                         moments[3 + 4 * j][i]),
                        ("c2_noma", twouser.noma_capacity_strong(xi, g2, a),
                         moments[4 + 4 * j][i])]
        assert len(seen["moments"]) == 11 * 2 * len(self.XI_GRID)
        bad = self._mismatches(checked)
        assert not bad, (len(bad), len(checked), bad[:5])

    def test_oma_outage_threshold(self, monkeypatch):
        # SNRs at the threshold and one ulp below it, so a threshold that
        # differs from the closed form's in the last bit changes the counts
        pair_snrs = mcsim._pair_snrs
        for r0 in (0.1, 0.5, 1.0, 2.0, 3.0):
            theta = twouser._rate_threshold(r0)

            def at_threshold(*args, theta=theta):
                out = pair_snrs(*args)
                for w in out:
                    w[0::2] = theta
                    w[1::2] = np.nextafter(theta, 0.0)
                return out

            monkeypatch.setattr(mcsim, "_pair_snrs", at_threshold)
            m = run_outage(_cfg(trials=1000, r0=r0))[0].measures
            assert m["p_oma_weak"].mean == m["p_oma_strong"].mean == 0.5, r0

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_k_user_power_total(self, monkeypatch, beta):
        checked = []
        seen = self._record(monkeypatch)
        for k in range(1, 31):
            for records in seen.values():
                records.clear()
            # one partial chunk per grid point
            run_multiuser_power(_cfg(trials=23, beta=beta, k_users=k,
                                     scenario="multiuser",
                                     xi_grid=self.XI_GRID))
            assert len(seen["gains"]) == len(self.XI_GRID)
            for xi, g, total in zip(self.XI_GRID, seen["gains"],
                                    seen["moments"]):
                for i in range(len(g)):
                    channels = multiuser.ChannelSet(tuple(np.sort(g[i])))
                    running = 0.0
                    # the API's b-vector summed strongest first, the
                    # recursion's own order
                    for b in reversed(multiuser.min_alloc_b(xi, channels).coeffs):
                        running += b
                    checked.append((f"sum_b K={k}", running, total[i]))
        bad = self._mismatches(checked)
        assert not bad, (len(bad), len(checked), bad[:5])
