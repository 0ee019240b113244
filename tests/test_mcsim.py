"""Monte Carlo engine: determinism, paired draws, and statistical honesty."""

import math
import sys
import time
import warnings

import numpy as np
import pytest

from fairnoma import cli, ergodic, mcsim, multiuser, twouser
from fairnoma.errors import DomainError
from fairnoma.mcsim import (BLOCK_TRIALS, CHUNK_TRIALS, SimConfig, SimResult,
                            simulate)
from helpers import run_probe


def _cfg(**kw):
    base = dict(trials=20_000, seed=5, xi_grid=(100.0,))
    base.update(kw)
    return SimConfig(**base)


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
        # 'inf', 'sup' and 'mid' name shares every run reports, not a
        # fixed one
        for share in ("best", 0.0, 1.0, -0.2, True, math.nan, "inf", "sup",
                      "mid"):
            with pytest.raises(DomainError, match="fixed_share"):
                _cfg(fixed_share=share)

    def test_rejects_bad_scenario_and_k(self):
        with pytest.raises(DomainError):
            _cfg(scenario="pair")
        with pytest.raises(DomainError):
            _cfg(scenario="multiuser", k_grid=(0,))
        with pytest.raises(DomainError):
            _cfg(beta=0.0)
        with pytest.raises(DomainError):
            _cfg(r0=-0.1)
        for k_grid in ((), (0,), (2.0,), (5, 3)):
            with pytest.raises(DomainError):
                _cfg(scenario="pair_minmax", k_grid=k_grid)
        # a K the scenario would ignore is an error, not a no-op
        for scenario, k_grid in (("pair_iid", (2, 3)), ("pair_iid", (3,)),
                                 ("multiuser", (2, 3)), ("multiuser", (3, 5))):
            with pytest.raises(DomainError):
                _cfg(scenario=scenario, k_grid=k_grid)
        # so is an outage threshold or a fixed share the K users never see
        for options in ({"r0": 2.0}, {"fixed_share": 0.3}):
            with pytest.raises(DomainError, match="multiuser"):
                _cfg(scenario="multiuser", k_grid=(3,), **options)

    @pytest.mark.parametrize("field,options", [
        ("trials", {"trials": True}),
        ("seed", {"seed": False}),
        ("k_grid", {"scenario": "multiuser", "k_grid": (True,)}),
        ("k_grid", {"scenario": "pair_minmax", "k_grid": (True, 3)}),
    ])
    def test_rejects_booleans_as_counts(self, field, options):
        # a bool is an int to Python, but True is no trial count
        with pytest.raises(DomainError, match=field):
            _cfg(**options)

    @pytest.mark.parametrize("field,options", [
        ("r0", {"r0": True}),
        ("r0", {"r0": "1"}),
        ("beta", {"beta": True}),
        ("beta", {"beta": "2"}),
        ("xi_grid", {"xi_grid": (True,)}),
        ("xi_grid", {"xi_grid": ("10",)}),
        ("xi_grid", {"xi_grid": (1.0, np.True_)}),
    ])
    def test_rejects_non_reals(self, field, options):
        # checked before any float(): True is no SNR, "10" is no number
        with pytest.raises(DomainError, match=field):
            _cfg(**options)

    def test_accepts_numpy_reals(self):
        cfg = _cfg(xi_grid=(np.float32(2.0), np.int64(5), np.float64(7.5)),
                   r0=np.float32(1.0), beta=np.float32(2.0),
                   fixed_share=np.float32(0.25))
        assert cfg.xi_grid == (2.0, 5.0, 7.5) and cfg.fixed_share == 0.25
        # stored as floats, so no threshold is computed in float32
        assert all(type(x) is float for x in cfg.xi_grid
                   + (cfg.r0, cfg.beta, cfg.fixed_share))

    def test_accepts_numpy_integers(self):
        cfg = _cfg(trials=np.int64(100), seed=np.uint64(7),
                   scenario="pair_minmax", k_grid=(np.int64(3), np.int32(5)))
        assert (cfg.trials, cfg.seed, cfg.k_grid) == (100, 7, (3, 5))
        assert all(type(n) is int for n in (cfg.trials, cfg.seed) + cfg.k_grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("options,name", [
        ({}, "c1_oma"), ({"scenario": "multiuser", "k_grid": (3,)}, "sum_b")])
    def test_overflowing_snr_is_refused(self, options, name):
        # xi * g overflows for any gain above about 1.06: an inf or nan
        # moment is an error naming the measure and the point, not a result
        with pytest.raises(DomainError) as info:
            simulate(_cfg(trials=1000, xi_grid=(1e306, 1.7e308), **options))
        message = str(info.value)
        assert name in message and "xi = 1.7e+308" in message, message
        k = options.get("k_grid", (2,))[0]
        assert f"K = {k}" in message, message
        # one step below, every moment is finite
        point = simulate(_cfg(trials=1000, xi_grid=(1e306,), **options))[0]
        assert all(math.isfinite(r.mean) for r in point.measures.values())


class TestDeterminism:
    def test_repeat_run_is_bit_identical(self):
        cfg = _cfg(trials=30_000, xi_grid=(10.0, 1000.0))
        first = simulate(cfg)
        second = simulate(cfg)
        for p, q in zip(first, second):
            assert p.measures == q.measures

    def test_worker_count_cannot_change_results(self):
        # spans several chunks so parallel partitioning is actually
        # exercised; the K-user chunks are a full one and a partial one of
        # two full blocks and a partial third
        blocks = CHUNK_TRIALS + 2 * BLOCK_TRIALS + 37
        cases = [{"trials": 3 * CHUNK_TRIALS + 17}] + [
            {"trials": blocks, "scenario": "multiuser", "k_grid": (k,)}
            for k in (1, 2, 30)]
        for options in cases:
            cfg = _cfg(xi_grid=(10.0, 1000.0), **options)
            serial = simulate(cfg, workers=None)
            parallel = simulate(cfg, workers=4)
            # whole SimResults: mean and std_error alike
            assert ([p.measures for p in serial]
                    == [q.measures for q in parallel]), options

    def test_worker_count_cannot_change_counts(self):
        cfg = _cfg(trials=2 * CHUNK_TRIALS + 5, r0=1.0)
        serial = simulate(cfg, workers=None)[0]
        parallel = simulate(cfg, workers=3)[0]
        assert serial.measures == parallel.measures

    def test_blas_thread_count_cannot_change_results(self):
        # chunks long enough that a BLAS dot product would go multi-threaded
        probe = """
            from fairnoma.mcsim import SimConfig, simulate
            pool = SimConfig(trials=70_000, seed=9, xi_grid=(1e3,),
                             scenario="pair_minmax", k_grid=(2, 7, 30),
                             fixed_share=0.2)
            multi = SimConfig(trials=70_000, seed=9, xi_grid=(10.0, 1e4),
                              scenario="multiuser", k_grid=(5,))
            for p in simulate(pool) + simulate(multi):
                for name, r in sorted(p.measures.items()):
                    print(p.xi, p.k, name, r.mean.hex(), r.std_error.hex())
            """
        outputs = [run_probe(probe, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert outputs[0].count("\n") == 3 * 29 + 2
        assert outputs[0] == outputs[1]

    def test_point_does_not_depend_on_its_grid(self):
        # every point of a grid is evaluated on the chunk's one draw, so it
        # equals a run of that point alone bit for bit, whichever rows of
        # the workspace hold the draws (grids of several xi, several K, both)
        trials = CHUNK_TRIALS + 123
        cases = [({"scenario": "pair_minmax", "fixed_share": 0.3}, (2, 7, 30)),
                 ({"r0": 2.0}, (2,)),
                 ({"scenario": "multiuser"}, (4,))]
        for options, k_grid in cases:
            for xi_grid in ((3.7,), (3.7, 1e4)):
                grid = simulate(_cfg(trials=trials, xi_grid=xi_grid,
                                     k_grid=k_grid, **options))
                for point in grid:
                    alone = simulate(_cfg(trials=trials, xi_grid=(point.xi,),
                                          k_grid=(point.k,), **options))
                    assert alone[0].measures == point.measures, (
                        options, xi_grid, point.xi, point.k)

    def test_different_seeds_differ(self):
        a = simulate(_cfg(seed=1))[0].measures["s_noma_asup"].mean
        b = simulate(_cfg(seed=2))[0].measures["s_noma_asup"].mean
        assert a != b

    def test_result_carries_provenance(self):
        res = simulate(_cfg(trials=1234, seed=77))[0]
        sr = res.measures["c1_oma"]
        assert isinstance(sr, SimResult)
        assert sr.trials == 1234 and sr.seed == 77
        assert res.xi == 100.0 and res.k == 2


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The size of every pool the engine builds, one entry per pool, in
    order: ThreadPoolExecutor is replaced by a stand-in that records its
    size, starts no thread, and maps serially."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(mcsim, "ThreadPoolExecutor", RecordingPool)
    return sizes


def _set_cpus(monkeypatch, n: int) -> None:
    """Give this process n CPUs, by affinity and by count alike."""
    monkeypatch.setattr(mcsim.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(mcsim.os, "cpu_count", lambda: n)


class TestWorkers:
    def test_pool_clamped_to_chunks_and_cpus(self, pool_sizes, monkeypatch):
        _set_cpus(monkeypatch, 8)
        assert mcsim._map_chunks(lambda ci: ci * ci, 3, 16) == [0, 1, 4]
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        assert mcsim._map_chunks(lambda ci: ci, 20, 5) == list(range(20))
        assert pool_sizes == [3, 8, 5]
        _set_cpus(monkeypatch, 1)
        assert mcsim._map_chunks(lambda ci: ci, 4, 4) == [0, 1, 2, 3]
        _set_cpus(monkeypatch, 8)
        assert mcsim._map_chunks(lambda ci: ci, 1, 4) == [0]
        assert mcsim._map_chunks(lambda ci: ci, 4, None) == [0, 1, 2, 3]
        assert pool_sizes == [3, 8, 5]

    def test_pool_clamped_to_the_cpus_this_process_may_use(self, pool_sizes,
                                                           monkeypatch):
        # a machine of 8 CPUs, of which this process may run on 2
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(mcsim.os, "sched_getaffinity",
                            lambda pid: {3, 5}, raising=False)
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        monkeypatch.setattr(mcsim.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        assert pool_sizes == [2]
        # where the platform has no affinity call, the CPU count clamps
        monkeypatch.delattr(mcsim.os, "sched_getaffinity", raising=False)
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: None)
        assert mcsim._map_chunks(lambda ci: ci, 20, 16) == list(range(20))
        assert pool_sizes == [2, 8]

    def test_one_pool_per_sweep(self, pool_sizes, monkeypatch):
        # every chunk task of a sweep, each serving the whole grid, goes to
        # one pool of min(workers, chunks, CPUs) threads, or to none: a
        # one-chunk sweep runs on one thread however large its grid
        pairs = _cfg(trials=3 * CHUNK_TRIALS + 5, xi_grid=(10.0, 100.0, 1e3))
        multi = _cfg(trials=100, scenario="multiuser", k_grid=(3,),
                     xi_grid=(10.0, 1e3))
        serial = simulate(pairs) + simulate(multi)
        assert pool_sizes == []
        for workers, cpus, sizes in ((2, 8, [2]), (16, 8, [4]),
                                     (16, 64, [4]), (4, 1, []),
                                     (1, 8, [])):
            _set_cpus(monkeypatch, cpus)
            pool_sizes.clear()
            points = simulate(pairs, workers) + simulate(multi, workers)
            assert pool_sizes == sizes, (workers, cpus)
            assert [p.measures for p in points] == [p.measures for p in serial]

    def test_failing_task_cancels_the_rest(self, monkeypatch):
        # with one pool per sweep, the tasks still queued after a failure
        # are the rest of the whole grid: they are cancelled, not run
        _set_cpus(monkeypatch, 2)
        ran = []

        def task(i):
            if i == 0:
                raise ValueError("task 0")
            time.sleep(0.001)
            ran.append(i)

        with pytest.raises(ValueError, match="task 0"):
            mcsim._map_chunks(task, 1000, 2)
        assert len(ran) < 100, len(ran)

    def test_rejects_worker_counts_below_one(self):
        for workers in (0, -3, 1.5, True):
            with pytest.raises(DomainError, match="workers"):
                simulate(_cfg(trials=100, r0=1.0), workers=workers)

    def test_threads_never_share_a_workspace(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: two chunks writing one workspace at once would corrupt
        # their draws, and the results would differ from a serial run
        _set_cpus(monkeypatch, 8)
        pool = _cfg(trials=6 * CHUNK_TRIALS + 5, scenario="pair_minmax",
                    k_grid=(3, 7))
        multi = _cfg(trials=6 * CHUNK_TRIALS + 5, scenario="multiuser",
                     k_grid=(4,))
        serial = simulate(pool) + simulate(multi)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate(pool, workers=8) + simulate(multi, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert [p.measures for p in threaded] == [p.measures for p in serial]


class TestChunkMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    # the ids name the runner each case was written for when every
    # scenario had one, so a case keeps its name
    @pytest.mark.parametrize("options", [
        {},
        {"r0": 2.0, "fixed_share": 0.3},
        {"scenario": "pair_minmax", "k_grid": (7,)},
        {"scenario": "multiuser", "k_grid": (5,)},
    ], ids=["run_pairing-options0", "run_outage-options1",
            "run_pairing-options2", "run_multiuser_power-options3"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_do_not_page_fault(self, options, workers):
        # Chunk temporaries of half a megabyte or more are mapped fresh,
        # zero-filled by the kernel and unmapped again: about 1500-2500
        # minor faults per chunk. Reused workspaces take none once the
        # allocator is warm. Two warm-up sweeps, because glibc unmaps the
        # first sweep's workspace, then serves the second from a heap that
        # it keeps for the third. The 8-chunk sweep measured last still
        # pays any first touch of its own workspaces.
        probe = f"""
            import resource
            from fairnoma.mcsim import CHUNK_TRIALS, SimConfig, simulate
            config = SimConfig(trials=4 * CHUNK_TRIALS, seed=3,
                               xi_grid=(10.0, 1e3), **{options!r})
            simulate(config, {workers})
            simulate(config, {workers})
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            simulate(config, {workers})
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        faults_per_chunk = int(run_probe(probe)) / 8
        assert faults_per_chunk < 100, faults_per_chunk


class TestCommonRandomNumbers:
    def test_policy_not_in_stream_key(self):
        # identical draws with and without a fixed share: the OMA measures
        # match bitwise, and both fair endpoints come from them yet differ
        res_fair = simulate(_cfg(trials=50_000))[0].measures
        res_fixed = simulate(_cfg(trials=50_000, fixed_share=0.3))[0].measures
        assert res_fair["c1_oma"] == res_fixed["c1_oma"]
        assert res_fair["s_oma"] == res_fixed["s_oma"]
        assert res_fair["s_noma_ainf"].mean != res_fair["s_noma_asup"].mean

    def test_every_policy_from_one_draw_set(self):
        # a fixed share adds 'fixed' measures without moving the others
        plain = simulate(_cfg(trials=50_000))[0].measures
        fixed = simulate(_cfg(trials=50_000, fixed_share=0.3))[0].measures
        assert set(fixed) - set(plain) == {"c1_noma_fixed", "c2_noma_fixed",
                                           "s_noma_fixed", "ds_fixed",
                                           "p_noma_weak_fixed",
                                           "p_noma_strong_fixed"}
        for name in plain:
            assert fixed[name] == plain[name]
        plain = simulate(_cfg(trials=50_000, r0=2.0))[0].measures
        fixed = simulate(_cfg(trials=50_000, r0=2.0,
                              fixed_share=0.3))[0].measures
        assert set(fixed) - set(plain) == {"c1_noma_fixed", "c2_noma_fixed",
                                           "s_noma_fixed", "ds_fixed",
                                           "p_noma_weak_fixed",
                                           "p_noma_strong_fixed"}
        for name in plain:
            assert fixed[name] == plain[name]

    def test_paired_difference_cuts_variance(self):
        m = simulate(_cfg(trials=200_000, xi_grid=(1e4,)))[0].measures
        direct = m["ds_asup"].mean
        indirect = m["s_noma_asup"].mean - m["s_oma"].mean
        assert abs(direct - indirect) <= 1e-10
        # pairing beats what two independent runs would propagate
        independent = math.hypot(m["s_noma_asup"].std_error,
                                 m["s_oma"].std_error)
        assert m["ds_asup"].std_error < 0.75 * independent


class _EdgeUniforms:
    """Stands in for a Generator: every draw alternates the extreme
    uniforms on [0, 1), 0 and the largest double below 1."""

    def random(self, out):
        out[0::2] = 0.0
        out[1::2] = np.nextafter(1.0, 0.0)
        return out


class TestSamplers:
    def test_ordered_gains_are_ascending_with_renyi_means(self):
        rng = np.random.default_rng(17)
        n = CHUNK_TRIALS
        for k, beta in ((2, 1.0), (5, 2.0), (30, 0.5)):
            g = mcsim._ordered_gains(rng, beta, np.empty((k, n)))
            assert np.all(np.diff(g, axis=0) >= 0.0)
            for i in range(k):
                expected = beta * math.fsum(1.0 / (k - m) for m in range(i + 1))
                se = float(np.std(g[i], ddof=1)) / math.sqrt(n)
                assert abs(float(np.mean(g[i])) - expected) < 4.0 * se, (k, i)

    def test_ordered_gain_rows_are_the_chunk_draw(self):
        # drawn row by row into a workspace view, whose rows are a full
        # chunk apart when the chunk is partial, the gains are the running
        # sums of the gaps of one (k, n) draw
        ws = np.empty((33, CHUNK_TRIALS))
        for n in (CHUNK_TRIALS, 12295, 1):
            for k in (2, 7, 30):
                key = (1, "pair_minmax", k)
                u = mcsim._substream(*key).random((k, n))
                gaps = np.array([-(1.5 / (k - i)) * np.log1p(-u[i])
                                 for i in range(k)])
                rng = mcsim._substream(*key)
                got = mcsim._ordered_gains(rng, 1.5, ws[:k, :n])
                assert np.array_equal(got, np.cumsum(gaps, axis=0))

    def test_k_grid_shares_one_draw(self):
        # each K of a grid gets the gains a one-K draw of the same
        # substream gives, bit for bit, though the grid keeps log1p(-u1) and
        # log(u2) across K; full and partial chunks
        for n in (CHUNK_TRIALS, 777):
            for k_grid in ((2, 3, 7, 30), (3, 4, 30), (2, 5)):
                base, out = np.empty((2, n)), np.empty((2, n))
                shared = mcsim._minmax_gains(
                    mcsim._substream(4, "pair_minmax", 1), k_grid, 1.5, base,
                    out)
                for k, gains in zip(k_grid, shared, strict=True):
                    alone = np.empty((2, n))
                    single = next(mcsim._minmax_gains(
                        mcsim._substream(4, "pair_minmax", 1), (k,), 1.5,
                        alone, alone))
                    assert np.array_equal(gains, single), (n, k_grid, k)

    def test_extreme_uniforms_give_finite_gains_silently(self):
        # a uniform of exactly 0 is the bottom of each inverse CDF; it must
        # give a gain or gap of 0, not log(0) and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                for k in (2, 5, 30):
                    out = np.empty((2, 6))
                    lo, hi = next(mcsim._minmax_gains(
                        _EdgeUniforms(), (k,), 2.0, out, out))
                    g = mcsim._ordered_gains(_EdgeUniforms(), 2.0,
                                             np.empty((k, 6)))
                    for v in (lo, hi, g):
                        assert np.all(np.isfinite(v)), (k, v)
                    assert np.all(lo[0::2] == 0.0) and np.all(hi[0::2] == 0.0)
                    assert np.all(hi[1::2] > lo[1::2])
                    assert np.all(g[:, 0::2] == 0.0)
                    assert np.all(np.diff(g[:, 1::2], axis=0) > 0.0)


class TestStatisticalHonesty:
    def test_se_scales_like_inverse_root_n(self):
        small = simulate(_cfg(trials=10_000, seed=3))[0]
        big = simulate(_cfg(trials=1_000_000, seed=3))[0]
        ratio = (small.measures["s_noma_asup"].std_error
                 / big.measures["s_noma_asup"].std_error)
        assert 8.0 <= ratio <= 12.0

    def test_means_match_closed_forms(self):
        params = twouser.SystemParams(xi=1e3)
        m = simulate(_cfg(trials=400_000, seed=9,
                          xi_grid=(1e3,)))[0].measures
        e_c1, e_c2, e_s = ergodic.ergodic_oma(params)
        targets = {"c1_oma": e_c1, "c2_oma": e_c2, "s_oma": e_s,
                   "c1_noma_ainf":
                       ergodic.ergodic_curve_point(params).e_c1_noma_ainf}
        for name, cf in targets.items():
            z = (m[name].mean - cf) / m[name].std_error
            assert abs(z) < 4.0, (name, z)

    def test_binomial_se_formula(self):
        cfg = _cfg(trials=100_000, r0=2.0, xi_grid=(1e3,))
        m = simulate(cfg)[0].measures
        probabilities = [sr for name, sr in m.items() if name.startswith("p_")]
        assert len(probabilities) == 8
        for sr in probabilities:
            assert sr.std_error == pytest.approx(
                math.sqrt(sr.mean * (1.0 - sr.mean) / sr.trials),
                rel=1e-12, abs=0.0)
            assert 0.0 <= sr.mean <= 1.0


class TestBoundaryIdentities:
    def test_sup_weak_equals_oma_weak_per_draw(self):
        m = simulate(_cfg(trials=100_000, xi_grid=(1e4,)))[0].measures
        assert abs(m["c1_noma_asup"].mean - m["c1_oma"].mean) <= 1e-12

    def test_inf_strong_equals_oma_strong_per_draw(self):
        m = simulate(_cfg(trials=100_000, xi_grid=(1e4,)))[0].measures
        assert abs(m["c2_noma_ainf"].mean - m["c2_oma"].mean) <= 1e-12

    def test_outage_identity_counts_are_exact(self):
        cfg = _cfg(trials=300_000, r0=2.0, xi_grid=(100.0, 1e3))
        for point in simulate(cfg):
            m = point.measures
            assert m["p_noma_weak_asup"].mean == m["p_oma_weak"].mean
            assert m["p_noma_strong_ainf"].mean == m["p_oma_strong"].mean

    def test_zero_rate_counts_no_outage(self):
        # at r0 = 0 both thresholds are 0.0, and no SNR or SINR lies below
        for point in simulate(_cfg(trials=1000, seed=3, xi_grid=(1e-3, 1e3))):
            counts = [r for name, r in point.measures.items()
                      if name.startswith("p_")]
            assert len(counts) == 8
            assert set(counts) == {SimResult(0.0, 0.0, 1000, 3)}

    def test_mid_policy_sits_between_endpoints(self):
        m = simulate(_cfg(trials=300_000, r0=2.0, xi_grid=(1e3,)))[0].measures
        assert (m["p_noma_weak_ainf"].mean <= m["p_noma_weak_mid"].mean
                <= m["p_noma_weak_asup"].mean)
        assert (m["p_noma_strong_asup"].mean <= m["p_noma_strong_mid"].mean
                <= m["p_noma_strong_ainf"].mean)


class TestPairingScenario:
    def test_requires_two_users(self):
        with pytest.raises(DomainError):
            simulate(_cfg(scenario="pair_minmax", k_grid=(1,)))

    def test_gain_grows_with_pool_size(self):
        cfg = _cfg(trials=200_000, scenario="pair_minmax", xi_grid=(1e5,),
                   k_grid=(2, 5, 10))
        points = simulate(cfg)
        gains = [p.measures["ds_asup"].mean for p in points]
        assert gains[0] < gains[1] < gains[2]
        for p in points:
            m = p.measures
            assert m["c2_noma_asup"].mean > m["c1_noma_asup"].mean
            # fairness: both endpoints beat orthogonal access on average
            assert m["ds_asup"].mean > 0.0
            assert m["ds_ainf"].mean > 0.0

    def test_pool_of_two_matches_plain_pair(self):
        # different substreams, so agreement is statistical, not bitwise
        pair = simulate(_cfg(trials=400_000, seed=21,
                             xi_grid=(1e3,)))[0].measures
        pool = simulate(_cfg(trials=400_000, seed=21, xi_grid=(1e3,),
                             scenario="pair_minmax"))[0].measures
        joint_se = math.hypot(pair["s_oma"].std_error, pool["s_oma"].std_error)
        assert abs(pair["s_oma"].mean - pool["s_oma"].mean) < 4.0 * joint_se

    def test_fixed_share_measures_present(self):
        m = simulate(_cfg(trials=50_000, scenario="pair_minmax",
                          fixed_share=0.2, k_grid=(4,)))[0].measures
        assert {"s_noma_fixed", "ds_fixed", "c1_noma_fixed",
                "c2_noma_fixed"} <= set(m)


class TestMultiuserScenario:
    def test_single_user_needs_exactly_full_power(self):
        points = simulate(_cfg(trials=30_000, scenario="multiuser",
                               k_grid=(1,), xi_grid=(10.0, 1e3)))
        for p in points:
            assert p.measures["sum_b"].mean == 1.0
            assert p.measures["sum_b"].std_error == 0.0

    def test_total_below_one_and_decreasing_in_snr(self):
        points = simulate(_cfg(trials=150_000, scenario="multiuser",
                               k_grid=(5,), xi_grid=(10.0, 1e3, 1e5)))
        means = [p.measures["sum_b"].mean for p in points]
        assert all(m < 1.0 for m in means)
        assert means[0] > means[1] > means[2]


class TestScalarApiIsTheEngine:
    """The scalar API and the Monte Carlo kernels share one implementation
    of the per-draw physics, so the API reproduces every value a kernel
    reduces, bit for bit. The kernels' intermediate vectors are recorded by
    wrapping the engine's samplers (``_minmax_gains`` and
    ``_ordered_gains``), ``_shares`` and ``_moments``."""

    XI_GRID = (0.1, 3.7, 1e2, 1e4, 1e6, 1e9)

    @staticmethod
    def _record(monkeypatch) -> dict:
        seen = {"gains": [], "shares": [], "moments": []}
        minmax, ordered = mcsim._minmax_gains, mcsim._ordered_gains
        shares, moments = mcsim._shares, mcsim._moments

        def record_minmax(*args):
            for out in minmax(*args):
                seen["gains"].append(tuple(g.copy() for g in out))
                yield out

        def record_ordered(*args):
            g = ordered(*args)
            seen["gains"].append(g.copy())
            return g

        def record_shares(*args, **kwargs):
            out = shares(*args, **kwargs)
            seen["shares"].append({tag: np.copy(a) for tag, a in out.items()})
            return out

        def record_moments(v, tmp):
            seen["moments"].append(v.copy())
            return moments(v, tmp)

        monkeypatch.setattr(mcsim, "_minmax_gains", record_minmax)
        monkeypatch.setattr(mcsim, "_ordered_gains", record_ordered)
        monkeypatch.setattr(mcsim, "_shares", record_shares)
        monkeypatch.setattr(mcsim, "_moments", record_moments)
        return seen

    @staticmethod
    def _mismatches(pairs) -> list:
        return [(name, float.hex(api), float.hex(float(engine)))
                for name, api, engine in pairs
                if float.hex(api) != float.hex(float(engine))]

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_pair_shares_and_rates(self, monkeypatch, beta):
        seen = self._record(monkeypatch)
        # a full chunk and a partial one, each drawn once for the whole
        # grid, run serially so the recordings come in chunk order
        simulate(_cfg(trials=CHUNK_TRIALS + 37, beta=beta,
                      xi_grid=self.XI_GRID))
        assert len(seen["gains"]) == 2
        # per block: the shares, then c1_oma, c2_oma, s_oma, and c1, c2, s,
        # ds per share, each in nats
        blocks = iter([(shares, seen["moments"][15 * b:15 * b + 15])
                       for b, shares in enumerate(seen["shares"])])
        checked = []
        for chunk, xi in ((chunk, xi) for chunk in (0, 1)
                          for xi in self.XI_GRID):
            weak, strong = seen["gains"][chunk]
            n = len(weak)
            recorded = [next(blocks) for _ in range(0, n, mcsim.BLOCK_TRIALS)]
            assert all(list(shares) == ["ainf", "asup", "mid"]
                       for shares, _ in recorded)
            shares = {tag: np.concatenate([r[0][tag] for r in recorded])
                      for tag in ("ainf", "asup")}
            nats = [np.concatenate([r[1][m] for r in recorded])
                    for m in range(15)]
            assert len(nats[0]) == n
            # each converted to b/s/Hz as the scalar API converts its own
            rates = [twouser._to_bits(v.copy(), 2 if m < 2 else 1)
                     for m, v in enumerate(nats)]
            for i in range(0, n, 97) if chunk == 0 else range(n):
                g1, g2 = float(weak[i]), float(strong[i])
                region = twouser.fair_region(twouser.SystemParams(xi=xi),
                                             twouser.ChannelPair(g1, g2))
                checked += [
                    ("a_inf", region.a_inf, shares["ainf"][i]),
                    ("a_sup", region.a_sup, shares["asup"][i]),
                    ("c1_oma", twouser.oma_capacity(xi, g1), rates[0][i]),
                    ("c2_oma", twouser.oma_capacity(xi, g2), rates[1][i])]
                for j, a in enumerate((region.a_inf, region.a_sup)):
                    checked += [
                        ("c1_noma", twouser.noma_capacity_weak(xi, g1, a),
                         rates[3 + 4 * j][i]),
                        ("c2_noma", twouser.noma_capacity_strong(xi, g2, a),
                         rates[4 + 4 * j][i])]
        assert next(blocks, None) is None
        bad = self._mismatches(checked)
        assert not bad, (len(bad), len(checked), bad[:5])

    def test_every_pair_mean_is_the_api_mean(self, monkeypatch):
        # the kernel takes its moments in nats and converts each measure's
        # sum once, by its own unit; the mean of the scalar API's b/s/Hz
        # values on the same draws pins that unit for every measure. One
        # chunk, whose last block ends mid-block
        seen = self._record(monkeypatch)
        trials, xi = mcsim.BLOCK_TRIALS + 1234, 1e3
        [point] = simulate(_cfg(trials=trials, fixed_share=0.3,
                                xi_grid=(xi,)))
        [(weak, strong)] = seen["gains"]
        values = {name: [] for name in point.measures
                  if not name.startswith("p_")}
        assert len(values) == 3 + 4 * 4
        for g1, g2 in zip(weak.tolist(), strong.tolist()):
            region = twouser.fair_region(twouser.SystemParams(xi=xi),
                                         twouser.ChannelPair(g1, g2))
            c1_oma = twouser.oma_capacity(xi, g1)
            c2_oma = twouser.oma_capacity(xi, g2)
            draw = {"c1_oma": c1_oma, "c2_oma": c2_oma,
                    "s_oma": c1_oma + c2_oma}
            for tag, a in (("ainf", region.a_inf), ("asup", region.a_sup),
                           ("mid", 0.5 * (region.a_inf + region.a_sup)),
                           ("fixed", 0.3)):
                c1 = twouser.noma_capacity_weak(xi, g1, a)
                c2 = twouser.noma_capacity_strong(xi, g2, a)
                draw.update({f"c1_noma_{tag}": c1, f"c2_noma_{tag}": c2,
                             f"s_noma_{tag}": c1 + c2,
                             f"ds_{tag}": c1 + c2 - (c1_oma + c2_oma)})
            for name, v in draw.items():
                values[name].append(v)
        for name, v in values.items():
            api = math.fsum(v) / trials
            assert point.measures[name].mean == pytest.approx(
                api, rel=1e-13, abs=0.0), name

    @staticmethod
    def _gains_at(monkeypatch, theta: float) -> None:
        """Every pair draw's two gains set to ``theta`` and one ulp below it
        in turn; at xi = 1 the SNRs ``xi * g`` are these gains exactly."""
        minmax = mcsim._minmax_gains

        def at_threshold(*args):
            for out in minmax(*args):
                for g in out:
                    g[0::2] = theta
                    g[1::2] = np.nextafter(theta, 0.0)
                yield out

        monkeypatch.setattr(mcsim, "_minmax_gains", at_threshold)

    def test_oma_outage_threshold(self, monkeypatch):
        # SNRs at the threshold and one ulp below it, so a threshold that
        # differs from the closed form's in the last bit changes the counts
        for r0 in (0.1, 0.5, 1.0, 2.0, 3.0):
            with monkeypatch.context() as patch:
                self._gains_at(patch, twouser._rate_threshold(r0))
                m = simulate(_cfg(trials=1000, r0=r0,
                                  xi_grid=(1.0,)))[0].measures
            assert m["p_oma_weak"].mean == m["p_oma_strong"].mean == 0.5, r0

    def test_noma_outage_threshold(self, monkeypatch):
        # NOMA SINRs at the threshold 2**r0 - 1 and one ulp below it, as in
        # the OMA test: the weak user's written over _weak_sinr's result,
        # the strong user's its SNR at a share of exactly 1
        shares, weak_sinr = mcsim._shares, mcsim._weak_sinr

        def at_threshold(v, theta):
            v[0::2] = theta
            v[1::2] = np.nextafter(theta, 0.0)
            return v

        def full_shares(*args):
            return dict.fromkeys(shares(*args), 1.0)

        monkeypatch.setattr(mcsim, "_shares", full_shares)
        for r0 in (0.1, 0.5, 1.0, 2.0, 3.0):
            theta = twouser._rate_threshold(r0, 1)
            with monkeypatch.context() as patch:
                self._gains_at(patch, theta)
                patch.setattr(mcsim, "_weak_sinr", lambda *args:
                              at_threshold(weak_sinr(*args), theta))
                m = simulate(_cfg(trials=1000, r0=r0, fixed_share=0.3,
                                  xi_grid=(1.0,)))[0].measures
            noma = {name: r.mean for name, r in m.items()
                    if name.startswith("p_noma")}
            assert len(noma) == 8
            assert set(noma.values()) == {0.5}, (r0, noma)

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_k_user_power_total(self, monkeypatch, beta):
        checked = []
        seen = self._record(monkeypatch)
        for k in range(1, 31):
            for records in seen.values():
                records.clear()
            # one partial chunk, drawn once for every grid point
            simulate(_cfg(trials=23, beta=beta, k_grid=(k,),
                          scenario="multiuser", xi_grid=self.XI_GRID))
            assert len(seen["gains"]) == 1
            assert len(seen["moments"]) == len(self.XI_GRID)
            g = seen["gains"][0]
            for xi, total in zip(self.XI_GRID, seen["moments"]):
                # the sampler's K-major rows, ascending as ChannelSet demands
                for i, gains in enumerate(g.T):
                    channels = multiuser.ChannelSet(tuple(gains))
                    running = 0.0
                    # the API's b-vector summed strongest first, the
                    # recursion's own order
                    for b in reversed(multiuser.min_alloc_b(xi, channels).coeffs):
                        running += b
                    checked.append((f"sum_b K={k}", running, total[i]))
        bad = self._mismatches(checked)
        assert not bad, (len(bad), len(checked), bad[:5])


def _figure_sets(scenario: str) -> list:
    """The Monte Carlo measures of each figure of ``scenario``."""
    return [{src for name, src in fig.columns if name.endswith("_mc")}
            for fig in cli._FIGURES.values() if fig.scenario == scenario]


class TestMeasureSubsets:
    """A sweep asked for some of its measures computes each of them by the
    same operations on the same draws as the full run, so each equals the
    full run's bit for bit, and it returns exactly those measures. The ids
    of the cases name the runner each was written for when every scenario
    had one, so a case keeps its name."""

    CASES = [
        {"fixed_share": 0.3},
        {},
        {"scenario": "pair_minmax", "k_grid": (2, 7, 30), "fixed_share": 0.3},
        {"r0": 2.0},
        {"r0": 2.0, "fixed_share": 0.3},
        {"scenario": "multiuser", "k_grid": (5,)},
    ]

    @pytest.mark.parametrize("options", CASES, ids=[
        "run_pairing-options0", "run_pairing-options1", "run_pairing-options2",
        "run_outage-options3", "run_outage-options4",
        "run_multiuser_power-options5"])
    def test_each_subset_equals_the_full_run(self, options):
        # a full chunk and a partial one per grid point
        config = _cfg(trials=CHUNK_TRIALS + 123, xi_grid=(3.7, 1e4),
                      **options)
        full = simulate(config)
        names = set(full[0].measures)
        subsets = [{name} for name in sorted(names)]
        subsets += [s for s in _figure_sets(config.scenario) if s <= names]
        for subset in subsets:
            for whole, part in zip(full, simulate(config, measures=subset),
                                   strict=True):
                assert (part.xi, part.k) == (whole.xi, whole.k)
                assert set(part.measures) == subset
                for name in subset:
                    got, want = part.measures[name], whole.measures[name]
                    assert (float.hex(got.mean), float.hex(got.std_error)) == (
                        float.hex(want.mean), float.hex(want.std_error)), name

    def test_every_figure_set_is_covered(self):
        # each figure's set is a subset of some case's full measure set
        for scenario in mcsim._SCENARIO_IDS:
            configs = [_cfg(trials=10, **options) for options in self.CASES]
            produced = [set(simulate(config)[0].measures) for config in configs
                        if config.scenario == scenario]
            for s in _figure_sets(scenario):
                assert any(s <= names for names in produced), s

    def test_figure_one_computes_two_rate_vectors(self, monkeypatch):
        calls = []

        def recording(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        for name in ("_oma_rate", "_weak_rate", "_strong_rate"):
            monkeypatch.setattr(mcsim, name, recording(name, getattr(mcsim, name)))
        simulate(_cfg(trials=100), measures={"c1_noma_ainf", "c2_noma_asup"})
        assert calls == ["_weak_rate", "_strong_rate"]
        calls.clear()
        simulate(_cfg(trials=100))
        assert calls == ["_oma_rate", "_oma_rate"] + [
            "_weak_rate", "_strong_rate"] * 3

    @pytest.mark.parametrize("options,bad", [
        # a measure of the other kernel: the scenario picks the kernel
        ({}, {"sum_b"}),
        ({}, {"ds_fixed"}),
        ({}, "c1_oma"),
        ({}, set()),
        ({"r0": 1.0}, {"p_noma_weak_fixed"}),
        ({"scenario": "multiuser"}, {"c1_oma"}),
        ({"scenario": "multiuser"}, {"sum_a"}),
    ], ids=["run_pairing-options0-bad0", "run_pairing-options1-bad1",
            "run_pairing-options2-c1_oma", "run_pairing-options3-bad3",
            "run_outage-options4-bad4", "run_outage-options5-bad5",
            "run_multiuser_power-options6-bad6"])
    def test_unknown_measure_names_the_valid_set(self, options, bad):
        valid = set(simulate(_cfg(trials=10, **options))[0].measures)
        with pytest.raises(DomainError) as info:
            simulate(_cfg(trials=10, **options), measures=bad)
        assert all(repr(name) in str(info.value) for name in valid)
