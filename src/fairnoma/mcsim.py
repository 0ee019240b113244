"""Deterministic Monte Carlo engine for every expectation and probability in
the package.

One sweep driver serves every scenario. For each grid point (xi, and K for
the pool scenarios) it splits the trials into fixed 65536-draw chunks. Chunk
``ci`` draws its uniforms from
``Philox(SeedSequence((seed, scenario_id, grid_index, k, ci)))`` (``k`` is 0
for the plain pair), so each trial's channel realization is a pure function
of the configuration and its own index.

The scenario's kernel receives the chunk's uniforms and turns them into
exponential gains with the inverse CDF ``-beta*log1p(-u)`` (``_gains``).
That map is non-decreasing in ``u``, so the pair kernels take the row
minimum and maximum of the uniforms first and transform only those two
columns; the result is bit-identical to reducing the gains. The K-user
kernel transforms every column, then sorts.

Each kernel returns partial sums, and the driver combines them in chunk
order with ``math.fsum``, which is exactly rounded: results are
bit-identical under any worker count. Second moments are ``einsum`` loops,
not BLAS dot products, so standard errors do not depend on the machine's
BLAS thread pool either, and no BLAS threads compete with the workers.
Workers are threads, clamped to the chunk count and the CPU count.

A chunk allocates no large arrays. Each sweep gives every worker a workspace
(``_Workspace``): a buffer for 8192 rows of uniforms, as wide as the widest
K of the sweep, plus a few chunk-length scratch vectors. The chunk's
uniforms are drawn into that buffer one row block at a time by
``Generator.random(out=...)``, and the kernel reduces each block (row
minimum and maximum, or sort and power recursion) while it is still in
cache. Workspaces wait in a queue between chunks, so any thread may run any
chunk with any free workspace, and all of them are dropped when the sweep
returns. Fresh half-megabyte temporaries would each be mapped, zero-filled
by the kernel and unmapped again.

No bit depends on where a value sits. Successive ``random(out=...)`` calls
continue one Philox stream, so the blocks hold exactly ``random((n, K))``,
and an elementwise ufunc rounds each element alike in a chunk, a block of
rows or a one-element array. So the per-draw physics (the fair share
bound, the OMA and NOMA rates, the minimum-power recursion) is the array
code of ``twouser`` and ``multiuser`` that the scalar API runs too, and
each draw's values equal the scalar API's at its gains bit for bit. Every
measure is reduced by one ``np.sum`` and one ``einsum`` over its full
chunk, and a buffer is overwritten only after its moments are taken.

The a-policy is deliberately absent from the stream key, and each pair
kernel evaluates every allocation policy it reports on the same draws
(common random numbers). Measures carry the policy as a tag: ``ainf`` and
``asup`` for the two fair endpoints, ``mid`` for their average share and
``fixed`` for a numeric share, as in ``c1_noma_ainf`` or ``ds_asup``.
Paired differences between policies, or against OMA, therefore have far
less variance than independent runs would give.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError
from .multiuser import _min_power_total
from .twouser import (SystemParams, _oma_rate, _pair_rates, _rate_threshold,
                      _require_positive, _share_bound)

#: trials per substream chunk; fixed so parallel partitioning cannot move
#: draws between substreams
CHUNK_TRIALS = 1 << 16

#: rows of uniforms drawn at a time; a block of a K = 30 pool is 1.9 MB, so
#: it is still in cache when the kernel reads it
_ROW_BLOCK = 1 << 13

_SCENARIO_IDS = {"pair_iid": 1, "pair_minmax": 2, "multiuser": 3}

#: measure-name tag of each named a-policy; a numeric share is tagged 'fixed'
_POLICY_TAGS = {"inf": "ainf", "sup": "asup", "mid": "mid"}
_POLICIES = tuple(_POLICY_TAGS)


def _validate_policy(policy) -> None:
    if isinstance(policy, str):
        if policy not in _POLICIES:
            raise DomainError(
                f"a_policy must be one of {_POLICIES} or a fixed share in (0,1),"
                f" got {policy!r}")
        return
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        if 0.0 < float(policy) < 1.0 and math.isfinite(policy):
            return
    raise DomainError(f"fixed a_policy requires a value in (0, 1), got {policy!r}")


@dataclass(frozen=True)
class SimConfig:
    """Experiment description; everything that can influence a result.

    ``a_policy`` is 'inf', 'sup', 'mid', or a float in (0,1) meaning a fixed
    strong-user share. The pair runners always report both fair endpoints
    (tags ``ainf`` and ``asup``); 'mid' or a number adds the tag ``mid`` or
    ``fixed``. ``k_grid`` optionally sweeps the user count for the
    pair_minmax scenario (defaults to just ``k_users``). ``scenario`` must
    name the scenario of the runner it is passed to: 'pair_iid' for
    ``run_ergodic_pair`` and ``run_outage``, 'pair_minmax' for
    ``run_pairing``, 'multiuser' for ``run_multiuser_power``.
    """

    trials: int
    seed: int
    xi_grid: tuple
    beta: float = 1.0
    k_users: int = 2
    r0: float = 0.0
    a_policy: object = "sup"
    scenario: str = "pair_iid"
    k_grid: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        xi_grid = tuple(float(x) for x in self.xi_grid)
        if not xi_grid:
            raise DomainError("xi_grid must be non-empty")
        for x in xi_grid:
            _require_positive("xi_grid entries", x)
        if any(a >= b for a, b in zip(xi_grid, xi_grid[1:])):
            raise DomainError("xi_grid must be strictly increasing")
        object.__setattr__(self, "xi_grid", xi_grid)
        _require_positive("beta", self.beta)
        if not isinstance(self.k_users, int) or self.k_users < 1:
            raise DomainError(f"k_users must be a positive integer, got {self.k_users!r}")
        if not (math.isfinite(self.r0) and self.r0 >= 0.0):
            raise DomainError(f"r0 must be >= 0, got {self.r0!r}")
        _validate_policy(self.a_policy)
        if self.scenario not in _SCENARIO_IDS:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.k_grid is not None:
            k_grid = tuple(self.k_grid)
            if not k_grid or any(not isinstance(k, int) or k < 1 for k in k_grid):
                raise DomainError(f"k_grid must hold positive integers, got {self.k_grid!r}")
            if any(a >= b for a, b in zip(k_grid, k_grid[1:])):
                raise DomainError("k_grid must be strictly increasing")
            object.__setattr__(self, "k_grid", k_grid)


@dataclass(frozen=True)
class SimResult:
    """One estimated quantity: mean, its standard error, and provenance."""

    mean: float
    std_error: float
    trials: int
    seed: int


@dataclass(frozen=True)
class GridPoint:
    """All measures estimated at one (xi, K) grid point."""

    xi: float
    k: int
    measures: dict


# ---------------------------------------------------------------------------
# sweep driver

def _map_chunks(fn: Callable[[int], dict], n_chunks: int,
                workers: int | None) -> list:
    """``[fn(0), ..., fn(n_chunks - 1)]``, on at most ``workers`` threads but
    never more threads than chunks or CPUs."""
    workers = min(workers or 1, n_chunks, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(ci) for ci in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def _moment(v: np.ndarray) -> tuple[float, float]:
    # einsum's own loop, not BLAS ddot: no thread pool, and the same
    # rounding whatever the machine's BLAS thread count
    return float(np.sum(v)), float(np.einsum("i,i->", v, v))


def _reduce(parts: list, trials: int, seed: int) -> dict:
    """Combine per-chunk partials (in chunk order) into SimResults."""
    measures = {}
    for name in parts[0]:
        first = parts[0][name]
        if isinstance(first, int):
            count = sum(p[name] for p in parts)
            p_hat = count / trials
            se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
            measures[name] = SimResult(p_hat, se, trials, seed)
        else:
            total = math.fsum(p[name][0] for p in parts)
            total_sq = math.fsum(p[name][1] for p in parts)
            mean = total / trials
            if trials > 1:
                var = max((total_sq - trials * mean * mean) / (trials - 1), 0.0)
                se = math.sqrt(var / trials)
            else:
                se = 0.0
            measures[name] = SimResult(mean, se, trials, seed)
    return measures


class _Workspace:
    """One worker's chunk buffers: a block of ``_ROW_BLOCK`` rows of
    uniforms up to ``width`` users wide, and ``n_scratch`` chunk-length
    scratch vectors."""

    def __init__(self, width: int, n_scratch: int):
        # one allocation: from 4 MB on, numpy advises huge pages for it, so
        # its first touch takes far fewer page faults
        buf = np.empty(_ROW_BLOCK * width + CHUNK_TRIALS * n_scratch)
        self._draw = buf[:_ROW_BLOCK * width]
        self._scratch = buf[_ROW_BLOCK * width:].reshape(n_scratch, -1)

    def blocks(self, rng: np.random.Generator, n: int, k: int):
        """The chunk's (n, k) uniforms as consecutive row blocks, yielded as
        ``(rows, u)`` with ``u`` drawn into the one block buffer: together
        they are exactly ``rng.random((n, k))``, and each block overwrites
        the one before."""
        for start in range(0, n, _ROW_BLOCK):
            u = self._draw[:min(_ROW_BLOCK, n - start) * k].reshape(-1, k)
            rng.random(out=u)
            yield slice(start, start + len(u)), u

    def scratch(self, n: int) -> list:
        """The scratch vectors, each cut to length n."""
        return list(self._scratch[:, :n])


def _sweep(config: SimConfig, scenario: str, k_grid: tuple,
           kernel: Callable[[Iterator, float, list], dict],
           workers: int | None, n_scratch: int) -> list:
    """One GridPoint per (xi, K) point, xi-major:
    ``kernel(blocks, xi, scratch)`` maps each chunk's (n, K) uniforms on
    [0, 1), given as row blocks by ``_Workspace.blocks``, to partial sums
    (``_moment`` pairs or integer counts), which are reduced in chunk order.
    ``scratch`` holds ``n_scratch`` vectors of length n that the kernel may
    overwrite; they and the blocks belong to a workspace reused by later
    chunks."""
    if config.scenario != scenario:
        raise DomainError(
            f"this operation requires scenario={scenario!r}, got {config.scenario!r}")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        raise DomainError(f"workers must be a positive integer, got {workers!r}")
    n_chunks = (config.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    # idle workspaces; a chunk that finds none makes one, so there are never
    # more workspaces than threads
    free = queue.SimpleQueue()
    points = []
    for gi, xi in enumerate(config.xi_grid):
        for k in k_grid:
            # the plain pair's width is fixed, so its substreams key K as 0
            key = (config.seed, _SCENARIO_IDS[scenario], gi,
                   0 if scenario == "pair_iid" else k)

            def chunk(ci: int, xi: float = xi, k: int = k,
                      key: tuple = key) -> dict:
                try:
                    ws = free.get_nowait()
                except queue.Empty:
                    ws = _Workspace(max(k_grid), n_scratch)
                try:
                    rng = np.random.Generator(
                        np.random.Philox(np.random.SeedSequence(key + (ci,))))
                    n = min(CHUNK_TRIALS, config.trials - ci * CHUNK_TRIALS)
                    return kernel(ws.blocks(rng, n, k), xi, ws.scratch(n))
                finally:
                    free.put(ws)

            parts = _map_chunks(chunk, n_chunks, workers)
            points.append(GridPoint(xi=xi, k=k,
                                    measures=_reduce(parts, config.trials,
                                                     config.seed)))
    return points


# ---------------------------------------------------------------------------
# draws, order statistics and policies; the per-draw physics is twouser's and
# multiuser's

def _gains(u: np.ndarray, beta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Exp(beta) channel gains ``-beta * log1p(-u)`` from uniforms on [0, 1)
    by the inverse CDF. Non-decreasing in ``u``, so it commutes with row
    minima, maxima and sorts bit for bit."""
    g = np.negative(u, out=out)
    np.log1p(g, out=g)
    return np.multiply(-beta, g, out=g)


def _row_min_max(x: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """Row minimum and maximum of an (n, K) array, exactly ``x.min(axis=1)``
    and ``x.max(axis=1)``, into the vector pair ``out``. On a block that
    stays in cache, a column loop runs several times faster than numpy's
    row reduction at these widths."""
    lo, hi = out
    np.copyto(lo, x[:, 0])
    np.copyto(hi, lo)
    for j in range(1, x.shape[1]):
        np.minimum(lo, x[:, j], out=lo)
        np.maximum(hi, x[:, j], out=hi)
    return lo, hi


def _pair_snrs(blocks: Iterator, xi: float, beta: float,
               out) -> tuple[np.ndarray, np.ndarray]:
    """(weak, strong) instantaneous SNRs ``xi * _gains(.)`` of the weakest
    and strongest user in each row of an (n, K) uniform draw, given as
    ``(rows, u)`` row blocks, into the vector pair ``out``. The order
    statistic is taken on the uniforms and only those 2n values are mapped
    to gains, which equals taking it on the nK gains bit for bit because
    ``_gains`` is monotone."""
    lo, hi = out
    for rows, u in blocks:
        _row_min_max(u, (lo[rows], hi[rows]))
    for w in out:
        _gains(w, beta, out=w)
        np.multiply(xi, w, out=w)
    return lo, hi


def _shares(w1: np.ndarray, w2: np.ndarray, extra, bufs: list) -> dict:
    """Strong user's power share per draw, keyed by policy tag and written
    into ``bufs``: the two fair endpoints, then each policy in ``extra``
    ('mid', ``0.5 * (ainf + asup)``, or a fixed number broadcast to every
    draw; 'inf' and 'sup' are already there)."""
    shares = {"ainf": _share_bound(w2, bufs[0]),
              "asup": _share_bound(w1, bufs[1])}
    for policy in extra:
        buf = bufs[len(shares)]
        if policy == "mid":
            np.add(shares["ainf"], shares["asup"], out=buf)
            shares["mid"] = np.multiply(0.5, buf, out=buf)
        elif not isinstance(policy, str):
            buf.fill(policy)
            shares["fixed"] = buf
    return shares


#: scratch vectors of a pair kernel: weak and strong SNR, OMA sum rate, the
#: three NOMA rates, and the shares of both endpoints plus one more policy
_PAIR_SCRATCH = 9


def _rate_moments(w1: np.ndarray, w2: np.ndarray, extra, weak: str,
                  strong: str, noma: str, scratch: list) -> dict:
    """Moments of the pair's OMA capacities (``<weak>_oma``, ``<strong>_oma``,
    ``s_oma``) and, per policy tag, its NOMA capacities
    (``<weak><noma>_<tag>``, ``<strong><noma>_<tag>``, ``s<noma>_<tag>``)
    with the paired per-draw sum-rate gain ``ds_<tag>``; ``scratch`` holds
    four vectors plus one per share."""
    s_o, c1, c2, s, *share_bufs = scratch
    out = {f"{weak}_oma": _moment(_oma_rate(w1, 2, c1)),
           f"{strong}_oma": _moment(_oma_rate(w2, 2, c2)),
           "s_oma": _moment(np.add(c1, c2, out=s_o))}
    for tag, a in _shares(w1, w2, extra, share_bufs).items():
        _pair_rates(w1, w2, a, c1, c2)
        out[f"{weak}{noma}_{tag}"] = _moment(c1)
        out[f"{strong}{noma}_{tag}"] = _moment(c2)
        out[f"s{noma}_{tag}"] = _moment(np.add(c1, c2, out=s))
        out[f"ds_{tag}"] = _moment(np.subtract(s, s_o, out=c1))
    return out


# ---------------------------------------------------------------------------
# scenario runners

def run_ergodic_pair(config: SimConfig, workers: int | None = None) -> list:
    """Per-xi capacity means for the ordered two-user pair: ``c1_oma``,
    ``c2_oma``, ``s_oma``, and per policy tag ``c1_noma_<tag>``,
    ``c2_noma_<tag>``, ``s_noma_<tag>`` with the paired per-draw sum-rate
    gain ``ds_<tag>``, for both fair endpoints and ``a_policy``."""

    def kernel(blocks: Iterator, xi: float, scratch: list) -> dict:
        w1, w2 = _pair_snrs(blocks, xi, config.beta, scratch[:2])
        return _rate_moments(w1, w2, (config.a_policy,), "c1", "c2", "_noma",
                             scratch[2:])

    return _sweep(config, "pair_iid", (2,), kernel, workers, _PAIR_SCRATCH)


def run_outage(config: SimConfig, workers: int | None = None) -> list:
    """Per-xi outage frequencies below r0.

    Reports OMA for both users (``p_oma_weak``, ``p_oma_strong``) and, per
    policy tag, ``p_noma_weak_<tag>`` and ``p_noma_strong_<tag>`` for both
    fair endpoints, the mid policy, and a numeric ``a_policy`` as ``fixed``,
    all from the same draws. The region endpoints that matter are weak at
    ``ainf`` and strong at ``asup``; weak at ``asup`` and strong at ``ainf``
    are the boundary identities.
    """
    r0 = config.r0
    # outage iff xi*g < threshold, per user in OMA
    o_thresh = _rate_threshold(r0)

    def kernel(blocks: Iterator, xi: float, scratch: list) -> dict:
        w1, w2, c1, c2, *share_bufs = scratch
        _pair_snrs(blocks, xi, config.beta, (w1, w2))
        out = {
            "p_oma_weak": int(np.count_nonzero(w1 < o_thresh)),
            "p_oma_strong": int(np.count_nonzero(w2 < o_thresh)),
        }
        shares = _shares(w1, w2, ("mid", config.a_policy), share_bufs)
        for tag, a in shares.items():
            _pair_rates(w1, w2, a, c1, c2)
            out[f"p_noma_weak_{tag}"] = int(np.count_nonzero(c1 < r0))
            out[f"p_noma_strong_{tag}"] = int(np.count_nonzero(c2 < r0))
        return out

    # SNRs, rates, and the shares of both endpoints, mid and a fixed policy
    return _sweep(config, "pair_iid", (2,), kernel, workers, 8)


def noma_outage_empirical(params: SystemParams, a_policy, trials: int,
                          seed: int, workers: int | None = None,
                          ) -> tuple[SimResult, SimResult]:
    """Monte Carlo outage frequencies (weak, strong) under any share policy.

    Deterministic given (params, trials, seed); policies share draws, so
    policy comparisons at one seed are paired.
    """
    config = SimConfig(trials=trials, seed=seed, xi_grid=(params.xi,),
                       beta=params.beta, r0=params.r0, a_policy=a_policy,
                       scenario="pair_iid")
    m = run_outage(config, workers=workers)[0].measures
    tag = _POLICY_TAGS.get(a_policy, "fixed")
    return m[f"p_noma_weak_{tag}"], m[f"p_noma_strong_{tag}"]


def run_pairing(config: SimConfig, workers: int | None = None) -> list:
    """Min/max-pairing capacities over (xi, K): OMA (``c_min_oma``,
    ``c_max_oma``, ``s_oma``) and, per policy tag, ``c_min_<tag>``,
    ``c_max_<tag>``, ``s_<tag>`` and the paired per-draw sum-rate gain
    ``ds_<tag>`` for the two fair endpoints and a fixed-share benchmark.

    The fixed share is ``a_policy`` when it is numeric, else 1/5.
    """
    k_grid = config.k_grid if config.k_grid is not None else (config.k_users,)
    if any(k < 2 for k in k_grid):
        raise DomainError("pair_minmax requires at least 2 users per point")
    fixed_share = (float(config.a_policy)
                   if isinstance(config.a_policy, (int, float)) else 0.2)

    def kernel(blocks: Iterator, xi: float, scratch: list) -> dict:
        w1, w2 = _pair_snrs(blocks, xi, config.beta, scratch[:2])
        return _rate_moments(w1, w2, (fixed_share,), "c_min", "c_max", "",
                             scratch[2:])

    return _sweep(config, "pair_minmax", k_grid, kernel, workers,
                  _PAIR_SCRATCH)


def run_multiuser_power(config: SimConfig, workers: int | None = None) -> list:
    """Per-xi mean of the minimum total NOMA power share that matches OMA
    for every one of K users (measure ``sum_b``)."""
    k = config.k_users

    def kernel(blocks: Iterator, xi: float, scratch: list) -> dict:
        for rows, u in blocks:
            g = _gains(u, config.beta, out=u)
            g.sort(axis=1)
            np.multiply(xi, g, out=g)
            _min_power_total(g, k, [v[rows] for v in scratch])
        return {"sum_b": _moment(scratch[0])}

    # the three vectors of _min_power_total
    return _sweep(config, "multiuser", (k,), kernel, workers, 3)

