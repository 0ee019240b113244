"""Deterministic Monte Carlo engine for every expectation and probability in
the package.

``simulate`` is the one entry point, and ``SimConfig.scenario`` is the one
statement of which users a trial draws, so it alone picks the kernel:
'pair_iid' is a random pair of two i.i.d. users and 'pair_minmax' the
weakest and strongest of K, both served by one pair kernel; 'multiuser' is
all K users in gain order. A sweep splits the trials into fixed 65536-draw
chunks, and chunk ``ci`` draws its uniforms once from
``PCG64DXSM(SeedSequence((seed, scenario_id, ci)))``; ``_substream`` is the
one place that names the generator. Neither xi nor K is in the key: the
chunk's gains serve every grid point (xi, and K from ``k_grid``). So each
trial's channel realization is a pure function of the configuration and
its own index, and re-running a subset of the grid reproduces that subset's
rows. SeedSequence's hashing makes the substreams independent, so the
generator need not be counter-based: PCG64DXSM draws a uniform in about
half the time Philox takes. This is stream version 4 (``STREAM_VERSION``),
which the CLI records in its manifest; ``multiuser --random`` draws its K
gains as the single trial of chunk 0 of the 'multiuser' substream, so they
do not depend on its ``--xi``.

The grid points of a sweep are common random numbers: every point is
evaluated on the same draws. Each point's estimate and standard error are
what independent draws would give, in law; but the errors of different
points are correlated, so a curve is smooth and its points do not scatter
independently around the truth.

A kernel never draws the K gains of a pool; it draws the order statistics
it needs directly, by Renyi's representation of exponential order
statistics: the minimum of K i.i.d. Exp(beta) gains is Exp(beta/K), and
the gaps between successive ones are independent, the i-th (from 0)
Exp(beta/(K-i)). The pair kernels take two uniforms per trial, whatever K
is: the minimum ``-(beta/K)*log1p(-u1)``, and the maximum as the minimum
plus the largest of K-1 i.i.d. Exp(beta) gaps, by its inverse CDF
``-beta*log(-expm1(log(u2)/(K-1)))``, which stays exact for ``u2`` near 1
at any K; at K = 2 that gap is a plain Exp(beta) gain, drawn by the same
inverse CDF as the minimum. A K grid shares the two uniforms: a chunk keeps
``log1p(-u1)`` and ``log(u2)``, and each K applies its own scale and root.
The K-user kernel draws the K gaps of each trial into a K-major (K, n)
array and adds the rows up in place, so its gains come out ascending.

Each kernel returns partial sums, and the driver combines them in chunk
order with ``math.fsum``, which is exactly rounded: results are
bit-identical under any worker count. Second moments are ``einsum`` loops,
not BLAS dot products, so standard errors do not depend on the machine's
BLAS thread pool either, and no BLAS threads compete with the workers.
The task is the chunk: it draws the chunk's gains once, then loops over the
grid, K-major, and returns one partial per point. Workers are the threads
of one pool per sweep, clamped to the chunk count and the CPU count, so a
run of at most 65536 trials runs on one thread whatever its grid.

A chunk allocates no large arrays. Each sweep gives every worker a
workspace of chunk-length vectors, which the sampler draws into with
``Generator.random(out=...)`` and the kernels overwrite; the rows holding
the draws are kept while the chunk's grid points are evaluated. Workspaces
wait in a queue between chunks, so any thread may run any chunk with any
free workspace, and all are dropped when the sweep returns. Fresh
half-megabyte temporaries would each be mapped, zero-filled by the kernel
and unmapped again. The K-user recursion runs over column blocks of the
chunk, so a workspace holds K + 3 vectors, as many as it would without the
kept draws.

No bit depends on where a value sits: an elementwise ufunc rounds each
element alike in a chunk, a row, a block or a one-element array. Each
point writes ``xi * g`` into scratch, as the scalar API does, so the
per-draw physics (the fair share bound, the OMA and NOMA rates, the
minimum-power recursion) is the array code of ``twouser`` and ``multiuser``
that the scalar API runs too, and each draw's values equal the scalar API's
at its gains bit for bit. Every measure is reduced by one ``np.sum`` and
one ``einsum`` over its full chunk, and a buffer is overwritten only after
its moments are taken.

Outage is counted in the SINR domain, with no rate computed per draw: an
OMA user is in outage when its SNR ``w < 4**r0 - 1`` (a half share), a
NOMA user when its SINR is ``< 2**r0 - 1``, both strict, against the
thresholds of ``twouser._rate_threshold``, the doubles the closed forms in
``outage`` use too. In exact arithmetic this is the test ``C < r0``; in
doubles the two could differ only for a draw within a few ulps of the
threshold.

The power share is deliberately absent from the stream key, and the pair
kernel evaluates every share it reports on the same draws (common random
numbers), capacities and outage counts alike. Measures carry the share as a
tag: ``ainf`` and ``asup`` for the two fair endpoints, ``mid`` for their
average, and ``fixed`` for ``SimConfig.fixed_share`` when it is set, as in
``c1_noma_ainf``, ``ds_asup`` or ``p_noma_weak_mid``. Paired differences
between shares, or against OMA, therefore have far less variance than
independent runs would give.

``simulate`` computes only the measures in its ``measures`` set (all if
None), and a share, rate or SINR vector only if one of those needs it, by
the same operations on the same draws whatever else is asked for. A boundary
identity, such as ``c2_noma_ainf`` (``c2_oma`` in exact arithmetic), stays
a computed value, never a copy of the OMA vector.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (DomainError, _require_int, _require_positive,
                     _require_rate, _require_real)
from .multiuser import _min_power_total
from .twouser import (_oma_rate, _rate_threshold, _share_bound, _strong_rate,
                      _weak_rate, _weak_sinr)

#: trials per substream chunk; fixed so parallel partitioning cannot move
#: draws between substreams
CHUNK_TRIALS = 1 << 16

#: version of the map from a configuration to its draws: the substream key
#: and the samplers; any change to either moves figure bytes and bumps it
STREAM_VERSION = 4

_SCENARIO_IDS = {"pair_iid": 1, "pair_minmax": 2, "multiuser": 3}


def _require_grid(name: str, values, require: Callable) -> tuple:
    """``values`` as a tuple of ``require``'s results, or DomainError unless
    it is non-empty and strictly increasing."""
    grid = tuple(require(f"{name} entries", v) for v in values)
    if not grid:
        raise DomainError(f"{name} must be non-empty")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{name} must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SimConfig:
    """Experiment description; everything that can influence a result.

    ``scenario`` picks the users of a trial, the substreams they are drawn
    from and the measures ``simulate`` reports: 'pair_iid' (two i.i.d.
    users, so ``k_grid`` is (2,)), 'pair_minmax' (the weakest and strongest
    of K >= 2, for each K of ``k_grid``) and 'multiuser' (all K users, for
    the single K of ``k_grid``). ``k_grid`` holds strictly increasing pool
    sizes. A pair sweep always reports both fair endpoints and their
    average (tags ``ainf``, ``asup`` and ``mid``); ``fixed_share``, a number
    in (0, 1) or None, adds the tag ``fixed`` for that strong-user share.
    """

    trials: int
    seed: int
    xi_grid: tuple
    beta: float = 1.0
    r0: float = 0.0
    fixed_share: float | None = None
    scenario: str = "pair_iid"
    k_grid: tuple = (2,)

    def __post_init__(self):
        # stored as checked, so no threshold is computed in float32
        checked = {
            "trials": _require_int("trials", self.trials),
            "seed": _require_int("seed", self.seed, 0, 2 ** 64),
            "xi_grid": _require_grid("xi_grid", self.xi_grid,
                                     _require_positive),
            "beta": _require_positive("beta", self.beta),
            "r0": _require_rate("r0", self.r0),
        }
        if self.fixed_share is not None:
            share = checked["fixed_share"] = _require_real("fixed_share",
                                                           self.fixed_share)
            # NaN and the infinities fail the interval test too
            if not 0.0 < share < 1.0:
                raise DomainError(f"fixed_share must be a number in (0, 1),"
                                  f" got {self.fixed_share!r}")
        if self.scenario not in _SCENARIO_IDS:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        k_grid = checked["k_grid"] = _require_grid("k_grid", self.k_grid,
                                                   _require_int)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        # a K the scenario would ignore is an error, not a no-op
        if self.scenario == "pair_iid" and k_grid != (2,):
            raise DomainError(
                f"scenario 'pair_iid' has 2 users, got k_grid={k_grid}")
        if self.scenario == "multiuser" and len(k_grid) != 1:
            raise DomainError(
                f"scenario 'multiuser' takes a single K, got k_grid={k_grid}")
        if self.scenario == "pair_minmax" and k_grid[0] < 2:
            raise DomainError("pair_minmax requires at least 2 users per point")


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

def _map_chunks(fn: Callable[[int], dict], n_tasks: int,
                workers: int | None) -> list:
    """``[fn(0), ..., fn(n_tasks - 1)]``, on one pool of at most ``workers``
    threads but never more threads than tasks or than CPUs this process may
    run on; a plain loop when that leaves one thread. A task that raises, or
    an interrupt, cancels the tasks not yet started instead of waiting for
    the rest of the sweep."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers or 1, n_tasks, cpus)
    if workers <= 1:
        return [fn(i) for i in range(n_tasks)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, range(n_tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


def _substream(key: tuple) -> np.random.Generator:
    """The generator of the substream ``key``, ``(seed, scenario_id, ci)``
    for chunk ``ci``: the one place the stream names its bit generator."""
    return np.random.Generator(
        np.random.PCG64DXSM(np.random.SeedSequence(key)))


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


def _sweep(config: SimConfig,
           draw: Callable[[np.random.Generator, np.ndarray, int], Iterator],
           kernel: Callable[[np.ndarray, float, int, np.ndarray], dict],
           workers: int | None, n_scratch: int) -> list:
    """One GridPoint per (xi, K) point of ``config``, xi-major. Each chunk
    is one task: ``draw(rng, ws, n)`` draws the chunk's n trials from
    ``rng`` once and yields ``(k, gains)`` for each K of ``config.k_grid``
    in order, and ``kernel(gains, xi, k, ws)`` maps those gains at one xi to
    partial sums (``_moment`` pairs or integer counts), which are reduced
    per point in chunk order. ``ws`` is an (n_scratch, CHUNK_TRIALS)
    workspace that both may overwrite, reused by later chunks; n columns of
    each row are the chunk's. The chunk tasks run on one pool of at most
    ``workers`` threads, clamped to the chunk count and the CPU count."""
    if workers is not None:
        _require_int("workers", workers)
    n_chunks = (config.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    # no grid value in the key: every point sees the same draws, so a
    # point's rows do not depend on which other points the grid holds
    key = (config.seed, _SCENARIO_IDS[config.scenario])
    grid = [(xi, k) for xi in config.xi_grid for k in config.k_grid]
    n_k = len(config.k_grid)
    # idle workspaces; a task that finds none makes one, so there are never
    # more workspaces than threads
    free = queue.SimpleQueue()

    def task(ci: int) -> list:
        try:
            ws = free.get_nowait()
        except queue.Empty:
            # one allocation: from 4 MB on, numpy advises huge pages for it,
            # so its first touch takes far fewer page faults
            ws = np.empty((n_scratch, CHUNK_TRIALS))
        try:
            n = min(CHUNK_TRIALS, config.trials - ci * CHUNK_TRIALS)
            parts = [None] * len(grid)
            rng = _substream(key + (ci,))
            for j, (k, gains) in enumerate(draw(rng, ws, n)):
                for i, xi in enumerate(config.xi_grid):
                    parts[i * n_k + j] = kernel(gains, xi, k, ws)
            return parts
        finally:
            free.put(ws)

    parts = _map_chunks(task, n_chunks, workers)
    return [GridPoint(xi=xi, k=k,
                      measures=_reduce([chunk[p] for chunk in parts],
                                       config.trials, config.seed))
            for p, (xi, k) in enumerate(grid)]


# ---------------------------------------------------------------------------
# draws, order statistics and shares; the per-draw physics is twouser's and
# multiuser's

def _gains(u: np.ndarray, scale: float,
           out: np.ndarray | None = None) -> np.ndarray:
    """Exp(scale) gains ``-scale * log1p(-u)`` from uniforms on [0, 1) by the
    inverse CDF."""
    g = np.negative(u, out=out)
    np.log1p(g, out=g)
    return np.multiply(-scale, g, out=g)


def _minmax_gains(rng: np.random.Generator, k_grid: tuple, beta: float,
                  base: np.ndarray, out: np.ndarray) -> Iterator:
    """Yield ``(k, out)`` for each k of the ascending ``k_grid`` (each
    k >= 2), ``out`` a (2, n) array holding (min, max) of k i.i.d.
    Exp(beta) gains per trial, every K from one draw of two uniforms per
    trial into the (2, n) array ``base``, which may be ``out`` itself when
    ``k_grid`` holds one K. The minimum is Exp(beta/k), ``-(beta/k) *
    log1p(-u1)``; the maximum is the minimum plus the largest of k-1 i.i.d.
    Exp(beta) gaps, whose CDF ``(1 - exp(-x/beta))**(k-1)`` is inverted
    through expm1 and ``log(u2)`` so that uniforms near 1 keep their tail;
    at k = 2 the one gap is Exp(beta), drawn from ``u2`` by ``_gains``.
    ``base`` keeps ``log1p(-u1)`` and ``u2``, which the first k > 2
    replaces by ``log(u2)``: k = 2, if present, comes first."""
    u1, u2 = base
    lo, hi = out
    rng.random(out=u1)
    rng.random(out=u2)
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    logged = False
    for k in k_grid:
        np.multiply(-(beta / k), u1, out=lo)
        if k == 2:
            _gains(u2, beta, out=hi)
            np.add(lo, hi, out=hi)
        else:
            if not logged:
                # a uniform of 0 is the bottom of the inverse CDF: log(0) =
                # -inf, then expm1 gives -1 and the gap is exactly 0
                with np.errstate(divide="ignore"):
                    np.log(u2, out=u2)
                logged = True
            np.divide(u2, k - 1, out=hi)
            np.expm1(hi, out=hi)
            np.negative(hi, out=hi)
            np.log(hi, out=hi)
            np.multiply(beta, hi, out=hi)
            np.subtract(lo, hi, out=hi)
        yield k, out


def _ordered_gains(rng: np.random.Generator, beta: float,
                   g: np.ndarray) -> np.ndarray:
    """Ascending gains of K i.i.d. Exp(beta) users per trial, drawn into the
    K-major (K, n) array ``g``: row i first holds the i-th gap,
    Exp(beta/(K-i)), then the running sum of rows 0..i."""
    k = len(g)
    for i, row in enumerate(g):
        rng.random(out=row)
        _gains(row, beta / (k - i), out=row)
    # row by row: np.cumsum(axis=0) takes about 15 times as long here
    for prev, row in zip(g, g[1:]):
        np.add(prev, row, out=row)
    return g


def _pair_sweep(config: SimConfig,
                kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], dict],
                n_kernel: int, workers: int | None) -> list:
    """``_sweep`` for the pair kernel: ``kernel(w1, w2, scratch)`` maps the
    weak and strong SNRs of a chunk at one grid point to partial sums,
    ``scratch`` being ``n_kernel`` vectors it may overwrite. The workspace
    rows are the chunk's uniforms, then the gains of the current K if the
    grid has several K (else the uniforms' rows), then w1 and w2 if it has
    several xi (else the gains' rows, scaled in place), then the kernel's."""
    gain_row = 2 if len(config.k_grid) > 1 else 0
    snr_row = gain_row + 2 if len(config.xi_grid) > 1 else gain_row

    def draw(rng, ws, n):
        return _minmax_gains(rng, config.k_grid, config.beta, ws[:2, :n],
                             ws[gain_row:gain_row + 2, :n])

    def point(gains, xi: float, k: int, ws: np.ndarray) -> dict:
        rows = ws[snr_row:, :gains.shape[1]]
        # the instantaneous SNRs xi * g of (min, max)
        w1, w2 = np.multiply(xi, gains, out=rows[:2])
        return kernel(w1, w2, rows[2:])

    return _sweep(config, draw, point, workers, snr_row + 2 + n_kernel)


def _select(measures, common: tuple, tags: tuple, per_tag: tuple) -> tuple:
    """(names, tags) a kernel computes: ``measures``, or if it is None every
    name it produces (``common``, then ``<m>_<tag>`` for each m in
    ``per_tag`` per tag of ``tags``, the share tags it reports), and the
    tags they carry."""
    produced = common + tuple(f"{m}_{tag}" for tag in tags for m in per_tag)
    want = frozenset(produced if measures is None else measures)
    if not want or not want <= set(produced):
        raise DomainError(f"measures must be a non-empty set of names from"
                          f" {list(produced)}, got {sorted(want, key=str)}")
    return want, tuple(tag for tag in tags
                       if any(f"{m}_{tag}" in want for m in per_tag))


def _shares(w1: np.ndarray, w2: np.ndarray, tags, fixed,
            bufs: Iterator) -> dict:
    """Strong user's power share for each share tag in ``tags``: per draw,
    each written into the next vector of ``bufs``, for the two fair
    endpoints (both also for 'mid', their average ``0.5 * (ainf + asup)``);
    and for 'fixed' the number ``fixed`` itself, which every ufunc
    broadcasts to the draws with the same bits as a filled vector."""
    shares = {}
    for tag, w in (("ainf", w2), ("asup", w1)):
        if tag in tags or "mid" in tags:
            shares[tag] = _share_bound(w, next(bufs))
    if "mid" in tags:
        mid = np.add(shares["ainf"], shares["asup"], out=next(bufs))
        shares["mid"] = np.multiply(0.5, mid, out=mid)
    if "fixed" in tags:
        shares["fixed"] = fixed
    return shares


def _pair_measures(w1: np.ndarray, w2: np.ndarray, tags: tuple, fixed,
                   thresholds: tuple, want: frozenset,
                   scratch: np.ndarray) -> dict:
    """Partial sums of the measures in ``want`` for a chunk of weak and
    strong SNRs ``w1`` and ``w2``: ``_moment`` pairs of the capacities and
    integer counts of the outages. Each vector is computed only if one of
    those needs it. ``thresholds`` are the OMA and NOMA SINR thresholds of
    r0. ``scratch`` holds two rate or SINR vectors, the share vectors of
    ``_shares``, then two sum vectors only if ``want`` holds a sum (``s_*``
    or ``ds_*``)."""
    o_thresh, n_thresh = thresholds
    c1, c2 = scratch[:2]
    bufs = iter(scratch[2:])
    shares = _shares(w1, w2, tags, fixed, bufs)
    s_o, s = next(bufs, None), next(bufs, None)
    out = {}

    def keep(name: str, v: np.ndarray) -> None:
        if name in want:
            out[name] = _moment(v)

    def count(name: str, threshold: float,
              sinr: Callable[[], np.ndarray]) -> None:
        # at r0 = 0 the threshold is 0.0, and no SNR or SINR lies below it
        out[name] = (int(np.count_nonzero(sinr() < threshold)) if threshold
                     else 0)

    sums = want & {"s_oma", *(f"ds_{tag}" for tag in tags)}
    for name, w, c in (("c1_oma", w1, c1), ("c2_oma", w2, c2)):
        if sums or name in want:
            keep(name, _oma_rate(w, 2, c))
    if sums:
        keep("s_oma", np.add(c1, c2, out=s_o))
    for name, w in (("p_oma_weak", w1), ("p_oma_strong", w2)):
        if name in want:
            count(name, o_thresh, lambda: w)
    for tag in tags:
        a = shares[tag]
        sums = want & {f"s_noma_{tag}", f"ds_{tag}"}
        if sums or f"c1_noma_{tag}" in want:
            keep(f"c1_noma_{tag}", _weak_rate(w1, a, c1, c2))
        if sums or f"c2_noma_{tag}" in want:
            keep(f"c2_noma_{tag}", _strong_rate(w2, a, out=c2))
        if sums:
            keep(f"s_noma_{tag}", np.add(c1, c2, out=s))
        if f"ds_{tag}" in want:
            out[f"ds_{tag}"] = _moment(np.subtract(s, s_o, out=c1))
        if f"p_noma_weak_{tag}" in want:
            count(f"p_noma_weak_{tag}", n_thresh,
                  lambda: _weak_sinr(w1, a, c1, c2))
        if f"p_noma_strong_{tag}" in want:
            # after SIC the strong user's SINR is a * w2
            count(f"p_noma_strong_{tag}", n_thresh,
                  lambda: np.multiply(a, w2, out=c2))
    return out


def _multiuser_power(config: SimConfig, workers: int | None,
                     measures) -> list:
    """``simulate`` for scenario 'multiuser'."""
    _select(measures, ("sum_b",), (), ())
    k = config.k_grid[0]
    # the widest block whose K + 2 vectors fit in two chunk rows: each numpy
    # call releases the interpreter lock, and narrower blocks, with more
    # calls, measured slower on two workers than on one
    block = 2 * CHUNK_TRIALS // (k + 2)

    def draw(rng, ws, n):
        yield k, _ordered_gains(rng, config.beta, ws[:k, :n])

    def point(g: np.ndarray, xi: float, k: int, ws: np.ndarray) -> dict:
        n = g.shape[1]
        total = ws[k, :n]
        # rows k + 1 and k + 2 are contiguous: a block's K SNR vectors and
        # the recursion's two others
        area = ws[k + 1:k + 3].reshape(-1)
        w = area[:k * block].reshape(k, block)
        root, term = area[k * block:(k + 2) * block].reshape(2, block)
        for c0 in range(0, n, block):
            m = min(block, n - c0)
            wb = np.multiply(xi, g[:, c0:c0 + m], out=w[:, :m])
            # the transpose's columns are the rows of wb
            _min_power_total(wb.T, k, (total[c0:c0 + m], root[:m], term[:m]))
        return {"sum_b": _moment(total)}

    # the K gains, the total, and two rows for the blocks
    return _sweep(config, draw, point, workers, k + 3)


# ---------------------------------------------------------------------------
# entry point

def simulate(config: SimConfig, workers: int | None = None,
             measures=None) -> list:
    """One GridPoint per (xi, K) point of ``config``, xi-major, holding a
    SimResult per measure; ``measures``, a set of the names the scenario
    produces, limits the result to them. At most ``workers`` threads run.

    The pair scenarios report the weak and the strong user's capacities:
    OMA (``c1_oma``, ``c2_oma``, ``s_oma``) and, per share tag,
    ``c1_noma_<tag>``, ``c2_noma_<tag>``, ``s_noma_<tag>`` and the paired
    per-draw sum-rate gain ``ds_<tag>``; and their outage frequencies below
    ``r0``: ``p_oma_weak``, ``p_oma_strong`` and, per share tag,
    ``p_noma_weak_<tag>`` and ``p_noma_strong_<tag>``. The tags are
    ``ainf``, ``asup``, ``mid`` and, if ``fixed_share`` is set, ``fixed``.
    The region endpoints that matter are the weak user at ``ainf`` and the
    strong one at ``asup``; the other two are boundary identities.

    'multiuser' reports ``sum_b``, the minimum total NOMA power share that
    matches OMA for every one of the K users.
    """
    if config.scenario == "multiuser":
        return _multiuser_power(config, workers, measures)
    fixed = () if config.fixed_share is None else ("fixed",)
    want, tags = _select(
        measures, ("c1_oma", "c2_oma", "s_oma", "p_oma_weak", "p_oma_strong"),
        ("ainf", "asup", "mid") + fixed,
        ("c1_noma", "c2_noma", "s_noma", "ds", "p_noma_weak", "p_noma_strong"))
    # at k = 2 first, which refuses an r0 whose thresholds overflow
    thresholds = (_rate_threshold(config.r0), _rate_threshold(config.r0, 1))

    def kernel(w1: np.ndarray, w2: np.ndarray, scratch: np.ndarray) -> dict:
        return _pair_measures(w1, w2, tags, config.fixed_share, thresholds,
                              want, scratch)

    # only the vectors _pair_measures touches: a workspace row never written
    # can still cost resident memory where it shares a huge page; 'mid'
    # needs both endpoints, and 'fixed' is a number, not a vector
    n_shares = len(set(tags).union(("ainf", "asup") if "mid" in tags else ())
                   - {"fixed"})
    sums = any(name.startswith(("s_", "ds_")) for name in want)
    return _pair_sweep(config, kernel, 2 + n_shares + 2 * sums, workers)
