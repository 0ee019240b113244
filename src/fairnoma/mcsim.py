"""Deterministic Monte Carlo engine for every expectation and probability in
the package.

``simulate`` is the one entry point, and ``SimConfig.scenario`` is the one
statement of which users a trial draws, so it alone picks the plan:
'pair_iid' is a random pair of two i.i.d. users and 'pair_minmax' the
weakest and strongest of K, both planned by ``_pair_plan``; 'multiuser' is
all K users in gain order, planned by ``_multiuser_plan``. A plan returns
what the one sweep driver ``_sweep`` runs: the chunk's draw, the kernel of
a grid point, the workspace size and the unit of each moment. A sweep
splits the trials into fixed 65536-draw
chunks, and chunk ``ci`` draws its uniforms once from
``PCG64DXSM(SeedSequence((seed, scenario_id, ci)))``; ``_substream`` is the
one place that builds this key and its generator. Neither xi nor K is in
the key: the chunk's gains serve every grid point (xi, and K from
``k_grid``). So each trial's channel realization is a pure function of the
configuration and its own index, and re-running a subset of the grid
reproduces that subset's rows. SeedSequence's hashing makes the substreams
independent, so the generator need not be counter-based: PCG64DXSM draws a
uniform in about half the time Philox takes. This is stream version 4
(``STREAM_VERSION``), which the CLI records in its manifest; ``multiuser
--random`` draws its K gains as the single trial of chunk 0 of the
'multiuser' substream, so they do not depend on its ``--xi``.

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

Each kernel returns partial sums: integer counts, and for every moment
one (sum, sum of squares) pair per block of ``BLOCK_TRIALS`` trials, the
squares summed by ``np.sum``, numpy's own loop, not a BLAS dot product.
The driver combines the pairs of every (chunk, block) in order with
``math.fsum``, which is exactly rounded: results are bit-identical under
any worker count, standard errors do not depend on the machine's BLAS
thread pool, and no BLAS threads compete with the workers. The task is the
chunk: it draws the chunk's gains once, then loops over the grid, K-major,
and returns one partial per point. Workers are the threads of one pool per
sweep, clamped to the chunk count and the CPU count, so a run of at most
65536 trials runs on one thread whatever its grid.

A chunk allocates no large arrays. Each sweep makes one workspace per
worker thread, all in one allocation by the calling thread, and the kernels
overwrite it. A pair workspace holds the chunk's uniforms and, when the
grid has several K, the gains of the current K: its only chunk-length
vectors, kept while the chunk's grid points are evaluated. On one thread,
each point runs over blocks of ``BLOCK_TRIALS`` trials, and a block's SNRs,
squares, shares, rates and sums go into one small contiguous region of the
workspace, at most ten vectors of 128 KB, which stays in a core's L2 cache
from one numpy pass to the next; the same vectors a chunk long would not
fit, and every pass would stream them from L3. On several threads each
point runs over the whole chunk instead: every numpy call passes the
interpreter lock, and four times as many calls cost the threads more in
waiting for it than the cache saves. The moments are taken per block
either way, and ``_moments`` gives a block the same bits in both, so the
thread count moves no bit. Workspaces wait in a queue between chunks, so
any thread may run any chunk with any free workspace, and all are dropped
when the sweep returns. Fresh half-megabyte temporaries would each be
mapped, zero-filled by the kernel and unmapped again. The K-user kernel
runs its recursion over whole chunk rows, one user at a time, strongest
first: one row receives each user's SNR ``xi * g`` just before that user's
step, which overwrites it with the user's share. Its workspace holds K + 4
chunk-length vectors (the K gains, that row, the total and two
temporaries, one of which takes the total's squares). Each point makes
about 9K numpy calls per chunk, each over the whole chunk: every call
passes the interpreter lock, and a few long calls let several threads
overlap where many short ones would queue.

No bit depends on where a value sits: an elementwise ufunc rounds each
element alike in a chunk, a row, a block or a one-element array. Each
point writes ``xi * g`` into scratch, as the scalar API does, so the
per-draw physics (the fair share bound, the OMA and NOMA rates, the
minimum-power recursion) is the array code of ``twouser`` and ``multiuser``
that the scalar API runs too, and each draw's values equal the scalar API's
at its gains bit for bit, the rates in nats, before the scalar API converts
them. The pair kernel takes each capacity's moments in nats, and
``_reduce`` converts them once per point: the sum divided by ln 2, or by
2 ln 2 for an OMA user's half share, and the sum of squares by the square
of that. A buffer is overwritten only after its moments are taken.

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
the same operations on the same draws whatever else is asked for;
``_pair_plan`` decides this once per sweep, with the units and the
workspace's rows and span. A boundary
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
from .specfun import _LN2
from .twouser import (_oma_rate, _rate_threshold, _share_bound, _strong_rate,
                      _weak_rate, _weak_sinr)

#: trials per substream chunk; fixed so parallel partitioning cannot move
#: draws between substreams
CHUNK_TRIALS = 1 << 16

#: trials per moment block; one thread runs the pair kernel block by block,
#: as a block's vectors, at most ten, fit in a core's L2 cache
BLOCK_TRIALS = 1 << 14

#: version of the map from a configuration to its draws: the substream key
#: and the samplers; any change to either moves figure bytes and bumps it
STREAM_VERSION = 4

_SCENARIO_IDS = {"pair_iid": 1, "pair_minmax": 2, "multiuser": 3}

# the per-tag measures of the pair scenarios
_PER_TAG = ("c1_noma", "c2_noma", "s_noma", "ds", "p_noma_weak",
            "p_noma_strong")


def _require_grid(name: str, values, require: Callable) -> tuple:
    """``values`` as a tuple of ``require``'s results, or DomainError unless
    it is non-empty and strictly increasing."""
    grid = tuple(require(f"{name} entries", v) for v in values)
    if not grid:
        raise DomainError(f"{name} must be non-empty")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{name} must be strictly increasing,"
                          f" got {list(values)}")
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
        # a K, r0 or share the scenario would ignore is an error, not a no-op
        if self.scenario == "pair_iid" and k_grid != (2,):
            raise DomainError(
                f"scenario 'pair_iid' has 2 users, got k_grid={k_grid}")
        if self.scenario == "multiuser" and (len(k_grid) != 1 or self.r0
                                             or self.fixed_share is not None):
            raise DomainError(
                f"scenario 'multiuser' takes a single K and no r0 or"
                f" fixed_share, got k_grid={k_grid}, r0={self.r0!r},"
                f" fixed_share={self.fixed_share!r}")
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

def _chunks(trials: int) -> int:
    """The number of chunks of ``trials`` trials."""
    return (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS


def _threads(n_tasks: int, workers: int | None) -> int:
    """The threads ``_map_chunks`` runs ``n_tasks`` tasks on: at most
    ``workers`` (None for one; DomainError for a count below 1), and never
    more than tasks or than CPUs this process may run on."""
    if workers is not None:
        _require_int("workers", workers)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(workers or 1, n_tasks, cpus)


def _map_chunks(fn: Callable[[int], dict], n_tasks: int,
                workers: int | None) -> list:
    """``[fn(0), ..., fn(n_tasks - 1)]``, on one pool of at most ``workers``
    threads but never more threads than tasks or than CPUs this process may
    run on; a plain loop when that leaves one thread. A task that raises, or
    an interrupt, cancels the tasks not yet started instead of waiting for
    the rest of the sweep."""
    workers = _threads(n_tasks, workers)
    if workers <= 1:
        return [fn(i) for i in range(n_tasks)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, range(n_tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


def _substream(seed: int, scenario: str, ci: int) -> np.random.Generator:
    """The generator of chunk ``ci`` of ``scenario``'s substream, keyed
    ``(seed, scenario_id, ci)``: the one place the stream builds its key and
    names its bit generator."""
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence((seed, _SCENARIO_IDS[scenario], ci))))


def _moments(v: np.ndarray, tmp: np.ndarray) -> list:
    """``(sum, sum of squares)`` of each block of ``BLOCK_TRIALS`` trials of
    ``v``, in order, the squares written into ``tmp``. ``np.sum`` along the
    rows of a 2-D array sums each row as it sums that row alone, bit for
    bit, so a vector of one block and one of several give the same pairs,
    in three numpy calls (two more for a partial last block); einsum's loop
    over the rows of a 2-D array rounds them otherwise than over one row,
    so the squares are summed by ``np.sum`` too."""
    n = len(v)
    squares = np.square(v, out=tmp[:n])
    full = n - n % BLOCK_TRIALS
    parts = [np.sum(x[:full].reshape(-1, BLOCK_TRIALS), axis=1).tolist()
             for x in (v, squares)]
    if full < n:
        for part, x in zip(parts, (v, squares)):
            part.append(float(np.sum(x[full:])))
    return list(zip(*parts))


def _reduce(parts: list, trials: int, seed: int, xi: float, k: int,
            units: dict) -> dict:
    """Combine per-chunk partials (in chunk order) of the point (xi, k) into
    SimResults. A partial is an integer count or a moment: one (sum, sum of
    squares) pair per block, from ``_moments``. The pairs of every chunk are
    combined in order by ``math.fsum``, and ``units[name]`` converts them
    once, dividing the sum by it and the sum of squares by its square;
    DomainError if either is not finite."""
    measures = {}
    for name in parts[0]:
        first = parts[0][name]
        if isinstance(first, int):
            count = sum(p[name] for p in parts)
            p_hat = count / trials
            se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
            measures[name] = SimResult(p_hat, se, trials, seed)
        else:
            unit = units[name]
            total = math.fsum(m[0] for p in parts for m in p[name]) / unit
            total_sq = (math.fsum(m[1] for p in parts for m in p[name])
                        / (unit * unit))
            if not (math.isfinite(total) and math.isfinite(total_sq)):
                raise DomainError(f"Monte Carlo {name} is not finite at"
                                  f" xi = {xi!r}, K = {k}: xi times a drawn"
                                  f" gain overflows a double")
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
           kernel: Callable[[np.ndarray, float, np.ndarray], dict],
           ws_size: int, units: dict, threads: int) -> list:
    """One GridPoint per (xi, K) point of ``config``, xi-major. Each chunk
    is one task: ``draw(rng, ws, n)`` draws the chunk's n trials from
    ``rng`` once and yields its gains for each K of ``config.k_grid`` in
    order, and ``kernel(gains, xi, ws)`` maps those gains at one xi to
    partials (lists of (sum, sum of squares) pairs, or integer counts),
    which are reduced per point in chunk order, each moment in ``units``.
    ``ws`` is a workspace of ``ws_size`` doubles that both may overwrite,
    reused by later chunks. The chunk tasks run on one pool of ``threads``
    threads, from ``_threads``."""
    n_chunks = _chunks(config.trials)
    grid = [(xi, k) for xi in config.xi_grid for k in config.k_grid]
    n_k = len(config.k_grid)
    # one workspace per thread, all in one allocation by this thread, whose
    # memory the next sweep's allocation reuses whatever the two sizes;
    # allocated by the worker threads, workspaces smaller than an earlier
    # sweep's were kept in those threads' heaps, resident beside the next
    # sweep's (figure 3's beside figure 6's, with glibc). From 4 MB on,
    # numpy advises huge pages for it, so its first touch takes far fewer
    # page faults. Idle workspaces wait in a queue, so a task always finds
    # one.
    free = queue.SimpleQueue()
    for ws in np.empty((threads, ws_size)):
        free.put(ws)

    def task(ci: int) -> list:
        ws = free.get()
        try:
            n = min(CHUNK_TRIALS, config.trials - ci * CHUNK_TRIALS)
            parts = [None] * len(grid)
            # no grid value in the key: a point's rows do not depend on
            # which other points the grid holds
            rng = _substream(config.seed, config.scenario, ci)
            for j, gains in enumerate(draw(rng, ws, n)):
                for i, xi in enumerate(config.xi_grid):
                    parts[i * n_k + j] = kernel(gains, xi, ws)
            return parts
        finally:
            free.put(ws)

    parts = _map_chunks(task, n_chunks, threads)
    return [GridPoint(xi=xi, k=k,
                      measures=_reduce([chunk[p] for chunk in parts],
                                       config.trials, config.seed, xi, k,
                                       units))
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
    """Yield ``out`` for each k of the ascending ``k_grid`` (each k >= 2),
    a (2, n) array holding (min, max) of k i.i.d. Exp(beta) gains per
    trial, every K from one draw of two uniforms per trial into the (2, n)
    array ``base``, which may be ``out`` itself when ``k_grid`` holds one
    K. The minimum is Exp(beta/k), ``-(beta/k) *
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
        yield out


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


def _select(measures, produced: tuple) -> tuple:
    """The names of ``produced`` that ``measures`` asks for (all if it is
    None), in ``produced``'s order; DomainError unless ``measures`` is a
    non-empty set of them."""
    asked = frozenset(produced if measures is None else measures)
    if not asked or not asked <= set(produced):
        raise DomainError(f"measures must be a non-empty set of names from"
                          f" {list(produced)}, got {sorted(asked, key=str)}")
    return tuple(name for name in produced if name in asked)


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


# ---------------------------------------------------------------------------
# one plan per scenario

def _pair_plan(config: SimConfig, measures, threads: int) -> tuple:
    """The plan of the pair scenarios. Per point, each span of weak and
    strong SNRs ``w1`` and ``w2`` appends the ``_moments`` pairs of each
    capacity in nats to its list, and adds its count of each outage. A
    vector is computed only if an asked measure needs it. At r0 = 0 both
    SINR thresholds are 0.0, nothing lies below them, and nothing is
    counted."""
    fixed = config.fixed_share
    names = [(tag,) + tuple(f"{m}_{tag}" for m in _PER_TAG)
             for tag in ("ainf", "asup", "mid")
             + (() if fixed is None else ("fixed",))]
    want = _select(measures, ("c1_oma", "c2_oma", "s_oma", "p_oma_weak",
                              "p_oma_strong")
                   + tuple(name for row in names for name in row[1:]))
    # only the share tags that an asked measure carries
    names = [row for row in names if any(name in want for name in row[1:])]
    tags = tuple(row[0] for row in names)
    # at k = 2 first, which refuses an r0 whose thresholds overflow
    o_thresh, n_thresh = (_rate_threshold(config.r0),
                          _rate_threshold(config.r0, 1))
    # a sum needs both of its rates, and ds_<tag> both sums
    need = set(want)
    for _, c1, c2, s_n, ds, _, _ in names:
        if s_n in want or ds in want:
            need |= {c1, c2, s_n}
    if "s_oma" in want or any(name.startswith("ds_") for name in want):
        need |= {"c1_oma", "c2_oma", "s_oma"}
    # capacities in b/s/Hz: ln 2 nats per bit, and an OMA user has half the
    # band; the outage frequencies are counts
    units = {name: 2.0 * _LN2 if name in ("c1_oma", "c2_oma") else _LN2
             for name in want if not name.startswith("p_")}
    counted = {name for name in want if name not in units
               and (o_thresh if name.startswith("p_oma") else n_thresh)}
    # one thread evaluates a point over blocks of BLOCK_TRIALS trials, whose
    # vectors stay in L2; several evaluate it over whole chunks, as each
    # numpy call passes the interpreter lock and, with four times as many
    # calls, two threads ran figure 1 slower than one. Moments are taken
    # per block either way, so no bit depends on the choice
    span = BLOCK_TRIALS if threads == 1 else CHUNK_TRIALS
    # the workspace holds the chunk's uniforms, then the gains of the
    # current K if the grid has several K (else the uniforms' rows), each a
    # chunk long; then a span's rows: w1 and w2, the squares, two rate or
    # SINR vectors, and only the share and sum vectors the kernel touches
    # ('mid' needs both endpoints, and 'fixed' is a number, not a vector)
    chunk_rows = 4 if len(config.k_grid) > 1 else 2
    n_shares = len(set(tags).union(("ainf", "asup") if "mid" in tags else ())
                   - {"fixed"})
    sums = any(name.startswith("s_") for name in need)
    span_rows = 5 + n_shares + 2 * sums

    def draw(rng, ws, n):
        rows = ws[:chunk_rows * CHUNK_TRIALS].reshape(chunk_rows, CHUNK_TRIALS)
        return _minmax_gains(rng, config.k_grid, config.beta, rows[:2, :n],
                             rows[-2:, :n])

    def point(gains, xi: float, ws: np.ndarray) -> dict:
        scratch = ws[chunk_rows * CHUNK_TRIALS:].reshape(span_rows, span)
        # the asked measures, each a list of moments or a count
        out = {name: [] if name in units else 0 for name in want}

        def keep(name: str, v: np.ndarray) -> None:
            if name in out:
                out[name].extend(_moments(v, scratch[2]))

        def count(name: str, threshold: float, sinr: np.ndarray) -> None:
            out[name] += int(np.count_nonzero(sinr < threshold))

        n = gains.shape[1]
        for b0 in range(0, n, span):
            m = min(span, n - b0)
            # the instantaneous SNRs xi * g of (min, max)
            w1, w2 = np.multiply(xi, gains[:, b0:b0 + m], out=scratch[:2, :m])
            # row 2 takes the squares of _moments
            c1, c2, *rows = scratch[3:, :m]
            bufs = iter(rows)
            shares = _shares(w1, w2, tags, fixed, bufs)
            s_o, s = next(bufs, None), next(bufs, None)
            for name, w, c in (("c1_oma", w1, c1), ("c2_oma", w2, c2)):
                if name in need:
                    keep(name, _oma_rate(w, c))
            if "s_oma" in need:
                # a half share each, and halving is exact
                np.add(c1, c2, out=s_o)
                keep("s_oma", np.multiply(0.5, s_o, out=s_o))
            for name, w in (("p_oma_weak", w1), ("p_oma_strong", w2)):
                if name in counted:
                    count(name, o_thresh, w)
            for tag, c1_n, c2_n, s_n, ds, p_weak, p_strong in names:
                a = shares[tag]
                if c1_n in need:
                    keep(c1_n, _weak_rate(w1, a, c1, c2))
                if c2_n in need:
                    keep(c2_n, _strong_rate(w2, a, out=c2))
                if s_n in need:
                    keep(s_n, np.add(c1, c2, out=s))
                if ds in out:
                    keep(ds, np.subtract(s, s_o, out=c1))
                if p_weak in counted:
                    count(p_weak, n_thresh, _weak_sinr(w1, a, c1, c2))
                if p_strong in counted:
                    # after SIC the strong user's SINR is a * w2
                    count(p_strong, n_thresh, np.multiply(a, w2, out=c2))
        return out

    return (draw, point, chunk_rows * CHUNK_TRIALS + span_rows * span,
            units)


def _multiuser_plan(config: SimConfig, measures, threads: int) -> tuple:
    """The plan of scenario 'multiuser': all K users of a trial, drawn in
    gain order, and the minimum total power share of each point's draws."""
    _select(measures, ("sum_b",))
    k = config.k_grid[0]

    def draw(rng, ws, n):
        rows = ws.reshape(k + 4, CHUNK_TRIALS)
        yield _ordered_gains(rng, config.beta, rows[:k, :n])

    def point(g: np.ndarray, xi: float, ws: np.ndarray) -> dict:
        # rows k..k+3: the SNR row, the total and the recursion's two others,
        # each a chunk long, so every numpy call spans the whole chunk
        w, total, root, term = ws.reshape(k + 4, CHUNK_TRIALS)[k:, :g.shape[1]]
        # user j's SNR xi * g[j], strongest first, written into w just
        # before its step, which overwrites it with the user's share
        snrs = (np.multiply(xi, row, out=w) for row in g[::-1])
        _min_power_total(snrs, k, (total, root, term))
        return {"sum_b": _moments(total, root)}

    # the K gains and four rows for the recursion
    return draw, point, (k + 4) * CHUNK_TRIALS, {"sum_b": 1.0}


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
    matches OMA for every one of the K users. A moment that is not finite,
    as where xi times a drawn gain overflows, raises DomainError.
    """
    threads = _threads(_chunks(config.trials), workers)
    plan = _multiuser_plan if config.scenario == "multiuser" else _pair_plan
    return _sweep(config, *plan(config, measures, threads), threads)
