"""The three benchmark workloads and the checks on their outputs.

Every workload builds its inputs from the workload seed alone and drives
fairnoma from outside: the figure workloads through ``fairnoma.cli.main``,
``closed_forms`` through the public functions of each module. Functions are
looked up on their module at call time, so the tracer's wrappers apply.

One pass is one unit of user-visible work. ``run_pass`` times it and keeps
its outputs; ``check`` then counts the ops it attempted and those that
failed, outside the timed (and traced) region. An op fails if it raises,
returns a non-finite value or fails a check. A failed check, a missing
output or bytes that differ between passes also make the run incorrect; a
closed form that raises ``QuadratureError`` is a failed op but not a wrong
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import fairnoma.cli
import fairnoma.ergodic
import fairnoma.multiuser
import fairnoma.outage
import fairnoma.pairing
import fairnoma.twouser
from fairnoma.errors import QuadratureError

# Monte Carlo columns must sit within Z standard errors of the closed forms.
_Z = 6.0
# Upper bound on the per-trial standard deviation of the figure 1 capacities
# (b/s/Hz). Measured at 0-60 dB: at most 0.80 for c1 at a_inf and 1.14 for
# c2 at a_sup; both settle to constants at high SNR.
_FIG1_SIGMA = 1.5
# acceptance criterion 6's tolerance on the pairing gain (b/s/Hz)
_FIG3_GAIN_TOL = 0.1


@dataclass
class Pass:
    """What one pass did and how long it took."""

    wall: float = 0.0
    cpu: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    csv_bytes: int = 0
    raw: list = field(default_factory=list)
    speed_batch: int = 0


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# figure workloads


def _check_fig1(rows: list, trials: int) -> list:
    tol = _Z * _FIG1_SIGMA / math.sqrt(trials)
    bad = []
    for r in rows:
        if not _finite(*r.values()):
            bad.append((r["xi_db"], "non-finite cell"))
        elif abs(r["e_c1_noma_ainf_mc"] - r["e_c1_noma_ainf_cf"]) > tol:
            bad.append((r["xi_db"], "e_c1_noma_ainf mc vs cf"))
        elif abs(r["e_c2_noma_asup_mc"] - r["e_c2_noma_asup_cf"]) > tol:
            bad.append((r["xi_db"], "e_c2_noma_asup mc vs cf"))
    return bad


def _check_fig2(rows: list, trials: int) -> list:
    bad = []
    for r in rows:
        if not _finite(*r.values()):
            bad.append((r["xi_db"], "non-finite cell"))
            continue
        if any(not 0.0 <= v <= 1.0 for k, v in r.items() if k != "xi_db"):
            bad.append((r["xi_db"], "probability outside [0, 1]"))
            continue
        for name in ("p_oma_weak", "p_oma_strong", "p_noma_weak_ainf",
                     "p_noma_strong_asup"):
            p = r[f"{name}_cf"]
            # binomial standard error, floored at one count so the deep
            # tail, where a single event dominates, is not a false alarm
            se = max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
            if abs(r[f"{name}_mc"] - p) > _Z * se:
                bad.append((r["xi_db"], f"{name} mc vs cf"))
                break
    return bad


def _check_fig3(rows: list, trials: int) -> list:
    bad = []
    for r in rows:
        k = int(r["k"])
        if not _finite(*r.values()):
            bad.append((k, "non-finite cell"))
            continue
        gain = (r["c_max_asup_mc"] + r["c_min_asup_mc"]
                - r["c_max_oma_mc"] - r["c_min_oma_mc"])
        if abs(gain - fairnoma.pairing.expected_gain_asup(k)) > _FIG3_GAIN_TOL:
            bad.append((k, "pairing gain vs expected_gain_asup"))
    return bad


def _check_fig6(rows: list, trials: int) -> list:
    bad = []
    prev = math.inf
    for r in rows:
        v = r["e_sum_b_mc"]
        if not _finite(*r.values()):
            bad.append((r["xi_db"], "non-finite cell"))
        elif not v < 1.0:
            bad.append((r["xi_db"], "e_sum_b >= 1"))
        elif not v < prev:
            bad.append((r["xi_db"], "e_sum_b not strictly decreasing"))
        prev = v
    return bad


_FIG_CHECKS = {1: _check_fig1, 2: _check_fig2, 3: _check_fig3, 6: _check_fig6}
# rows each figure writes on its default grid
_FIG_ROWS = {1: 31, 2: 31, 3: 29, 6: 31}


def _parse_csv(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class FigureWorkload:
    """Runs ``fairnoma figure N`` for each configured figure, in order."""

    work_name = "trials"     # work counted: trials x grid points
    speed_kernel = "array"   # the time goes to whole-array numpy work

    def __init__(self, seed: int, out_dir: str, figures: tuple,
                 workers: int | None):
        rng = np.random.default_rng([seed, 1])
        self.cli_seed = int(rng.integers(0, 2 ** 32))
        self.figures = figures          # ((figure id, trials), ...)
        self.workers = workers
        self.out_dir = out_dir

    def describe(self) -> dict:
        return {"cli_seed": self.cli_seed, "workers": self.workers or 1,
                "figures": {str(f): {"trials": n, "rows": _FIG_ROWS[f]}
                            for f, n in self.figures}}

    def _argv(self, figure: int, trials: int) -> list:
        argv = ["figure", str(figure), "--trials", str(trials),
                "--seed", str(self.cli_seed), "--out-dir", self.out_dir]
        if self.workers:
            argv += ["--workers", str(self.workers)]
        return argv

    def run_pass(self, mark) -> Pass:
        result = Pass()
        for figure, trials in self.figures:
            argv = self._argv(figure, trials)
            csv_path = os.path.join(self.out_dir, f"figure{figure}.csv")
            with contextlib.suppress(FileNotFoundError):
                os.remove(csv_path)
            mark(f"figure {figure}")
            sink = io.StringIO()
            error = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = fairnoma.cli.main(argv)
            except Exception as exc:
                code, error = None, f"{type(exc).__name__}: {exc}"
            result.wall += time.perf_counter() - t0
            result.cpu += time.process_time() - c0
            result.work += trials * _FIG_ROWS[figure]
            data = None
            if code == 0 and os.path.exists(csv_path):
                with open(csv_path, "rb") as fh:
                    data = fh.read()
            else:
                error = error or f"exit code {code}: {sink.getvalue().strip()}"
            result.raw.append((figure, trials, data, error))
        return result

    def check(self, result: Pass) -> None:
        """Hash and check each CSV; each row is one op."""
        for figure, trials, data, error in result.raw:
            n_rows = _FIG_ROWS[figure]
            result.attempted += n_rows
            if data is None:
                result.failed += n_rows
                result.wrong.append(f"figure {figure} wrote no CSV ({error})")
                result.failures.append({"figure": figure, "error": error})
                continue
            result.csv_bytes += len(data)
            result.digests[f"figure{figure}.csv"] = _sha256(data)
            rows = _parse_csv(data.decode("utf-8"))
            bad = _FIG_CHECKS[figure](rows, trials)
            if len(rows) != n_rows:
                bad.append((None, f"{len(rows)} rows, expected {n_rows}"))
            result.failed += min(len(set(w for w, _ in bad)), n_rows)
            for where, why in bad:
                result.wrong.append(f"figure {figure} at {where}: {why}")
                result.failures.append({"figure": figure, "at": where,
                                        "error": why})
        result.raw = []


# ---------------------------------------------------------------------------
# closed_forms

_XI_DB = tuple(float(d) for d in range(-10, 121, 2))
_BETAS = (0.5, 1.0, 2.0)
_R0S = (0.5, 1.0, 2.0, 4.0, 8.0)
_GAIN_KS = tuple(range(2, 513))
_N_PAIRS = 400
_N_SETS = 150
# tolerances for "NOMA at a fair endpoint is never worse than OMA": the
# ergodic forms carry the quadrature's relative tolerance, the instantaneous
# ones only rounding
_ERGODIC_TOL = 1e-8
_RATE_TOL = 1e-12
_SLACK_TOL = -1e-9


def _db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _close_or_better(noma: float, oma: float, rel: float) -> bool:
    return noma >= oma - rel * max(1.0, abs(oma))


class ClosedForms:
    """Closed forms only: ergodic and outage curves, pairing gains, the
    two-user region and K-user power vectors."""

    work_name = "points"     # work counted: closed-form evaluations
    speed_kernel = "scalar"  # the time goes to interpreted scalar math

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.pairs = []
        for _ in range(_N_PAIRS):
            xi_db = float(rng.uniform(-10.0, 120.0))
            g1, g2 = sorted(float(g) for g in rng.exponential(1.0, 2))
            self.pairs.append((xi_db, g1, g2))
        self.sets = []
        for _ in range(_N_SETS):
            k = int(rng.integers(2, 31))
            xi_db = float(rng.uniform(-10.0, 120.0))
            gains = tuple(sorted(float(g) for g in rng.exponential(1.0, k)))
            self.sets.append((xi_db, gains))

    def describe(self) -> dict:
        return {"xi_db": [_XI_DB[0], _XI_DB[-1], len(_XI_DB)],
                "betas": list(_BETAS), "r0s": list(_R0S),
                "gain_k": [_GAIN_KS[0], _GAIN_KS[-1]],
                "pairs": _N_PAIRS, "channel_sets": _N_SETS}

    def _evaluate(self, mark, latencies: list) -> list:
        """[(key, returned value or the exception raised), ...]"""
        ergodic = fairnoma.ergodic
        outage = fairnoma.outage
        twouser = fairnoma.twouser
        multiuser = fairnoma.multiuser
        SystemParams = twouser.SystemParams
        out = []

        def attempt(key, fn, timed=False):
            mark(key[0])
            t0 = time.perf_counter()
            try:
                value = fn()
            except Exception as exc:
                value = exc
            if timed:
                latencies.append(time.perf_counter() - t0)
            out.append((key, value))

        def region(xi, g1, g2):
            r = twouser.fair_region(SystemParams(xi=xi),
                                    twouser.ChannelPair(g1=g1, g2=g2))
            return (r.a_inf, r.a_sup,
                    twouser.oma_capacity(xi, g1),
                    twouser.oma_capacity(xi, g2),
                    twouser.noma_capacity_weak(xi, g1, r.a_inf),
                    twouser.noma_capacity_strong(xi, g2, r.a_inf),
                    twouser.noma_capacity_weak(xi, g1, r.a_sup),
                    twouser.noma_capacity_strong(xi, g2, r.a_sup))

        def k_user(xi, gains):
            channels = multiuser.ChannelSet(gains=gains)
            b = multiuser.min_alloc_b(xi, channels)
            a = multiuser.full_alloc_a(xi, channels)
            return (b.coeffs + a.coeffs
                    + multiuser.verify_fairness(xi, channels, b)
                    + multiuser.verify_fairness(xi, channels, a))

        for beta in _BETAS:
            for db in _XI_DB:
                attempt(("ergodic_curve_point", beta, db),
                        lambda: ergodic.ergodic_curve_point(
                            SystemParams(xi=_db(db), beta=beta)), timed=True)
        for r0 in _R0S:
            for db in _XI_DB:
                attempt(("outage_point", r0, db),
                        lambda: outage.outage_point(
                            SystemParams(xi=_db(db), r0=r0)), timed=True)
        for k in _GAIN_KS:
            attempt(("expected_gain_asup", k),
                    lambda: fairnoma.pairing.expected_gain_asup(k))
        for i, (db, g1, g2) in enumerate(self.pairs):
            attempt(("fair_region", i), lambda: region(_db(db), g1, g2))
        for i, (db, gains) in enumerate(self.sets):
            attempt(("k_user_alloc", i), lambda: k_user(_db(db), gains))
        return out

    @staticmethod
    def _problem(key, value, prev_gain) -> str | None:
        """Why a returned value fails its check, or None."""
        kind = key[0]
        if kind == "ergodic_curve_point":
            v = (value.e_c1_oma, value.e_c2_oma, value.e_s_oma,
                 value.e_c1_noma_ainf, value.e_c2_noma_asup)
            if not _finite(*v):
                return "non-finite"
            if not (_close_or_better(value.e_c1_noma_ainf, value.e_c1_oma,
                                     _ERGODIC_TOL)
                    and _close_or_better(value.e_c2_noma_asup,
                                         value.e_c2_oma, _ERGODIC_TOL)):
                return "NOMA endpoint below OMA"
        elif kind == "outage_point":
            p = (value.p_oma_weak, value.p_oma_strong,
                 value.p_noma_weak_ainf, value.p_noma_strong_asup)
            if not all(0.0 <= x <= 1.0 for x in p):
                return "probability outside [0, 1]"
            if (value.p_noma_weak_ainf > value.p_oma_weak + _RATE_TOL
                    or value.p_noma_strong_asup > value.p_oma_strong + _RATE_TOL):
                return "NOMA endpoint outage above OMA"
        elif kind == "expected_gain_asup":
            if not math.isfinite(value):
                return "non-finite"
            if not value > prev_gain:
                return "gain not increasing in k"
        elif kind == "fair_region":
            if not _finite(*value):
                return "non-finite"
            _, _, c1o, c2o, c1i, c2i, c1s, c2s = value
            if not all(_close_or_better(n, o, _RATE_TOL) for n, o in
                       ((c1i, c1o), (c2i, c2o), (c1s, c1o), (c2s, c2o))):
                return "NOMA endpoint below OMA"
        elif kind == "k_user_alloc":
            if not _finite(*value):
                return "non-finite"
            n = len(value) // 4
            if min(value[2 * n:]) < _SLACK_TOL:
                return "fairness slack below -1e-9"
        return None

    def run_pass(self, mark) -> Pass:
        result = Pass()
        c0 = time.process_time()
        t0 = time.perf_counter()
        result.raw = self._evaluate(mark, result.latencies)
        result.wall = time.perf_counter() - t0
        result.cpu = time.process_time() - c0
        result.work = len(result.raw)
        return result

    def check(self, result: Pass) -> None:
        """Check every returned value; each evaluation is one op."""
        result.attempted = len(result.raw)
        digest = hashlib.sha256()
        prev_gain = 0.0
        for key, value in result.raw:
            if isinstance(value, Exception):
                result.failed += 1
                result.failures.append({"op": key[0], "at": list(key[1:]),
                                        "error": type(value).__name__})
                digest.update(repr((key, type(value).__name__)).encode())
                if not isinstance(value, QuadratureError):
                    # valid inputs: any other error is a defect, not a
                    # missed accuracy target
                    result.wrong.append(f"{key}: {value!r}")
                continue
            digest.update(repr((key, value)).encode())
            problem = self._problem(key, value, prev_gain)
            if key[0] == "expected_gain_asup":
                prev_gain = value
            if problem:
                result.failed += 1
                result.wrong.append(f"{key}: {problem}")
                result.failures.append({"op": key[0], "at": list(key[1:]),
                                        "error": problem})
        result.digests["closed_forms"] = digest.hexdigest()
        result.raw = []


# ---------------------------------------------------------------------------

#: workload name -> factory(seed, out_dir)
WORKLOADS = {
    "pair_figures": lambda seed, out: FigureWorkload(
        seed, out, ((1, 131072), (2, 131072)), None),
    "pool_figures": lambda seed, out: FigureWorkload(
        seed, out, ((3, 131072), (6, 393216)), 2),
    "closed_forms": lambda seed, out: ClosedForms(seed),
}
