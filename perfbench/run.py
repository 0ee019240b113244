"""fairnoma benchmark: figure sweeps and closed forms, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pair_figures --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout; nothing is installed.
A run first times ``setup_s`` in fresh interpreters, then makes one untimed
warm-up pass and as many timed passes as fit in ``--seconds`` (at least
three). Each pass's outputs are checked, and their bytes must repeat
exactly from pass to pass.

End-to-end times are reported at a nominal machine speed: each timed
interval is scaled by how fast a fixed reference kernel ran right before and
after it (see ``Speed``), because the speed of a shared machine drifts by
tens of percent within minutes. The measured times are in the report line.

``--trace 1`` alternates untraced and traced passes, reports per-layer
metrics per pass, and writes the spans to ``.perfbench/trace-<workload>.jsonl``.
The last line of standard output is the result as one JSON object; the lines
before it are a readable report and a JSON ``report`` line with the
environment, the output hashes and every failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
MIN_PASSES = 3
# what a fresh ``fairnoma`` invocation does before it can work: import the
# CLI and answer ``--version``
_SETUP_CODE = ("import sys; from fairnoma.cli import main; "
               "sys.exit(main(['--version']))")

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "work_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_rate": "ratio",
}
PER_LAYER = (
    "mcsim.calls", "mcsim.busy_s", "mcsim.trials", "mcsim.chunks",
    "mcsim.trials_per_s",
    "cli.calls", "cli.self_s", "cli.csv_bytes",
    "ergodic.calls", "ergodic.busy_s", "ergodic.self_s",
    "outage.calls", "outage.busy_s", "outage.self_s",
    "quad.calls", "quad.evals", "quad.busy_s", "quad.self_s", "quad.failures",
    "specfun.calls", "specfun.busy_s",
    "pairing.calls", "pairing.busy_s",
    "multiuser.calls", "multiuser.busy_s",
    "twouser.calls", "twouser.busy_s",
    "trace.overhead_s",
)


def _scalar_kernel() -> float:
    """A scalar math loop in the interpreter, like the closed forms'
    integrands."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 20000):
        acc += math.exp(-i * 1e-5) / (1.0 + math.sqrt(i))
    return time.perf_counter() - t0


def _array_kernel() -> float:
    """Whole-array numpy work like a Monte Carlo chunk: Philox draws, log1p,
    row min and max of a 65536 x 2 array, a rate formula, a dot product,
    and a row sort of a 16384 x 5 array."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(12345))
    g = -np.log1p(-rng.random((65536, 2)))
    w1 = 100.0 * g.min(axis=1)
    w2 = 100.0 * g.max(axis=1)
    c = np.log1p(w2 / (1.0 + np.sqrt(1.0 + w1)))
    float(np.dot(c, c))
    np.sort(rng.random((16384, 5)), axis=1)
    return time.perf_counter() - t0


class Speed:
    """How fast this machine runs a fixed kernel that uses no fairnoma code.

    The machine's speed drifts by tens of percent over seconds, so the
    kernel is timed right before and right after each timed interval, and
    the interval is scaled by ``nominal / median(kernel times around it)``:
    below 1 on a slower or busier moment.
    """

    REPS = 10
    # kernel -> (function, median seconds on the 2-CPU machine the bounds
    # were set on, when it was otherwise idle)
    KERNELS = {"scalar": (_scalar_kernel, 3.2e-3),
               "array": (_array_kernel, 8.7e-3)}

    def __init__(self, kernel: str):
        self.kernel, self.nominal = self.KERNELS[kernel]
        self.batches: list = []

    def sample(self) -> None:
        self.batches.append([self.kernel() for _ in range(self.REPS)])

    def factor(self, i: int) -> float:
        """Scale for the interval between batches ``i`` and ``i + 1``."""
        return self.nominal / statistics.median(self.batches[i]
                                                + self.batches[i + 1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup(speed: Speed) -> list:
    """(measured, scaled) wall time of fresh interpreters importing the CLI
    until it answers, scaled by the machine's speed around each.

    One untimed start first, so the bytecode cache is written once, as it is
    for a user after the first invocation.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env,
                              cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("fresh interpreter could not start the CLI: "
                               + proc.stderr.decode(errors="replace")[-500:])
        if i:
            times.append((dt, len(speed.batches) - 1))
    speed.sample()
    return [(dt, dt * speed.factor(b)) for dt, b in times]


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fairnoma").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, workload) -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("_per_s") else "s"
    return "bytes" if name.endswith("_bytes") else "count"


def _no_mark(label):
    pass


def _run_passes(workload, seconds: float, trace: bool, chunk_trials: int,
                speed: Speed) -> tuple:
    """One warm-up pass, then timed passes until ``seconds`` have passed;
    with ``trace`` every second pass is traced."""
    from tracer import Tracer

    passes, traced, tracers = [], [], []

    def one_pass(traced_pass: bool):
        speed.sample()
        batch = len(speed.batches) - 1
        if not traced_pass:
            result = workload.run_pass(_no_mark)
        else:
            tracer = Tracer(chunk_trials)
            with tracer.installed():
                result = workload.run_pass(tracer.mark)
            tracers.append(tracer)
        workload.check(result)
        result.speed_batch = batch
        return result

    warm = one_pass(False)
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < (2 * MIN_PASSES if trace else MIN_PASSES)
           or time.perf_counter() < deadline):
        traced_pass = trace and i % 2 == 1
        (traced if traced_pass else passes).append(one_pass(traced_pass))
        i += 1
    speed.sample()
    return warm, passes, traced, tracers


def _layer_metrics(tracers: list, warm, passes: list, traced: list) -> tuple:
    """Per-layer metrics, and whether their counts repeat across passes."""
    per_pass = [t.layer_metrics() for t in tracers]
    counts = [{k: v for k, v in m.items() if isinstance(v, int)}
              for m in per_pass]
    metrics = {
        "cli.csv_bytes": warm.csv_bytes,
        "trace.overhead_s": (_median([p.wall for p in traced])
                             - _median([p.wall for p in passes])),
    }
    for name in PER_LAYER:
        if name not in metrics:
            values = [m[name] for m in per_pass]
            # counts repeat exactly; times are the median over passes
            metrics[name] = (values[0] if isinstance(values[0], int)
                             else _median(values))
    metrics = {name: metrics[name] for name in PER_LAYER}
    return metrics, all(c == counts[0] for c in counts)


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import fairnoma
    if Path(fairnoma.__file__).resolve().parent != (SRC / "fairnoma").resolve():
        print(f"error: imported fairnoma from {fairnoma.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import fairnoma.mcsim
    from workloads import WORKLOADS

    setup_speed = Speed("scalar")
    setup_times = [] if args.trace else measure_setup(setup_speed)

    out_dir = WORK_DIR / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(out_dir))
        speed = Speed(workload.speed_kernel)
        warm, passes, traced, tracers = _run_passes(
            workload, args.seconds, bool(args.trace),
            fairnoma.mcsim.CHUNK_TRIALS, speed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    every = [warm] + passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    wrong = sorted({w for p in every for w in p.wrong})
    if any(p.digests != warm.digests for p in every):
        wrong.append("output bytes differ between passes")

    wall = _median([p.wall for p in passes])
    cpu = _median([p.cpu for p in passes])
    work_rate = _median([p.work / p.wall for p in passes])
    factors = [speed.factor(p.speed_batch) for p in passes]
    latencies_ms = [1e3 * t for p in passes for t in p.latencies]
    error_rate = failed / attempted
    work_name = f"{workload.work_name}_per_s"
    report = {
        "workload": args.workload,
        "env": environment(args, workload),
        "passes": {"warmup": 1, "timed": len(passes), "traced": len(traced)},
        "output_sha256": warm.digests,
        "failed_ops": warm.failures,
        "speed": {"kernel": workload.speed_kernel,
                  "factor": _median(factors)},
        "measured": {"wall_s": wall, "cpu_s": cpu, work_name: work_rate},
        "error_rate": error_rate,
    }
    if latencies_ms:
        report["point_ms_p50"] = _percentile(latencies_ms, 50)
        report["point_ms_p99"] = _percentile(latencies_ms, 99)
        report["point_samples"] = len(latencies_ms)

    if args.trace:
        metrics, counts_repeat = _layer_metrics(tracers, warm, passes, traced)
        if not counts_repeat:
            wrong.append("per-layer counts differ between traced passes")
        WORK_DIR.mkdir(exist_ok=True)
        with open(WORK_DIR / f"trace-{args.workload}.jsonl", "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed}) + "\n")
            for index, tracer in enumerate(tracers):
                tracer.write_spans(fh, index)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        # times at the nominal machine speed; the measured ones are in the
        # report
        report["measured"]["setup_s"] = _median([dt for dt, _ in setup_times])
        metrics = {
            "wall_s": _median([p.wall * f for p, f in zip(passes, factors)]),
            "cpu_s": _median([p.cpu * f for p, f in zip(passes, factors)]),
            "work_per_s": _median([p.work / (p.wall * f)
                                   for p, f in zip(passes, factors)]),
            "setup_s": _median([scaled for _, scaled in setup_times]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": 1.0 - error_rate,
        }
        units = END_TO_END_UNITS
    report["wrong"] = wrong[:50]

    for name, value in metrics.items():
        print(f"{name:24s} {value:.6g} {units[name]}")
    for name, value in report["measured"].items():
        print(f"{'measured ' + name:24s} {value:.6g} "
              f"{'1/s' if name.endswith('_per_s') else 's'}")
    print(f"{'error_rate':24s} {error_rate:.6g} ratio")
    if latencies_ms:
        for name in ("point_ms_p50", "point_ms_p99"):
            print(f"{name:24s} {report[name]:.6g} ms")
        print(f"{'point_samples':24s} {len(latencies_ms)} count")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pair_figures", "pool_figures", "closed_forms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairnoma" / "__init__.py").is_file():
        print(f"error: no fairnoma sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
