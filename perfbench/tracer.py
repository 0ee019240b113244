"""In-memory span tracer that wraps fairnoma's public functions from outside.

``from .x import y`` binds ``y`` at import time, so a wrapper is installed in
every ``fairnoma`` namespace that holds the original function, and the
original is put back when the traced pass ends. The program itself is not
changed.

A span is recorded at each layer boundary: op id, layer, function, start,
end and parent span. Two kinds of call are too frequent to record one by
one: the special functions, and the integrand evaluations inside a
quadrature call. They are folded into the span that encloses them as a
count and a covered time, which keeps a traced pass at thousands of spans
instead of millions. Self times are derived from the spans afterwards.

Only calls made on the thread that created the tracer are traced; the
Monte Carlo worker threads run private chunk code that is never wrapped.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: package module -> layer name used in metric names
LAYERS = {
    "fairnoma.cli": "cli",
    "fairnoma.mcsim": "mcsim",
    "fairnoma.ergodic": "ergodic",
    "fairnoma.outage": "outage",
    "fairnoma.pairing": "pairing",
    "fairnoma.multiuser": "multiuser",
    "fairnoma.twouser": "twouser",
    "fairnoma.specfun": "specfun",
    "fairnoma._quad": "quad",
}

# layers whose calls are folded into the enclosing span
_FOLDED = frozenset({"specfun"})

# span record fields
_OP, _LAYER, _NAME, _START, _END, _PARENT, _COVERED, _ERROR, _ENTRY = range(9)


def _public_functions() -> dict:
    """id(function) -> (function, layer) for every public function a layer
    module defines."""
    found = {}
    for modname, layer in LAYERS.items():
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not name.startswith("_")):
                found[id(obj)] = (obj, layer)
    return found


class Tracer:
    """Spans and folded-call counters for one traced pass."""

    def __init__(self, chunk_trials: int):
        self.chunk_trials = chunk_trials
        self.spans: list = []
        self.op = 0
        self.op_labels: list = []
        self.folded_calls: defaultdict = defaultdict(int)
        self.folded_busy: defaultdict = defaultdict(float)
        self.folded_self: defaultdict = defaultdict(float)
        self.quad_evals = 0
        self.mcsim_trials = 0
        self.mcsim_chunks = 0
        # open frames: [span index or -1, layer, covered, nested span time]
        self._stack: list = []
        self._depth: defaultdict = defaultdict(int)
        self._thread = threading.get_ident()

    def mark(self, label: str) -> None:
        """Start a new benchmark op; later spans carry its id."""
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        call = self._folded if layer in _FOLDED else self._span

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            return call(fn, layer, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, fn, layer: str, args, kwargs):
        stack = self._stack
        parent = -1
        for frame in reversed(stack):
            if frame[0] >= 0:
                parent = frame[0]
                break
        entry = self._depth[layer] == 0
        if layer == "quad":
            args, kwargs = self._count_evals(args, kwargs)
        elif layer == "mcsim" and entry:
            self._count_trials(args[0] if args else kwargs["config"])
        rec = [self.op, layer, fn.__name__, 0.0, 0.0, parent, 0.0, None, entry]
        index = len(self.spans)
        self.spans.append(rec)
        frame = [index, layer, 0.0, 0.0]
        stack.append(frame)
        self._depth[layer] += 1
        rec[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            rec[_ERROR] = type(exc).__name__
            raise
        finally:
            rec[_END] = end = time.perf_counter()
            self._depth[layer] -= 1
            stack.pop()
            rec[_COVERED] = frame[2]
            if stack and stack[-1][0] < 0:
                # a span inside a folded call: keep it out of that call's time
                stack[-1][2] += end - rec[_START]
                stack[-1][3] += end - rec[_START]

    def _folded(self, fn, layer: str, args, kwargs):
        stack = self._stack
        entry = not any(f[1] == layer for f in stack)
        frame = [-1, layer, 0.0, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            self.folded_self[layer] += dur - frame[2]
            if entry:
                self.folded_calls[layer] += 1
                self.folded_busy[layer] += dur
            if stack:
                stack[-1][2] += dur - frame[3]

    def _count_evals(self, args, kwargs):
        """Wrap the integrand passed to a quadrature call so each evaluation
        is counted and its time is charged to the layer that supplied it."""
        owner = "quad"
        for frame in reversed(self._stack):
            if frame[0] >= 0:
                owner = frame[1]
                break
        f = args[0] if args else kwargs["f"]
        folded = self._folded

        def counted(x):
            self.quad_evals += 1
            return folded(f, owner, (x,), {})

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, f=counted)

    def _count_trials(self, config) -> None:
        points = len(config.xi_grid)
        if config.scenario == "pair_minmax" and config.k_grid is not None:
            points *= len(config.k_grid)
        chunks = -(-config.trials // self.chunk_trials)
        self.mcsim_trials += config.trials * points
        self.mcsim_chunks += chunks * points

    @contextmanager
    def installed(self):
        """Install the wrappers in every fairnoma namespace for the block."""
        originals = _public_functions()
        wrappers = {key: self._wrap(fn, layer)
                    for key, (fn, layer) in originals.items()}
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "fairnoma" and not modname.startswith("fairnoma."):
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, wrappers[id(obj)])
                    patched.append((module, name, obj))
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, self times derived from the spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        calls: defaultdict = defaultdict(int)
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        failures: defaultdict = defaultdict(int)
        for i, rec in enumerate(self.spans):
            dur = rec[_END] - rec[_START]
            own[rec[_LAYER]] += dur - child[i] - rec[_COVERED]
            if rec[_ENTRY]:
                calls[rec[_LAYER]] += 1
                busy[rec[_LAYER]] += dur
                if rec[_ERROR] == "QuadratureError":
                    failures[rec[_LAYER]] += 1
        for layer, n in self.folded_calls.items():
            if layer in _FOLDED:
                calls[layer] += n
                busy[layer] += self.folded_busy[layer]
        for layer, t in self.folded_self.items():
            own[layer] += t
        out = {}
        for layer in LAYERS.values():
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        out["quad.evals"] = self.quad_evals
        out["quad.failures"] = failures["quad"]
        out["mcsim.trials"] = self.mcsim_trials
        out["mcsim.chunks"] = self.mcsim_chunks
        busy_mc = busy["mcsim"]
        out["mcsim.trials_per_s"] = self.mcsim_trials / busy_mc if busy_mc else 0.0
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        """One JSON array per span:
        [pass, op, op label, layer, name, start, end, parent, covered, error]."""
        for rec in self.spans:
            fh.write(json.dumps([pass_index, rec[_OP], self.op_labels[rec[_OP]]
                                 if self.op_labels else "", rec[_LAYER],
                                 rec[_NAME], rec[_START], rec[_END],
                                 rec[_PARENT], rec[_COVERED], rec[_ERROR]]))
            fh.write("\n")
