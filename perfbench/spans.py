"""Spans and counters recorded from outside the program.

Tracing replaces public functions at the names their callers look up
(for example `tomosim.simulator.mle_estimate`, which `run_tomography` and
`replay_counts` call) with wrappers that keep a span per call in memory:
name, start, end, parent span and operation id. A layer's self time is the
sum over its spans of the span's duration minus the durations of its
direct children. Constructors and numpy eigensolvers are only counted,
because a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module path, attribute, span name): wrapped with a span each.
SPAN_TARGETS = (
    ("tomosim.cli", "cmd_simulate", "cli.command"),
    ("tomosim.cli", "cmd_replay", "cli.command"),
    ("tomosim.cli", "run_tomography", "simulator.loop"),
    ("tomosim.cli", "replay_counts", "simulator.loop"),
    ("tomosim.cli", "write_trace_file", "cli.io"),
    ("tomosim.cli", "write_curve_file", "cli.io"),
    ("tomosim.cli", "read_records", "cli.io"),
    ("tomosim.cli", "average_curves", "analysis"),
    ("tomosim.cli", "fit_power_law", "analysis"),
    ("tomosim.simulator", "initial_plan", "protocols.plan"),
    ("tomosim.simulator", "next_plan", "protocols.plan"),
    ("tomosim.simulator", "sample_counts", "simulator.sample"),
    ("tomosim.simulator", "mle_estimate", "estimation.mle"),
    ("tomosim.simulator", "log_likelihood", "estimation.loglik"),
    ("tomosim.simulator", "bures_sq", "quantum.metric"),
    ("tomosim.simulator", "fidelity", "quantum.metric"),
)
# Spans that start a new operation: one tomography run, one replayed stream.
OP_FUNCS = ("run_tomography", "replay_counts")
# Spans whose first argument is a file path read or written.
IO_FUNCS = ("write_trace_file", "write_curve_file", "read_records")
# (object path, attribute, counter name): wrapped with a counter each.
COUNT_TARGETS = (
    ("tomosim.quantum.DensityMatrix", "__post_init__", "quantum.states_built"),
    ("tomosim.quantum.PovmElement", "__post_init__", "quantum.elements_built"),
    ("numpy.linalg", "eigh", "linalg.eig_calls"),
    ("numpy.linalg", "eigvalsh", "linalg.eig_calls"),
    ("numpy.linalg", "svd", "linalg.svd_calls"),
)


def _resolve(path: str):
    """The module, or the module attribute, that a dotted path names."""
    head, _, tail = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(head), tail)


class Recorder:
    """In-memory spans, counters and MLE iteration counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.mle_iters: list[int] = []
        self.io_bytes = 0
        self._stack: list[int] = []
        self._op = -1
        self._n_ops = 0

    def _span(self, name: str, fn, starts_op: bool, io: bool):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            if starts_op:
                self._op, self._n_ops = self._n_ops, self._n_ops + 1
            self.spans.append([name, perf_counter(), 0.0, parent, self._op])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
                if starts_op:
                    self._op = -1
            if io:
                self.io_bytes += os.path.getsize(args[0])
            return result
        return wrapper

    def _mle(self, wrapped, max_iter: int):
        def mle_estimate(data, opts=None, logliks=None):
            lls = [] if logliks is None else logliks
            n0 = len(lls)
            result = wrapped(data, opts, lls)
            iters = max(len(lls) - n0 - 1, 0)
            self.mle_iters.append(iters)
            if iters >= (opts.max_iter if opts is not None else max_iter):
                self.counts["estimation.mle_cap_hits"] += 1
            return result
        return mle_estimate

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        from tomosim.estimation import MleOptions

        saved = []
        try:
            for path, attr, name in SPAN_TARGETS:
                obj = _resolve(path)
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                wrapped = self._span(name, fn, attr in OP_FUNCS, attr in IO_FUNCS)
                if attr == "mle_estimate":
                    wrapped = self._mle(wrapped, MleOptions().max_iter)
                setattr(obj, attr, wrapped)
            for path, attr, name in COUNT_TARGETS:
                obj = _resolve(path)
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                setattr(obj, attr, self._count(name, fn))
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def write(self, path) -> None:
        """Dump spans and counters as JSON."""
        keys = ("name", "start", "end", "parent", "op")
        doc = {"spans": [dict(zip(keys, s)) for s in self.spans],
               "counts": dict(self.counts), "mle_iters": self.mle_iters}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


SELF_TIME_METRICS = {
    "estimation.mle_s": "estimation.mle",
    "estimation.loglik_s": "estimation.loglik",
    "protocols.plan_s": "protocols.plan",
    "quantum.metric_s": "quantum.metric",
    "simulator.sample_s": "simulator.sample",
    "simulator.loop_s": "simulator.loop",
    "cli.command_s": "cli.command",
    "cli.io_s": "cli.io",
    "analysis.s": "analysis",
}


def layer_metrics(rec: Recorder, wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced run that took `wall` seconds."""
    own = self_times(rec.spans)
    out = {metric: own.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    out["other_s"] = wall - sum(own.values())
    out["trace.wall_s"] = wall
    iters = np.array(rec.mle_iters or [0])
    out.update({
        "estimation.mle_calls": len(rec.mle_iters),
        "estimation.mle_iters": int(iters.sum()),
        "estimation.mle_iters_p50": float(np.median(iters)),
        "estimation.mle_iters_max": int(iters.max()),
        "estimation.mle_cap_hits": rec.counts["estimation.mle_cap_hits"],
        "estimation.s_per_iter": out["estimation.mle_s"] / max(int(iters.sum()), 1),
        "linalg.eig_calls": rec.counts["linalg.eig_calls"],
        "linalg.svd_calls": rec.counts["linalg.svd_calls"],
        "protocols.plan_calls": sum(1 for s in rec.spans if s[0] == "protocols.plan"),
        "quantum.elements_built": rec.counts["quantum.elements_built"],
        "quantum.states_built": rec.counts["quantum.states_built"],
        "simulator.sample_calls": sum(1 for s in rec.spans if s[0] == "simulator.sample"),
        "cli.io_bytes": rec.io_bytes,
    })
    return out
