"""Spans recorded by the benchmark around its own calls into dwigner.

A span is (id, name, start, end, parent, op, ok): ``parent`` is the id of
the enclosing span (the op span for a module call, None for an op), ``op``
the op index the span belongs to, ``ok`` false when the call raised.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Calls straight through; used for every measurement of end-to-end metrics."""

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def op(self, op_id):
        yield


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._op = None

    def _record(self, name, start, end, ok):
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans), name, start, end, parent, self._op, ok])

    def call(self, name, fn, *args):
        start = time.perf_counter()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self._record(name, start, time.perf_counter(), ok)

    @contextmanager
    def op(self, op_id):
        # Appended on entry so that the module spans inside can name it as parent.
        span = [len(self.spans), "op", time.perf_counter(), None, None, op_id, False]
        self.spans.append(span)
        self._open.append(span[0])
        self._op = op_id
        try:
            yield
            span[6] = True
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
            self._op = None


def layer_stats(spans, names, wall_s):
    """Per-function ``calls``, ``p50_ms``, ``busy_s``, ``share`` and ``failed``.

    ``share`` is busy time over the traced phase's timed wall time.  Functions
    with no span report zeros, so every workload prints the same metric names.
    """
    by_name = {name: [] for name in names}
    failed = dict.fromkeys(names, 0)
    for _, name, start, end, _, _, ok in spans:
        if name in by_name:
            by_name[name].append(end - start)
            failed[name] += not ok
    out = {}
    for name in names:
        durations = by_name[name]
        busy = float(sum(durations))
        out[f"{name}.calls"] = (len(durations), "count")
        out[f"{name}.p50_ms"] = (float(np.median(durations)) * 1e3 if durations else 0.0, "ms")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.share"] = (busy / wall_s if wall_s > 0 else 0.0, "ratio")
        out[f"{name}.failed"] = (failed[name], "count")
    return out
