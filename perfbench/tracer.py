"""Spans and collector statistics for the traced run.

The benchmark records a span around each call it makes into a corec
layer: its layer and name, start, end, parent span and run id, plus the
collector pause time that fell inside it. Spans stay in memory and are
written out when the run ends. The untraced run uses :data:`OFF`, whose
spans cost one attribute lookup and record nothing.
"""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager, nullcontext


class Off:
    """The tracer of an untraced run: no spans, no collector callback."""

    enabled = False

    def span(self, layer, name):
        return nullcontext()


OFF = Off()


class Tracer:
    """Spans, collector pauses and live-block counts of one traced process."""

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.gc_ns = 0
        self.gc_collections = 0
        self.live_blocks = {}
        self._stack = []
        self._gc_started = 0
        self._counting = False

    def _on_gc(self, phase, info):
        # Only collections inside a job count: not the benchmark's checks,
        # its reference loop or its own block counting.
        if self._counting or not self._stack:
            return
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_started = now
        else:
            self.gc_ns += now - self._gc_started
            self.gc_collections += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    @contextmanager
    def span(self, layer, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        gc_before = self.gc_ns
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = {
                "run": self.run_id, "id": sid, "parent": parent,
                "layer": layer, "name": name, "start_ns": start,
                "end_ns": end, "gc_ns": self.gc_ns - gc_before,
            }

    def blocks(self):
        """Allocated blocks once the collector has freed all garbage."""
        self._counting = True
        try:
            gc.collect()
        finally:
            self._counting = False
        return sys.getallocatedblocks()


def self_times(spans):
    """Seconds per layer of span time not covered by child spans.

    A span's time is scaled by the ``slowdown`` of the job span it lies in.
    """
    by_id = {(s["run"], s["id"]): s for s in spans}
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        job = s
        while job["parent"] is not None:
            job = by_id[(job["run"], job["parent"])]
        own = s["end_ns"] - s["start_ns"] - child_ns.get((s["run"], s["id"]), 0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9 / job["slowdown"]
    return out
