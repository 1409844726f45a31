"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and a parent.  Spans opened by the
benchmark's own code (workload, job, each call it makes into a layer,
and each replay) are kept one by one and written out at the end.
Probes wrap public functions of the layers that the workload reaches
only through another layer; their spans are folded into per-name
totals (calls, inclusive time, self time) so that millions of calls
cost no memory.  A span's self time is its duration minus the time
covered by the spans nested directly inside it.

Nothing here is installed in an untraced run: `NullTracer` calls the
function straight through.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


class NullTracer:
    """Tracing off: calls go straight to the program."""

    enabled = False

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @contextmanager
    def span(self, name, replay=False):
        yield


class Tracer:
    """Tracing on: a stack of open spans, kept spans and per-name totals."""

    enabled = True

    def __init__(self):
        self.records = []   # kept spans: [id, parent, name, start, end, self, replay]
        self.totals = {}    # name -> [calls, inclusive seconds, self seconds]
        self.durations = {}  # name -> per-call seconds, kept spans only
        self.counts = {}    # name -> work counted by probes
        self._stack = []    # open spans: [name, start, child seconds, id]

    def _open(self, name, kept):
        sid = len(self.records) if kept else None
        if kept:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None),
                          None)
            self.records.append([sid, parent, name, 0.0, 0.0, 0.0, False])
        frame = [name, perf_counter(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        name, start, child, sid = frame
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals.get(name)
        if tot is None:
            self.totals[name] = [1, dur, own]
        else:
            tot[0] += 1
            tot[1] += dur
            tot[2] += own
        if sid is not None:
            rec = self.records[sid]
            rec[3], rec[4], rec[5] = start, end, own
            self.durations.setdefault(name, []).append(dur)
        return dur

    def call(self, name, fn, *args):
        """A kept span around one call the workload makes into a layer."""
        frame = self._open(name, True)
        try:
            return fn(*args)
        finally:
            self._close(frame)

    @contextmanager
    def span(self, name, replay=False):
        frame = self._open(name, True)
        if replay:
            self.records[frame[3]][6] = True
        try:
            yield
        finally:
            self._close(frame)

    def probe(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call folds a span named ``name`` into the
        totals; ``on_result(args, result)`` may add counts of work done."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name, False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self, name, owner, attr, on_result=None):
        """Replace ``owner.attr`` by a probe, wherever a treelevel module
        bound the same function object (``from .x import f`` copies it)."""
        original = getattr(owner, attr)
        wrapper = self.probe(name, original, on_result)
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and k.startswith("treelevel")]
        if isinstance(owner, type):
            namespaces.append(owner)  # e.g. __rmul__ = __mul__
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
        return wrapper

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer_self_seconds(self):
        """Self time summed per layer (the part of a span name before the dot)."""
        out = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self):
        return {
            "fields": ["id", "parent", "name", "start", "end", "self", "replay"],
            "spans": self.records,
            "totals": {k: {"calls": c, "seconds": t, "self_seconds": s}
                       for k, (c, t, s) in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
        }
