"""Outside-in tracer: spans around the program's public names, kept in memory.

The tracer replaces a name in the module where its caller looks it up (for
example ``lpf`` in ``copeplan.planner.engine``, which imports it by name) with
a wrapper that records one span per call: name, start, end, parent span and
op id. Nothing inside the program changes. A target that no longer exists is
listed as absent rather than raising, so the benchmark keeps working when a
later change renames or removes a function.

Self time is computed from the spans afterwards: a span's duration minus the
durations of its direct children. A span's net time further takes off the
tracer's own cost for every span nested inside it, measured once per run;
without that, a layer made of many small traced calls (the STN under node
generation) looks larger than it is.
"""

import functools
import importlib
import json
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.absent = []
        self.present = set()
        self._installed = []

    def _name_id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _open(self, nid):
        sid = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, span):
        """A span for the benchmark's own code, such as one op."""
        sid = self._open(self._name_id(span))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, module, attr, span, observe=None):
        """Prepare to record `span` around every call of module.attr (attr may
        be Class.method); enable() puts the wrapper in place.

        observe(args, result) runs after the span closes, for counts the
        spans cannot hold.
        """
        target = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        self._install(owner, leaf, original, span, observe)

    def _install(self, owner, leaf, original, span, observe=None):
        nid = self._name_id(span)
        opened, closed = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = opened(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                closed(sid)
            if observe is not None:
                observe(args, result)
            return result

        self._installed.append((owner, leaf, original, traced))
        self.present.add(span)

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one traced call adds to the spans around it, on this host."""
        def noop():
            pass

        probe = Tracer()
        holder = types.SimpleNamespace()
        probe._install(holder, "f", noop, "noop")
        probe.enable()
        traced = holder.f
        best = {}
        for label, fn in (("plain", noop), ("traced", traced)) * 3:
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            best[label] = min(best.get(label, 1.0), perf_counter() - t0)
        return max(0.0, best["traced"] - best["plain"]) / calls

    def enable(self):
        """Put every wrapper in place of the name it wraps."""
        for owner, leaf, _, traced in self._installed:
            setattr(owner, leaf, traced)

    def disable(self):
        """Put the original names back."""
        for owner, leaf, original, _ in reversed(self._installed):
            setattr(owner, leaf, original)

    def arrays(self):
        """Span columns as numpy arrays (views, no copies)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self, span_cost=0.0):
        """span name -> {"calls", "self_s", "total_s", "net_s"} from the spans.

        net_s is total_s less span_cost for every span nested inside.
        """
        cols = self.arrays()
        n, k = len(cols["end"]), len(self.names)
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        nested = np.zeros(n)
        up = parent.copy()
        # one level per step; depth is the nesting of traced calls
        while (live := up >= 0).any():
            nested += np.bincount(up[live], minlength=n)
            up[live] = parent[up[live]]
        names = cols["name"]
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        net_s = np.bincount(names, weights=dur - nested * span_cost, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i]), "net_s": float(net_s[i])}
                for i, name in enumerate(self.names)}

    def count_outside(self, span, ancestor):
        """Spans named `span` with no ancestor named `ancestor`."""
        if span not in self._ids:
            return 0
        cols = self.arrays()
        names, parent = cols["name"], cols["parent"]
        is_anc = names == self._ids.get(ancestor, -2)
        under = np.zeros(len(names), dtype=bool)
        up = parent.copy()
        while (live := up >= 0).any():
            under[live] |= is_anc[up[live]]
            up[live] = parent[up[live]]
        return int(((names == self._ids[span]) & ~under).sum())

    def save(self, path):
        cols = self.arrays()
        t0 = cols["start"].min() if len(cols["start"]) else 0.0
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=cols["name"], parent=cols["parent"], op=cols["op"],
                 start=cols["start"] - t0, end=cols["end"] - t0)
