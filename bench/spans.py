"""In-memory span recorder for the traced pass.

A span holds a name, a layer, its start and end (``perf_counter`` seconds),
its parent span and the id of the operation (trial, instance or pipeline pass)
it belongs to.  Spans are recorded from the benchmark's own files, around the
calls they make into the program's layers, and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.group = None
        self.workload = None

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "group": self.group,
            "workload": self.workload,
            "error": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrapped(self, module, names, layer: str):
        """Route ``module.<name>`` through a span while the block runs."""
        saved = {n: getattr(module, n) for n in names}

        def wrap(name, fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                with self.span(f"{layer}.{name}", layer, args_shape=_shape(args)):
                    return fn(*args, **kwargs)

            return inner

        try:
            for n, fn in saved.items():
                setattr(module, n, wrap(n, fn))
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the part of it that child spans cover."""
        kids = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, lo, hi = 0.0, None, None
            for a, b in sorted(kids.get(s["id"], ())):
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def select(self, names, workload, **attrs) -> list:
        names = {names} if isinstance(names, str) else set(names)
        return [
            s
            for s in self.spans
            if s["name"] in names
            and s["workload"] == workload
            and all(s.get(k) == v for k, v in attrs.items())
        ]

    def per_op_s(self, names, workload: str) -> float:
        """Summed duration of the named spans per operation of the workload."""
        ops = {
            s["group"]
            for s in self.spans
            if s["workload"] == workload and s["group"] is not None
        }
        total = sum(s["end"] - s["start"] for s in self.select(names, workload))
        return total / max(len(ops), 1)

    def median_s(self, names, workload: str, **attrs) -> float:
        spans = self.select(names, workload, **attrs)
        return statistics.median(s["end"] - s["start"] for s in spans)

    def layer_counts(self, layer: str) -> tuple:
        spans = [s for s in self.spans if s["layer"] == layer]
        return len(spans), sum(1 for s in spans if s["error"])

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, self_s=selfs[s["id"]])) + "\n")


def _shape(args):
    for a in args:
        data = getattr(a, "data", None)
        if data is not None and getattr(data, "ndim", 0) == 2:
            return list(data.shape)
    return None
