"""Span tracing of pnrecon from outside the package.

The tracer replaces public functions at the import sites the program
calls them through (``pnrecon.experiment``, ``pnrecon.cli``,
``pnrecon.distio``, the state builders reached as ``states.<kind>``, the
solver the benchmark calls directly, and ``log_laguerre_nonpos`` as
``pnrecon.detector`` sees it) with wrappers that record one span per call
while an op is open. Nothing in ``src/`` changes.

A span is ``[id, name, start, end, parent_id, op_id, attrs]``. Spans stay
in memory and are written out once, after the run. Self time of a span is
its duration minus the part of its interval covered by its children;
summed over every span of an op (the op's own root span included) the self
times give back the op's duration.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench.op"

# Layers whose self time is reported in full; the leaf layers ``states``
# and ``metrics`` are reported under the names ``states.s``/``metrics.s``.
SELF_LAYERS = (
    "detector", "sampling", "landweber", "inversion", "distio",
    "experiment", "cli", "bench",
)

# Per-layer metric name -> unit. Which end-to-end metric each should move,
# and on which workload, is tabulated in perfbench/README.md.
LAYER_UNITS = {
    "detector.build_response.s": "s",
    "detector.build_response.calls": "count",
    "detector.entries": "count",
    "detector.suggest_m_max.s": "s",
    "special.log_laguerre_nonpos.calls": "count",
    "detector.forward.s": "s",
    "detector.self_s": "s",
    "states.s": "s",
    "metrics.s": "s",
    "landweber.solve.s": "s",
    "landweber.solve.calls": "count",
    "landweber.iterations": "count",
    "landweber.us_per_iter": "us",
    "landweber.solve.peak_mb": "MB",
    "landweber.self_s": "s",
    "sampling.sample_counts.s": "s",
    "sampling.events": "count",
    "sampling.sample_counts.peak_mb": "MB",
    "sampling.self_s": "s",
    "inversion.direct_reconstruct.s": "s",
    "inversion.self_s": "s",
    "distio.write.s": "s",
    "distio.write.bytes": "count",
    "distio.read.s": "s",
    "distio.read.bytes": "count",
    "distio.self_s": "s",
    "experiment.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans for the op that is open; inactive between ops."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (op_id, name) -> calls
        self.op_id = None
        self.track_memory = False
        self._stack = []  # open spans: [span, tracemalloc start, max seen]
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0][0] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self.op_id, {}]
        self.spans.append(span)
        base = peak = 0
        if self.track_memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                frame = self._stack[-1]
                frame[2] = max(frame[2], peak)
            tracemalloc.reset_peak()
        self._stack.append([span, base, 0])
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        frame = self._stack.pop()
        if self.track_memory:
            peak = max(tracemalloc.get_traced_memory()[1], frame[2])
            span[6]["peak_bytes"] = peak - frame[1]
            if self._stack:
                parent = self._stack[-1]
                parent[2] = max(parent[2], peak)

    @contextmanager
    def op(self, op_id):
        """Open the root span of one op; spans are recorded until it closes."""
        self.op_id = op_id
        root = self._open(ROOT)
        try:
            yield root
        finally:
            self._close(root)
            self.op_id = None

    def wrap(self, name, fn, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                annotate(span[6], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op_id is not None:
                tracer.counters[(tracer.op_id, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap pnrecon's public functions at their import sites."""
        from pnrecon import cli, detector, distio, experiment, landweber, states

        for module in (experiment, cli):
            for attr, fn in sorted(vars(module).items()):
                if _is_public_pnrecon_function(attr, fn):
                    self._patch(module, attr, self._wrapped(fn))
        for attr, fn in sorted(vars(distio).items()):
            # dumps recurses through itself once per element; its time is
            # part of the write span that called it.
            if attr != "dumps" and _is_public_pnrecon_function(attr, fn) and fn.__module__ == distio.__name__:
                self._patch(distio, attr, self._wrapped(fn))
        for attr in ("thermal", "spats", "even_cat", "fock", "from_file"):
            self._patch(states, attr, self._wrapped(getattr(states, attr)))
        self._patch(landweber, "solve", self._wrapped(landweber.solve))
        self._patch(
            detector,
            "log_laguerre_nonpos",
            self.counting("special.log_laguerre_nonpos.calls", detector.log_laguerre_nonpos),
        )

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrapped(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        return self.wrap(name, fn, _ANNOTATORS.get(name, _annotate_io if layer == "distio" else None))

    def dump(self, path):
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "op", "attrs"],
            "spans": self.spans,
            "counters": [[op, name, calls] for (op, name), calls in sorted(self.counters.items())],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _is_public_pnrecon_function(attr, fn):
    return (
        not attr.startswith("_")
        and isinstance(fn, types.FunctionType)
        and fn.__module__.startswith("pnrecon.")
    )


def _annotate_io(attrs, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    attrs["bytes"] = os.path.getsize(path)


_ANNOTATORS = {
    "detector.build_response": lambda attrs, a, k, r: attrs.update(entries=int(r.entries.size)),
    "landweber.solve": lambda attrs, a, k, r: attrs.update(iterations=int(r.iterations_run)),
    "sampling.sample_counts": lambda attrs, a, k, r: attrs.update(events=int(a[1].events)),
}


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """Self time per span id: duration minus the union of the intervals of
    its direct children, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    result = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[0]] = (end - start) - covered
    return result


def op_metrics(spans, counters=None):
    """Per-layer numbers of one op from its spans (root span included).

    Returns a dict keyed like LAYER_UNITS, without trace.overhead_s. Every
    span's self time lands in exactly one layer, so the layer self times
    (``<layer>.self_s``, ``states.s``, ``metrics.s``) sum to trace.op_s;
    a ValueError says they do not.
    """
    counters = counters or {}
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    out = defaultdict(float)
    root = [span for span in spans if span[1] == ROOT]
    if len(root) != 1:
        raise ValueError(f"expected one {ROOT} span, found {len(root)}")
    out["trace.op_s"] = root[0][3] - root[0][2]
    for span in spans:
        sid, name, start, end, parent, _, attrs = span
        layer, _, func = name.partition(".")
        duration = end - start
        self_s = own[sid]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += self_s
        if layer in ("states", "metrics"):
            out[f"{layer}.s"] += self_s
        if name in ("detector.build_response", "detector.suggest_m_max", "detector.forward",
                    "landweber.solve", "sampling.sample_counts", "inversion.direct_reconstruct"):
            out[f"{name}.s"] += duration
        if name == "detector.build_response":
            out["detector.build_response.calls"] += 1
            out["detector.entries"] += attrs.get("entries", 0)
        elif name == "landweber.solve":
            out["landweber.solve.calls"] += 1
            out["landweber.iterations"] += attrs.get("iterations", 0)
        elif name == "sampling.sample_counts":
            out["sampling.events"] += attrs.get("events", 0)
        if layer == "distio":
            kind = "read" if func.startswith("read") else "write"
            out[f"distio.{kind}.s"] += self_s
            outermost = parent is None or not by_id[parent][1].startswith("distio.")
            if outermost:
                out[f"distio.{kind}.bytes"] += attrs.get("bytes", 0)
        if "peak_bytes" in attrs and name in ("landweber.solve", "sampling.sample_counts"):
            key = f"{name}.peak_mb"
            out[key] = max(out[key], attrs["peak_bytes"] / 1e6)
    out["special.log_laguerre_nonpos.calls"] += counters.get("special.log_laguerre_nonpos.calls", 0)
    iterations = out["landweber.iterations"]
    out["landweber.us_per_iter"] = out["landweber.solve.s"] / iterations * 1e6 if iterations else 0.0
    accounted = sum(out[f"{layer}.self_s"] for layer in SELF_LAYERS) + out["states.s"] + out["metrics.s"]
    if abs(accounted - out["trace.op_s"]) > 1e-6:
        raise ValueError(f"layer self times sum to {accounted!r} s, op took {out['trace.op_s']!r} s")
    return {name: out.get(name, 0.0) for name in LAYER_UNITS if name != "trace.overhead_s"}
