"""Spans at mlstar's module boundaries, recorded from outside the package.

install() replaces every function that one mlstar module imports from
another, in the importing module's namespace, with a wrapper that records a
span: a name, a start, an end and the enclosing span. Calls inside one
module stay unwrapped, so a layer's self time (its spans minus their child
spans) is the time spent in that module's own code. Functions a module
imports inside a function body are looked up at call time and so are not
wrapped.

Spans are aggregated as they close, so a long run holds a few counters, not
millions of records; the first SPAN_SAMPLE_CAP spans are also kept whole.
Importing this module imports neither numpy nor json, so it does not shift
the package import time it measures.
"""

from __future__ import annotations

import functools
import time
import types

LAYERS = ("package", "cli", "jobs", "certify", "orders", "operators",
          "mittag_leffler", "numerics")
MODULES = ("cli", "jobs", "certify", "orders", "operators", "mittag_leffler", "numerics")
SPAN_SAMPLE_CAP = 5000


class Tracer:
    """Span stack and per-layer aggregates for one process."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.series_points = 0      # complex arguments passed into mittag_leffler
        self.grid_points = 0        # points sampled by certificates
        self.failed_points = 0      # grid points a certificate could not evaluate
        self.report_ns = 0          # report building and JSON encoding
        self.spans = []             # (id, parent, name, start_ns, end_ns), capped
        self._stack = []            # [span id, time covered by child spans]
        self._next_id = 0

    def record(self, layer: str, name: str, start: int, end: int, report: bool = False):
        """Close a span measured by the caller; wrap() uses the same path."""
        self._close(layer, name, self._next_id, None, start, end, 0, report)
        self._next_id += 1

    def _close(self, layer, name, span_id, parent, start, end, child_ns, report):
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        if report:
            self.report_ns += duration
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < SPAN_SAMPLE_CAP:
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, layer: str, name: str, fn, report: bool = False):
        """fn with every call recorded as a span of the given layer."""
        stack = self._stack
        clock = time.perf_counter_ns
        counts_points = layer == "mittag_leffler"
        counts_grid = layer == "certify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            if counts_points:
                z = args[1] if len(args) > 1 else kwargs.get("z")
                self.series_points += getattr(z, "size", 1)  # ndarray or scalar
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(layer, name, span_id, parent, start, end, frame[1], report)
            if counts_grid and hasattr(result, "failed_count"):
                self.grid_points += result.grid.total_points()
                self.failed_points += result.failed_count
            return result

        return traced

    def install(self):
        """Wrap the cross-module imports of every mlstar module; returns their count.

        Also wraps ReportDocument.to_dict and the JSON encoder the CLI uses,
        which together make up report building.
        """
        import importlib
        import json as json_module

        wrapped = 0
        modules = [importlib.import_module(f"mlstar.{name}") for name in MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__
                if owner == module.__name__ or not owner.startswith("mlstar."):
                    continue
                layer = owner.rsplit(".", 1)[1]
                setattr(module, attr, self.wrap(layer, f"{layer}.{obj.__name__}", obj))
                wrapped += 1
        jobs, cli = modules[1], modules[0]
        jobs.ReportDocument.to_dict = self.wrap(
            "jobs", "jobs.report", jobs.ReportDocument.to_dict, report=True)
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json_module))
        proxy.dump = self.wrap("cli", "cli.json.dump", json_module.dump, report=True)
        proxy.dumps = self.wrap("cli", "cli.json.dumps", json_module.dumps, report=True)
        cli.json = proxy
        return wrapped

    def summary(self) -> dict:
        return {
            "self_s": {layer: ns * 1e-9 for layer, ns in self.self_ns.items()},
            "calls": dict(self.calls),
            "series_points": self.series_points,
            "grid_points": self.grid_points,
            "failed_points": self.failed_points,
            "report_s": self.report_ns * 1e-9,
        }
