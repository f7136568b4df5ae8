"""Per-layer tracing wired from outside the package.

Spans are recorded by rebinding module globals of mkvis to timing wrappers
for the duration of a traced pass, then restoring them. Names bound by
``from ... import`` are wrapped where they are called (mkvis.cli,
mkvis.covering, mkvis.solvers, mkvis.blocks); bfs_mkv is wrapped once in
mkvis.kernel, where every sweep resolves it, including those made through
_counts_and_touches. Kernel sweeps are not spans: each one adds to a count,
a summed time and summed edge touches on the innermost open span, so traced
memory grows with solver calls, not with sweeps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, global name, span kind). The kind's prefix is the layer.
TARGETS = (
    ("cli", "parse_edge_list", "graphs.parse"),
    ("cli", "mkv_check", "kernel.check"),
    ("cli", "check_variant", "kernel.check"),
    ("cli", "mu_k", "solvers.solve"),
    ("cli", "mu_k_variant", "solvers.solve"),
    ("cli", "gp_number", "solvers.solve"),
    ("cli", "visibility_polynomial", "solvers.solve"),
    ("cli", "bounds", "solvers.solve"),
    ("cli", "tau_k", "covering.solve"),
    ("cli", "greedy_cover", "covering.solve"),
    ("cli", "block_decomposition", "blocks.decompose"),
    ("cli", "is_block_graph", "blocks.solve"),
    ("cli", "mu_k_block", "blocks.solve"),
    ("covering", "mkv_check", "kernel.check"),
    ("covering", "mu_k", "solvers.solve"),
    ("solvers", "all_pairs_distances", "graphs.distance"),
    ("solvers", "metric_summary", "graphs.distance"),
    ("solvers", "mkv_check", "kernel.check"),
    ("solvers", "check_variant", "kernel.check"),
    ("blocks", "mkv_check", "kernel.check"),
    ("blocks", "block_decomposition", "blocks.decompose"),
)

LAYER_METRICS = {
    "cli.self_s": "s",
    "graphs.parse_s": "s",
    "graphs.parse_calls": "count",
    "graphs.distance_s": "s",
    "graphs.distance_calls": "count",
    "kernel.sweeps": "count",
    "kernel.sweep_s": "s",
    "kernel.edge_touches": "count",
    "kernel.touches_per_sweep": "ratio",
    "kernel.checks": "count",
    "kernel.check_s": "s",
    "kernel.check_ops": "count",
    "kernel.check_pass_ratio": "ratio",
    "solvers.self_s": "s",
    "solvers.search_nodes": "count",
    "solvers.sweeps_per_node": "ratio",
    "solvers.sets_counted": "count",
    "covering.self_s": "s",
    "covering.checks": "count",
    "covering.mu_s": "s",
    "blocks.decompose_s": "s",
    "blocks.self_s": "s",
    "blocks.search_nodes": "count",
    "blocks.verify_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that are exact counts: identical on every run with the same seed.
EXACT_COUNTS = (
    "graphs.parse_calls", "graphs.distance_calls", "kernel.sweeps", "kernel.edge_touches",
    "kernel.checks", "kernel.check_ops", "solvers.search_nodes", "solvers.sets_counted",
    "covering.checks", "blocks.search_nodes",
)


class Span:
    __slots__ = ("kind", "parent", "request", "start", "end", "child_s",
                 "sweeps", "sweep_s", "touches", "nodes", "sets", "ops", "passed")

    def __init__(self, kind, parent, request, start):
        self.kind = kind
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.sweeps = 0
        self.sweep_s = 0.0
        self.touches = 0
        self.nodes = 0
        self.sets = 0
        self.ops = 0
        self.passed = None

    @property
    def layer(self):
        return self.kind.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.sweep_s

    def to_dict(self, index):
        return {"id": index, "kind": self.kind, "parent": self.parent, "request": self.request,
                "start": self.start, "end": self.end, "sweeps": self.sweeps, "sweep_s": self.sweep_s}


class Tracer:
    """Span recorder for one traced pass; spans of a request share its index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, kind, request=None):
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None else -1
        self.spans.append(Span(kind, parent, request, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def request(self, index):
        span = self._open("cli.main", request=index)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, kind, fn):
        def traced(*args, **kwargs):
            span = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.nodes = getattr(result, "nodes_explored", 0)
            coefficients = getattr(result, "coefficients", None)
            if coefficients is not None:
                span.sets = sum(coefficients)
            verdict = getattr(result, "verdict", None)
            if verdict is not None:
                span.passed = verdict
                span.ops = result.ops
            return result
        return traced

    def _wrap_sweep(self, fn):
        def traced_bfs_mkv(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            span = self.spans[self._stack[-1]]
            span.sweeps += 1
            span.sweep_s += elapsed
            span.touches += result.edge_touches
            return result
        return traced_bfs_mkv

    @contextmanager
    def installed(self, modules):
        """Rebind the traced globals in modules (name -> module) until exit."""
        saved = []
        try:
            for mod_name, attr, kind in TARGETS:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(kind, getattr(mod, attr)))
            kernel = modules["kernel"]
            saved.append((kernel, "bfs_mkv", kernel.bfs_mkv))
            kernel.bfs_mkv = self._wrap_sweep(kernel.bfs_mkv)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def layer_metrics(self):
        """Per-layer totals over every recorded span."""
        spans = self.spans

        def total(pred, attr):
            return sum(getattr(s, attr) for s in spans if pred(s))

        def kind_is(*kinds):
            return lambda s: s.kind in kinds

        def parent_layer(layer):
            return lambda s: s.parent is not None and spans[s.parent].layer == layer

        in_solver = [False] * len(spans)
        for i, s in enumerate(spans):
            in_solver[i] = s.layer == "solvers" or (s.parent is not None and in_solver[s.parent])
        checks = [s for s in spans if s.kind == "kernel.check"]
        sweeps = total(lambda s: True, "sweeps")
        solver_sweeps = sum(s.sweeps for i, s in enumerate(spans) if in_solver[i])
        search_nodes = total(kind_is("solvers.solve"), "nodes")
        sets_counted = total(kind_is("solvers.solve"), "sets")
        return {
            "cli.self_s": total(kind_is("cli.main"), "self_s"),
            "graphs.parse_s": total(kind_is("graphs.parse"), "duration"),
            "graphs.parse_calls": sum(1 for s in spans if s.kind == "graphs.parse"),
            "graphs.distance_s": total(kind_is("graphs.distance"), "duration"),
            "graphs.distance_calls": sum(1 for s in spans if s.kind == "graphs.distance"),
            "kernel.sweeps": sweeps,
            "kernel.sweep_s": total(lambda s: True, "sweep_s"),
            "kernel.edge_touches": total(lambda s: True, "touches"),
            "kernel.touches_per_sweep": total(lambda s: True, "touches") / sweeps if sweeps else 0.0,
            "kernel.checks": len(checks),
            "kernel.check_s": sum(s.duration for s in checks),
            "kernel.check_ops": sum(s.ops for s in checks),
            "kernel.check_pass_ratio": sum(1 for s in checks if s.passed) / len(checks) if checks else 0.0,
            "solvers.self_s": total(kind_is("solvers.solve"), "self_s"),
            "solvers.search_nodes": search_nodes,
            # poly's walk visits each counted set once, so sets count as its nodes
            "solvers.sweeps_per_node": (solver_sweeps / (search_nodes + sets_counted)
                                        if search_nodes + sets_counted else 0.0),
            "solvers.sets_counted": sets_counted,
            "covering.self_s": total(kind_is("covering.solve"), "self_s"),
            "covering.checks": sum(1 for s in checks if parent_layer("covering")(s)),
            "covering.mu_s": total(lambda s: s.kind == "solvers.solve" and parent_layer("covering")(s),
                                   "duration"),
            "blocks.decompose_s": total(kind_is("blocks.decompose"), "duration"),
            "blocks.self_s": total(kind_is("blocks.solve"), "self_s"),
            "blocks.search_nodes": total(kind_is("blocks.solve"), "nodes"),
            "blocks.verify_s": sum(s.duration for s in checks if parent_layer("blocks")(s)),
        }
