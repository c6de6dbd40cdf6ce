"""Span tracing by wrapping the package's module attributes from outside.

Each wrapped call records a span (op id, layer, parent span, start, end);
spans stay in memory until the run ends.  A layer's self time is the time
of its spans minus the time of their direct children, so the self times of
all layers, plus the op span's own remainder (``cli.self``), add up to the
op wall time exactly.  Counters are taken from the wrapped calls' results,
at the same boundaries.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# layer -> (module, attribute) call sites, all inside cohnibn.
LAYERS = {
    "graphio.parse": [("cli", "parse_graph")],
    "graphio.emit": [("cli", "emit_graph_json"), ("cli", "graph_as_dict")],
    "graphs.validate": [("cli", "validate"), ("decision", "validate")],
    "graphs.incidence": [("cli", "incidence"), ("decision", "incidence")],
    "construct.companion": [("decision", "cohn_companion"), ("decision", "relative_companion")],
    "certificates.solve": [("cli", "solve_exact"), ("decision", "solve_exact"),
                           ("cli", "build_system"), ("decision", "build_system")],
    "certificates.verify": [("decision", "verify_certificate")],
    "rewriting.search": [("decision", "find_scalar_witness")],
    "rewriting.equiv": [("cli", "decide_equivalent"), ("rewriting", "decide_equivalent")],
    "kernels.expand": [("rewriting", "expand_frontier")],
    "decision.self": [("cli", "decide_ibn")],
    "decision.resolve": [("decision", "resolve_target")],
    "decision.audit": [("cli", "audit")],
}
OP_LAYER = "cli.self"

COUNTS = (
    "construct.target_vertices",
    "certificates.weight_bits_max",
    "rewriting.pairs_tried",
    "rewriting.pairs_joined",
    "rewriting.states_generated",
    "rewriting.pruned_firings",
    "rewriting.trace_steps",
    "kernels.calls",
)


def _count(counts: Counter, layer: str, result) -> None:
    if layer == "construct.companion":
        counts["construct.target_vertices"] += len(result.graph.vertices)
    elif layer == "certificates.solve" and hasattr(result, "weights"):
        bits = max((max(w.numerator.bit_length(), w.denominator.bit_length())
                    for w in result.weights), default=0)
        counts["certificates.weight_bits_max"] = max(
            counts["certificates.weight_bits_max"], bits)
    elif layer == "rewriting.equiv":
        counts["rewriting.pairs_tried"] += 1
        if result.status == "equivalent":
            counts["rewriting.pairs_joined"] += 1
            counts["rewriting.trace_steps"] += len(result.trace_a.steps) + len(result.trace_b.steps)
    elif layer == "kernels.expand":
        counts["kernels.calls"] += 1
        counts["rewriting.states_generated"] += int(result[0].shape[0])
        counts["rewriting.pruned_firings"] += int(result[3])


class Tracer:
    """Installs its wrappers on construction; ``close`` puts the originals
    back and ``install`` wraps again."""

    def __init__(self):
        self.spans: list[list] = []  # [op, layer, parent, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.install()

    def install(self) -> None:
        self.absent = []
        for layer, sites in LAYERS.items():
            wrapped = 0
            for mod_name, attr in sites:
                mod = importlib.import_module(f"cohnibn.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, layer))
                wrapped += 1
            if not wrapped:
                self.absent.append(layer)

    def close(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, layer, parent, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][4] = time.perf_counter_ns()

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _count(self.counts, layer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call_op(self, op_id: int, fn, *args):
        """Run one op under a root span of layer ``cli.self``."""
        self.op = op_id
        idx = self._open(OP_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per layer over all spans recorded."""
        child = [0] * len(self.spans)
        for op, layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (op, layer, parent, start, end) in enumerate(self.spans):
            out[layer] += end - start - child[k]
        return dict(out)
