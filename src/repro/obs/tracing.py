"""Hierarchical run tracing: aggregating spans with monotonic timing.

The second half of the observability layer (the first is
:mod:`repro.obs.metrics`).  A trace is a tree of named spans —

    trace("comparison")
      └─ span("scenario:office-desk")
           └─ span("technique:proposed-S&H-FOCV")
                └─ span("step")            # sampled

— but unlike an event tracer, which would record one entry per span
occurrence (hopeless at 100 k steps/s), each tree node *aggregates* its
occurrences: count, total/min/max wall time, measured with
``time.perf_counter`` (monotonic).  The collapsed tree is exactly what
a flamegraph wants (:func:`repro.obs.export.collapsed_stacks`).

Sampling is decided at the call site: hot loops open a ``"step"`` span
for one in N iterations (the quasi-static engine samples ~16 steps per
run) and report exact step counts through a counter instead.  The tree
then carries *timing shape* while counters carry *exact totals*.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.errors import ModelParameterError


class TraceNode:
    """One name in the span tree, aggregated over its occurrences.

    Attributes:
        name: span name (``"technique:focv"``, ``"step"``, ...).
        count: recorded occurrences.
        total_s: summed wall time, seconds.
        min_s / max_s: extremes over occurrences, seconds.
        children: child spans by name.
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.children: "Dict[str, TraceNode]" = {}

    def child(self, name: str) -> "TraceNode":
        """Get-or-create the child span ``name``."""
        node = self.children.get(name)
        if node is None:
            node = TraceNode(name)
            self.children[name] = node
        return node

    def add(self, duration_s: float) -> None:
        """Fold one occurrence of ``duration_s`` seconds into the node."""
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    @property
    def self_s(self) -> float:
        """Wall time not attributed to children (floored at zero)."""
        child_total = sum(c.total_s for c in self.children.values())
        return max(0.0, self.total_s - child_total)

    def to_dict(self) -> dict:
        """Plain-data (JSON-able) form of the subtree."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "children": [c.to_dict() for c in self.children.values()],
        }


class _NullSpan:
    """The no-op context manager handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """A live span: times the block and pushes itself on the tracer stack."""

    __slots__ = ("_tracer", "_name", "_node", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        stack = self._tracer._stack
        self._node = stack[-1].child(self._name)
        stack.append(self._node)
        self._t0 = time.perf_counter()
        return self._node

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0
        self._node.add(duration)
        stack = self._tracer._stack
        if stack and stack[-1] is self._node:
            stack.pop()
        return False


class Tracer:
    """The span recorder: a root tree plus the currently-open span stack.

    Disabled by default; :func:`repro.obs.enable` flips ``enabled``.
    While disabled, :meth:`span` returns a shared no-op context, so an
    un-instrumented run pays one attribute test per span site.
    """

    def __init__(self):
        self.enabled = False
        self.root = TraceNode("root")
        self._stack = [self.root]

    def span(self, name: str):
        """Context manager timing one occurrence of span ``name``.

        Nested calls build the hierarchy: the span opens as a child of
        whatever span is innermost on entry.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name)

    # ``trace`` is the readability alias for opening a root-level phase:
    # trace("comparison") > span("technique:focv") > span("step").
    trace = span

    def add(self, name: str, duration_s: float) -> None:
        """Record one pre-timed occurrence of ``name`` under the current span.

        The hot-loop alternative to :meth:`span` when the caller already
        holds the duration (saves a context-manager round trip).
        """
        if not self.enabled:
            return
        self._stack[-1].child(name).add(duration_s)

    def reset(self) -> None:
        """Drop the recorded tree (open spans would dangle — reset between runs)."""
        if len(self._stack) > 1:
            raise ModelParameterError(
                f"cannot reset tracer with {len(self._stack) - 1} span(s) still open"
            )
        self.root = TraceNode("root")
        self._stack = [self.root]

    def snapshot(self) -> dict:
        """Plain-data form of the whole recorded tree."""
        return self.root.to_dict()


TRACER = Tracer()
"""The process-wide tracer the engines and runners record into."""


__all__ = ["TraceNode", "Tracer", "TRACER"]
