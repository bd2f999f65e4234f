"""The aggregating span tracer: hierarchy, timing, reset, snapshot."""

import pytest

from repro.errors import ModelParameterError
from repro.obs.tracing import TraceNode, Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.enabled = True
    return t


class TestTraceNode:
    def test_add_aggregates(self):
        node = TraceNode("n")
        node.add(1.0)
        node.add(3.0)
        assert node.count == 2
        assert node.total_s == 4.0
        assert node.min_s == 1.0
        assert node.max_s == 3.0

    def test_self_time_excludes_children(self):
        node = TraceNode("parent")
        node.add(10.0)
        node.child("a").add(3.0)
        node.child("b").add(4.0)
        assert node.self_s == pytest.approx(3.0)

    def test_self_time_floors_at_zero(self):
        # A sampled child can out-total its parent; widths must not go negative.
        node = TraceNode("parent")
        node.add(1.0)
        node.child("a").add(2.0)
        assert node.self_s == 0.0


class TestTracer:
    def test_disabled_span_records_nothing(self):
        t = Tracer()
        with t.span("anything"):
            pass
        assert t.root.children == {}

    def test_nested_spans_build_hierarchy(self, tracer):
        with tracer.trace("run"):
            with tracer.span("phase"):
                pass
            with tracer.span("phase"):
                pass
        run = tracer.root.children["run"]
        assert run.count == 1
        assert run.children["phase"].count == 2

    def test_span_timing_is_positive_and_nested_leq_parent(self, tracer):
        with tracer.trace("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.root.children["outer"]
        inner = outer.children["inner"]
        assert 0.0 < inner.total_s <= outer.total_s

    def test_add_records_under_current_span(self, tracer):
        with tracer.trace("run"):
            tracer.add("step", 0.25)
            tracer.add("step", 0.75)
        step = tracer.root.children["run"].children["step"]
        assert step.count == 2
        assert step.total_s == 1.0

    def test_reset_refuses_with_open_span(self, tracer):
        ctx = tracer.span("open")
        ctx.__enter__()
        with pytest.raises(ModelParameterError):
            tracer.reset()
        ctx.__exit__(None, None, None)
        tracer.reset()
        assert tracer.root.children == {}

    def test_snapshot_is_plain_data(self, tracer):
        with tracer.trace("run"):
            pass
        snap = tracer.snapshot()
        assert snap["name"] == "root"
        assert snap["children"][0]["name"] == "run"
