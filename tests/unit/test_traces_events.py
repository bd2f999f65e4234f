"""Unit tests for trace recording."""

import pytest

from repro.errors import TraceError
from repro.sim.traces import Trace, TraceSet


class TestTrace:
    def test_append_and_len(self):
        t = Trace("x")
        t.append(0.0, 1.0)
        t.append(1.0, 2.0)
        assert len(t) == 2

    def test_monotonic_time_enforced(self):
        t = Trace("x")
        t.append(1.0, 0.0)
        with pytest.raises(TraceError):
            t.append(0.5, 0.0)

    def test_equal_times_allowed(self):
        t = Trace("x")
        t.append(1.0, 0.0)
        t.append(1.0, 1.0)  # steps/edges
        assert len(t) == 2

    def test_interpolated_at(self):
        t = Trace("x")
        t.append(0.0, 0.0)
        t.append(2.0, 4.0)
        assert t.at(1.0) == pytest.approx(2.0)

    def test_at_empty_raises(self):
        with pytest.raises(TraceError):
            Trace("x").at(0.0)

    def test_window(self):
        t = Trace("x")
        for i in range(10):
            t.append(float(i), float(i))
        w = t.window(2.5, 6.5)
        assert w.minimum() == 3.0
        assert w.maximum() == 6.0

    def test_window_rejects_reversed(self):
        with pytest.raises(TraceError):
            Trace("x").window(2.0, 1.0)

    def test_mean_is_time_weighted(self):
        t = Trace("x")
        # Value 0 for 9 s then 10 for 1 s: time-weighted mean ~ 1, not 5.
        t.append(0.0, 0.0)
        t.append(9.0, 0.0)
        t.append(9.0, 10.0)
        t.append(10.0, 10.0)
        assert t.mean() == pytest.approx(1.0, abs=0.01)

    def test_first_crossing_rising_interpolates(self):
        t = Trace("x")
        t.append(0.0, 0.0)
        t.append(1.0, 2.0)
        assert t.first_crossing(1.0) == pytest.approx(0.5)

    def test_first_crossing_falling(self):
        t = Trace("x")
        t.append(0.0, 2.0)
        t.append(1.0, 0.0)
        assert t.first_crossing(1.0, rising=False) == pytest.approx(0.5)
        assert t.first_crossing(1.0, rising=True) is None

    def test_final(self):
        t = Trace("x")
        t.append(0.0, 7.0)
        assert t.final() == 7.0


class TestTraceSet:
    def test_record_and_lookup(self):
        ts = TraceSet()
        ts.record("a", 0.0, 1.0)
        assert "a" in ts
        assert ts["a"].final() == 1.0

    def test_missing_trace_error_lists_available(self):
        ts = TraceSet()
        ts.record("a", 0.0, 1.0)
        with pytest.raises(TraceError, match="'a'"):
            ts["b"]

    def test_names_sorted(self):
        ts = TraceSet()
        ts.record("b", 0.0, 0.0)
        ts.record("a", 0.0, 0.0)
        assert ts.names() == ["a", "b"]

    def test_declare_idempotent(self):
        ts = TraceSet()
        first = ts.declare("x", unit="V")
        second = ts.declare("x")
        assert first is second

