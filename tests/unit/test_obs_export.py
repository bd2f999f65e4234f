"""Exporters: JSON run-report, Prometheus text, collapsed stacks."""

import json

import pytest

from repro.obs import export
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


@pytest.fixture
def registry():
    r = MetricsRegistry()
    r.counter("solver.calls", "calls made").inc(42)
    r.counter("sim.steps", labels={"technique": "focv"}).inc(100)
    return r


@pytest.fixture
def tracer():
    t = Tracer()
    t.enabled = True
    with t.span("run"):
        with t.span("phase"):
            pass
        t.add("step", 0.5)
    return t


class TestRunReport:
    def test_contains_all_instruments_and_trace(self, registry, tracer):
        report = export.run_report(registry, tracer, note="unit")
        assert report["schema"] == 1
        assert report["note"] == "unit"
        by_name = {(m["name"], tuple(sorted(m["labels"].items()))): m
                   for m in report["metrics"]}
        assert by_name[("solver.calls", ())]["value"] == 42.0
        assert by_name[("solver.calls", ())]["kind"] == "counter"
        assert by_name[("sim.steps", (("technique", "focv"),))]["value"] == 100.0
        assert len(report["metrics"]) == 2
        assert report["trace"]["children"][0]["name"] == "run"

    def test_report_is_json_serialisable(self, registry, tracer):
        json.dumps(export.run_report(registry, tracer))


class TestPrometheusText:
    def test_counter_gets_total_suffix_and_help(self, registry):
        text = export.prometheus_text(registry)
        assert "# HELP repro_solver_calls_total calls made" in text
        assert "# TYPE repro_solver_calls_total counter" in text
        assert "repro_solver_calls_total 42" in text

    def test_labels_rendered(self, registry):
        assert 'repro_sim_steps_total{technique="focv"} 100' in export.prometheus_text(registry)

    def test_names_sanitised(self):
        r = MetricsRegistry()
        r.counter("weird.name-with/chars").inc()
        assert "repro_weird_name_with_chars_total 1" in export.prometheus_text(r)


class TestCollapsedStacks:
    def test_paths_and_self_time(self, tracer):
        folded = export.collapsed_stacks(tracer)
        lines = dict(l.rsplit(" ", 1) for l in folded.strip().splitlines())
        # step's 0.5 s of self time, in integer microseconds.  (phase's
        # real sub-microsecond duration may round to 0 or 1 µs — the
        # zero-omission rule is asserted deterministically below.)
        assert lines["run;step"] == "500000"

    def test_zero_self_time_nodes_omitted(self):
        t = Tracer()
        t.enabled = True
        with t.span("all-in-child"):
            t.add("child", 10.0)
        folded = export.collapsed_stacks(t)
        # Parent total < child total -> parent self time floored to 0 -> omitted.
        assert not any(line.startswith("all-in-child ") for line in folded.splitlines())
        assert "all-in-child;child 10000000" in folded


class TestWriteProfileAndCounters:
    def test_write_profile_emits_three_files(self, registry, tracer, tmp_path):
        paths = export.write_profile(tmp_path / "out", "p", registry, tracer, note="n")
        assert sorted(paths) == ["folded", "json", "prom"]
        for p in paths.values():
            assert p.exists()
        data = json.loads(paths["json"].read_text())
        assert data["note"] == "n"

    def test_counters_dict_folds_labels_and_drops_zeros(self, registry):
        registry.counter("idle")  # zero -> omitted
        flat = export.counters_dict(registry)
        assert flat["solver.calls"] == 42.0
        assert flat["sim.steps{technique=focv}"] == 100.0
        assert "idle" not in flat
