"""E17: `python -m repro profile <experiment>` end-to-end.

One instrumented comparison slice long enough to reach daylight (the
scenarios start at midnight, so a too-short run never exercises the MPP
path) must produce all three export formats with nonzero solver and
per-technique span data — the acceptance bar for the observability
layer.
"""

import json

import pytest

import repro.obs as obs
from repro import cli


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.REGISTRY.reset()
    obs.TRACER.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()
    obs.TRACER.reset()


@pytest.fixture(scope="module")
def profile_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    exit_code = cli.main(
        ["profile", "comparison", "--hours", "10", "--out", str(out)]
    )
    return exit_code, out


class TestProfileCommand:
    def test_exit_code_and_artifacts(self, profile_run):
        exit_code, out = profile_run
        assert exit_code == 0
        for suffix in (".json", ".prom", ".folded"):
            assert (out / f"profile_comparison{suffix}").exists()

    def test_json_report_has_nonzero_solver_counters(self, profile_run):
        _, out = profile_run
        report = json.loads((out / "profile_comparison.json").read_text())
        values = {m["name"]: m.get("value", 0) for m in report["metrics"]}
        assert values["solver.lambertw_calls"] > 0
        assert values["solver.mpp_iterations"] > 0
        assert values["solver.batch_conditions"] > 0

    def test_json_report_trace_has_per_technique_spans(self, profile_run):
        _, out = profile_run
        report = json.loads((out / "profile_comparison.json").read_text())

        found = []

        def walk(node):
            if node["name"].startswith("technique:"):
                found.append(node)
            for child in node.get("children", ()):
                walk(child)

        walk(report["trace"])
        assert len(found) >= 9  # nine techniques, three scenarios
        assert all(n["total_s"] > 0.0 for n in found)

    def test_prometheus_text_scrapeable(self, profile_run):
        _, out = profile_run
        text = (out / "profile_comparison.prom").read_text()
        assert "# TYPE repro_solver_lambertw_calls_total counter" in text
        assert "repro_solver_lambertw_calls_total 0" not in text

    def test_collapsed_stacks_carry_technique_frames(self, profile_run):
        _, out = profile_run
        folded = (out / "profile_comparison.folded").read_text()
        technique_lines = [l for l in folded.splitlines() if "technique:" in l]
        assert technique_lines
        for line in technique_lines:
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0

    def test_profile_leaves_observability_disabled(self, profile_run):
        assert not obs.is_enabled()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["profile", "not-an-experiment"])
