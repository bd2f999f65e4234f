"""Integration: the example scripts run end to end.

The fast examples execute fully and the adaptive node runs its chunked
loop over a short horizon; the two long ones (24-hour multi-technique
sweeps) are compile-checked and have their core loop exercised in
miniature elsewhere (test_comparison_repro).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 180.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "tracking efficiency" in out
        assert "net harvest" in out
        assert "AM-1815" in out

    def test_coldstart_demo(self):
        out = run_example("coldstart_demo.py", "500")
        assert "metrology wakes" in out
        assert "first PULSE" in out
        assert "converter released" in out

    def test_coldstart_demo_fails_gracefully_in_gloom(self):
        out = run_example("coldstart_demo.py", "2")
        assert "no cold start" in out

    def test_teg_harvester(self):
        out = run_example("teg_harvester.py")
        assert "TEG extension" in out
        assert "k = 0.5" in out

    def test_adaptive_node_steps_one_trace_in_chunks(self):
        # Two run() calls on one simulator: the second must continue
        # along the precomputed trace, not fall off a per-run one.
        out = run_example("adaptive_node.py", "6")
        rows = [line.split() for line in out.splitlines() if line.strip()[:1].isdigit()]
        assert [row[0] for row in rows] == ["3", "6"]
        assert "over 6 h" in out


class TestLongExamplesCompile:
    @pytest.mark.parametrize("name", ["body_worn_sensor.py", "office_monitor.py", "adaptive_node.py"])
    def test_compiles(self, name):
        py_compile.compile(str(EXAMPLES / name), doraise=True)
