"""Ledger path resolution: explicit error instead of a silent CWD fallback."""

import json

import pytest

from repro.errors import TelemetryPathError
from repro.sim import telemetry
from repro.sim.telemetry import PerfSample, bench_path, record_perf


class TestBenchPath:
    def test_resolves_repo_root_in_checkout(self, monkeypatch):
        monkeypatch.delenv(telemetry._ENV_OVERRIDE, raising=False)
        path = bench_path()
        assert path.name == telemetry.BENCH_FILENAME
        assert (path.parent / "pyproject.toml").exists()

    def test_rootless_layout_raises_not_cwd(self, monkeypatch, tmp_path):
        # Pretend the module lives in an installed copy with no
        # pyproject.toml anywhere above it.
        fake = tmp_path / "site-packages" / "repro" / "sim" / "telemetry.py"
        fake.parent.mkdir(parents=True)
        monkeypatch.delenv(telemetry._ENV_OVERRIDE, raising=False)
        monkeypatch.setattr(telemetry, "_MODULE_PATH", fake)
        with pytest.raises(TelemetryPathError) as excinfo:
            bench_path()
        # The message must hand the operator the way out.
        assert telemetry._ENV_OVERRIDE in str(excinfo.value)

    def test_env_override_wins_even_when_rootless(self, monkeypatch, tmp_path):
        fake = tmp_path / "nowhere" / "telemetry.py"
        fake.parent.mkdir(parents=True)
        monkeypatch.setattr(telemetry, "_MODULE_PATH", fake)
        target = tmp_path / "my_ledger.json"
        monkeypatch.setenv(telemetry._ENV_OVERRIDE, str(target))
        assert bench_path() == target


class TestRecordPerfCounters:
    def _sample(self):
        sample = PerfSample(experiment="unit_exp", steps=1000)
        sample.wall_s = 0.5
        return sample

    def test_counters_embedded_sorted(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        entry = record_perf(
            self._sample(),
            note="unit",
            path=ledger,
            counters={"b.second": 2.0, "a.first": 1.0},
        )
        assert list(entry["counters"]) == ["a.first", "b.second"]
        on_disk = json.loads(ledger.read_text())
        assert on_disk["experiments"]["unit_exp"][-1]["counters"]["a.first"] == 1.0

    def test_counters_omitted_when_absent(self, tmp_path):
        entry = record_perf(self._sample(), path=tmp_path / "ledger.json")
        assert "counters" not in entry


class TestHostFingerprint:
    def _sample(self, steps_per_s=2000.0, experiment="gate_exp"):
        sample = telemetry.PerfSample(experiment=experiment, steps=1000)
        sample.wall_s = 1000 / steps_per_s
        return sample

    def test_entries_stamped_with_host(self, tmp_path):
        entry = record_perf(self._sample(), path=tmp_path / "ledger.json")
        assert entry["host"] == telemetry.host_fingerprint()
        assert set(entry["host"]) == {"python", "numpy", "cpu_count"}

    def test_pre_fingerprint_entries_stay_readable(self, tmp_path):
        # A ledger written before host stamping existed: no "host" key.
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({
            "schema": 1,
            "experiments": {"gate_exp": [
                {"wall_s": 1.0, "steps": 1000, "steps_per_s": 1000.0,
                 "note": "old", "recorded": "2026-01-01T00:00:00+00:00"},
            ]},
        }))
        assert telemetry.latest("gate_exp", path=ledger)["note"] == "old"
        record_perf(self._sample(), path=ledger)
        history = json.loads(ledger.read_text())["experiments"]["gate_exp"]
        assert len(history) == 2 and "host" not in history[0]
