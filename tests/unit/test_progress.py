"""Progress/ETA estimation over journal events.

The estimator is replay-deterministic: all rates come from the
wall-clock stamps *inside* the events, so feeding a journal file back
through :func:`repro.obs.progress.replay_journal` reconstructs exactly
what a live subscriber saw.  The kill-and-resume contract — cumulative
progress never below the pre-kill value, exactly one run-end — is
asserted here on synthetic journals (and end-to-end, with a real
SIGKILL, in ``tests/integration/test_journal_resume.py``).
"""

import io

import pytest

from repro.obs import journal
from repro.obs.progress import (
    ProgressEstimator,
    ProgressTicker,
    _format_duration,
    replay_journal,
)


def _ev(name, t, **payload):
    return {"event": name, "t": t, **payload}


class TestEstimatorMath:
    def test_fraction_and_eta_from_embedded_timestamps(self):
        est = ProgressEstimator(alpha=1.0)  # no smoothing: exact rates
        est.observe(_ev(journal.RUN_START, 100.0, kind="demo", total_steps=100))
        est.observe(_ev(journal.PROGRESS, 101.0, kind="demo", steps_done=10))
        est.observe(_ev(journal.PROGRESS, 102.0, kind="demo", steps_done=30))

        assert est.fraction == pytest.approx(0.30)
        assert est.steps_per_s == pytest.approx(20.0)
        assert est.eta_s == pytest.approx(70.0 / 20.0)
        assert est.elapsed_s == pytest.approx(2.0)
        assert not est.finished

    def test_ewma_smooths_rates(self):
        est = ProgressEstimator(alpha=0.5)
        est.observe(_ev(journal.RUN_START, 0.0, kind="d", total_steps=100))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="d", steps_done=10))   # seed
        est.observe(_ev(journal.PROGRESS, 2.0, kind="d", steps_done=20))   # 10/s
        est.observe(_ev(journal.PROGRESS, 3.0, kind="d", steps_done=50))   # 30/s
        assert est.steps_per_s == pytest.approx(0.5 * 30.0 + 0.5 * 10.0)

    def test_per_phase_rates(self):
        est = ProgressEstimator(alpha=1.0)
        est.observe(_ev(journal.RUN_START, 0.0, kind="d", total_steps=40))
        est.observe(_ev(journal.PHASE_START, 0.0, kind="d", phase="a"))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="d", steps_done=10, phase="a"))
        est.observe(_ev(journal.PROGRESS, 2.0, kind="d", steps_done=20, phase="a"))
        est.observe(_ev(journal.PHASE_END, 2.0, kind="d", phase="a"))
        est.observe(_ev(journal.PHASE_START, 2.0, kind="d", phase="b"))
        est.observe(_ev(journal.PROGRESS, 3.0, kind="d", steps_done=25, phase="b"))
        assert est.phase_rates["a"] == pytest.approx(10.0)
        assert est.phase_rates["b"] == pytest.approx(5.0)

    def test_monotonic_counter_ignores_regressions(self):
        est = ProgressEstimator()
        est.observe(_ev(journal.RUN_START, 0.0, kind="d", total_steps=10))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="d", steps_done=8))
        est.observe(_ev(journal.PROGRESS, 2.0, kind="d", steps_done=3))
        assert est.steps_done == 8

    def test_event_tallies(self):
        # Older journals can still carry the retired worker-* events;
        # replay must ignore them without disturbing the live tallies.
        legacy = ("worker-retry", "worker-retry", "worker-quarantine", "worker-stall")
        assert not set(legacy) & set(journal.EVENTS)
        est = ProgressEstimator()
        for name in (
            *legacy,
            journal.CHECKPOINT_SAVE, journal.CHECKPOINT_RESTORE,
            journal.GUARD_ERROR,
        ):
            est.observe(_ev(name, 1.0))
        assert est.checkpoint_saves == 1
        assert est.checkpoint_restores == 1
        assert est.guard_errors == 1
        assert not any(key.startswith("worker_") for key in est.to_dict())

    def test_render_and_to_dict(self):
        est = ProgressEstimator(alpha=1.0)
        est.observe(_ev(journal.RUN_START, 0.0, kind="endurance", total_steps=100))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="endurance", steps_done=25))
        est.observe(_ev(journal.PROGRESS, 2.0, kind="endurance", steps_done=50))
        line = est.render()
        assert "endurance" in line and "50.0 %" in line and "ETA" in line
        snap = est.to_dict()
        assert snap["fraction"] == pytest.approx(0.5)
        assert snap["kind"] == "endurance"

    def test_format_duration(self):
        assert _format_duration(75) == "0:01:15"
        assert _format_duration(3 * 86400 + 3661) == "3 d 1:01:01"


class TestResumeContract:
    def test_kill_and_resume_is_cumulative(self):
        """A killed run (no run-end) then a resumed one: progress never
        drops below the pre-kill value, exactly one run-end."""
        est = ProgressEstimator()
        # Attempt 1 — killed after 60/100 (no run-end event).
        est.observe(_ev(journal.RUN_START, 0.0, kind="endurance",
                        total_steps=100, resumed_steps=0))
        est.observe(_ev(journal.PROGRESS, 5.0, kind="endurance", steps_done=60))
        pre_kill = est.steps_done
        # Attempt 2 — resumed from the last checkpoint (50).
        est.observe(_ev(journal.RUN_START, 60.0, kind="endurance",
                        total_steps=100, resumed_steps=50))
        assert est.steps_done >= pre_kill  # monotonic across the resume
        est.observe(_ev(journal.PROGRESS, 61.0, kind="endurance", steps_done=80))
        est.observe(_ev(journal.PROGRESS, 62.0, kind="endurance", steps_done=100))
        est.observe(_ev(journal.RUN_END, 62.0, kind="endurance",
                        steps_done=100, total_steps=100))
        assert est.steps_done == 100
        assert est.run_start_count == 2
        assert est.run_end_count == 1
        assert est.finished

    def test_resume_does_not_rate_against_dead_clock(self):
        """The first progress after a resume must not produce a bogus
        rate spanning the crash gap."""
        est = ProgressEstimator(alpha=1.0)
        est.observe(_ev(journal.RUN_START, 0.0, kind="d", total_steps=100))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="d", steps_done=10))
        est.observe(_ev(journal.PROGRESS, 2.0, kind="d", steps_done=20))
        # Crash; resume 1000 s later.
        est.observe(_ev(journal.RUN_START, 1000.0, kind="d",
                        total_steps=100, resumed_steps=20))
        rate_before = est.steps_per_s
        est.observe(_ev(journal.PROGRESS, 1001.0, kind="d", steps_done=30))
        assert est.steps_per_s == rate_before  # seed only, no 980 s sample
        est.observe(_ev(journal.PROGRESS, 1002.0, kind="d", steps_done=40))
        assert est.steps_per_s == pytest.approx(10.0)

    def test_sequential_runs_reset_after_run_end(self):
        """A run-start after a *completed* run is a new run, not a
        resume — counters restart from its own baseline."""
        est = ProgressEstimator()
        est.observe(_ev(journal.RUN_START, 0.0, kind="a", total_steps=100))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="a", steps_done=100))
        est.observe(_ev(journal.RUN_END, 1.0, kind="a", steps_done=100))
        est.observe(_ev(journal.RUN_START, 2.0, kind="b", total_steps=10))
        assert est.steps_done == 0
        assert est.kind == "b"
        est.observe(_ev(journal.PROGRESS, 3.0, kind="b", steps_done=4))
        assert est.fraction == pytest.approx(0.4)

    def test_nested_kind_progress_is_ignored(self):
        est = ProgressEstimator()
        est.observe(_ev(journal.RUN_START, 0.0, kind="strings"))
        est.observe(_ev(journal.PROGRESS, 1.0, kind="comparison",
                        steps_done=500, total_steps=500))
        assert est.steps_done == 0
        assert est.total_steps is None


class TestReplayJournal:
    def test_replay_matches_live_subscription(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        live = ProgressEstimator()
        journal.JOURNAL.subscribe(live.observe)
        try:
            with journal.run_scope("demo", total_steps=6) as scope:
                for _ in range(3):
                    scope.advance(2)
        finally:
            journal.disable_journal()
        replayed = replay_journal(path)
        assert replayed.to_dict() == live.to_dict()
        assert replayed.finished and replayed.steps_done == 6


class TestTicker:
    def test_ticker_paints_and_closes(self):
        out = io.StringIO()
        ticker = ProgressTicker(stream=out, min_interval_s=0.0)
        ticker.on_event(_ev(journal.RUN_START, 0.0, kind="demo", total_steps=4))
        ticker.on_event(_ev(journal.PROGRESS, 1.0, kind="demo", steps_done=2))
        ticker.on_event(_ev(journal.RUN_END, 2.0, kind="demo", steps_done=4))
        ticker.close()
        text = out.getvalue()
        assert "\r" in text
        assert "done" in text
        assert text.endswith("\n")

    def test_ticker_throttles_repaints(self):
        out = io.StringIO()
        ticker = ProgressTicker(stream=out, min_interval_s=3600.0)
        ticker.on_event(_ev(journal.RUN_START, 0.0, kind="demo", total_steps=100))
        first = out.getvalue()
        for i in range(20):
            ticker.on_event(_ev(journal.PROGRESS, float(i), kind="demo",
                                steps_done=i))
        assert out.getvalue() == first  # throttled: nothing repainted
        ticker.on_event(_ev(journal.RUN_END, 30.0, kind="demo", steps_done=100))
        assert "done" in out.getvalue()  # final events always paint

    def test_ticker_survives_closed_stream(self):
        out = io.StringIO()
        ticker = ProgressTicker(stream=out, min_interval_s=0.0)
        ticker.on_event(_ev(journal.RUN_START, 0.0, kind="demo", total_steps=2))
        out.close()
        ticker.on_event(_ev(journal.PROGRESS, 1.0, kind="demo", steps_done=1))
        ticker.close()  # no raise
