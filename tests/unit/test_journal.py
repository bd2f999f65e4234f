"""The run journal: envelope, durability, lifecycle, concurrency.

The contract under test:

- every event is a self-describing JSONL envelope (schema / run_id /
  seq / pid / t / event);
- the reader tolerates a crash-truncated final line (and ``strict``
  raises :class:`~repro.errors.JournalError` instead);
- ``run_scope`` brackets a run with run-start ... run-end, emits
  guard-error / run-error and **no** run-end on exceptions, and costs
  nothing when journaling is off;
- fork-inherited journals give exactly one line per event across
  forked pool workers (locked O_APPEND writes).
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import JournalError, NumericalGuardError
from repro.obs import journal


@pytest.fixture(autouse=True)
def _clean_journal():
    journal.disable_journal()
    yield
    journal.disable_journal()


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        j = journal.RunJournal(path)
        j.emit(journal.RUN_START, kind="demo", total_steps=10)
        j.emit(journal.PROGRESS, kind="demo", steps_done=4)
        j.emit(journal.RUN_END, kind="demo", steps_done=10)

        events = journal.read_journal(path)
        assert [e["event"] for e in events] == [
            journal.RUN_START, journal.PROGRESS, journal.RUN_END,
        ]
        for e in events:
            assert e["schema"] == journal.JOURNAL_SCHEMA
            assert e["run_id"] == j.run_id
            assert e["pid"] == os.getpid()
            assert isinstance(e["t"], float)
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[1]["steps_done"] == 4

    def test_payload_cannot_shadow_envelope(self, tmp_path):
        path = tmp_path / "run.jsonl"
        j = journal.RunJournal(path, run_id="fixed")
        j.emit("custom", run_id="spoof", seq=999)
        (event,) = journal.read_journal(path)
        assert event["run_id"] == "fixed"
        assert event["seq"] == 0

    def test_non_serializable_payload_goes_through_repr(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.RunJournal(path).emit("custom", payload=object())
        (event,) = journal.read_journal(path)
        assert "object object" in event["payload"]

    def test_spec_fingerprint_stable_and_short(self):
        a = journal.spec_fingerprint({"b": 2, "a": 1})
        b = journal.spec_fingerprint({"a": 1, "b": 2})
        assert a == b and len(a) == 12
        assert journal.spec_fingerprint({"a": 2, "b": 2}) != a


class TestTruncationTolerance:
    def test_reader_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        j = journal.RunJournal(path)
        j.emit(journal.RUN_START, kind="demo")
        j.emit(journal.PROGRESS, kind="demo", steps_done=1)
        # Simulate a SIGKILL mid-append: the last line is torn.
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])

        events = journal.read_journal(path)
        assert [e["event"] for e in events] == [journal.RUN_START]

    def test_reader_skips_non_object_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.RunJournal(path).emit(journal.RUN_START, kind="demo")
        with path.open("a") as fh:
            fh.write('"a bare string"\n')
        journal.RunJournal(path).emit(journal.RUN_END, kind="demo")
        assert len(journal.read_journal(path)) == 2

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.RunJournal(path).emit(journal.RUN_START, kind="demo")
        with path.open("a") as fh:
            fh.write("{torn")
        with pytest.raises(JournalError) as err:
            journal.read_journal(path, strict=True)
        assert err.value.line_number == 2

    def test_missing_file_reads_empty(self, tmp_path):
        assert journal.read_journal(tmp_path / "absent.jsonl") == []


class TestSubscribers:
    def test_subscribe_and_unsubscribe(self):
        j = journal.RunJournal()  # in-process only
        seen = []
        unsubscribe = j.subscribe(seen.append)
        j.emit(journal.PROGRESS, steps_done=1)
        unsubscribe()
        j.emit(journal.PROGRESS, steps_done=2)
        assert [e["steps_done"] for e in seen] == [1]

    def test_broken_subscriber_never_raises(self):
        j = journal.RunJournal()

        def boom(event):
            raise RuntimeError("observer bug")

        j.subscribe(boom)
        j.emit(journal.PROGRESS, steps_done=1)
        assert j.subscriber_errors == 1


class TestModuleSlot:
    def test_disabled_emit_is_noop(self):
        assert journal.JOURNAL is None
        assert journal.emit(journal.PROGRESS, steps_done=1) is None

    def test_enable_disable(self, tmp_path):
        j = journal.enable_journal(tmp_path / "run.jsonl")
        assert journal.get_journal() is j
        journal.disable_journal()
        assert journal.get_journal() is None

    def test_env_var_activation(self, tmp_path):
        import subprocess
        import sys

        path = tmp_path / "env.jsonl"
        code = (
            "from repro.obs import journal; "
            "journal.emit(journal.PROGRESS, steps_done=3)"
        )
        env = dict(os.environ, REPRO_JOURNAL=str(path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (os.path.join(os.getcwd(), "src"),)]
            + [env.get("PYTHONPATH", "")]
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        (event,) = journal.read_journal(path)
        assert event["steps_done"] == 3


class TestRunScope:
    def test_disabled_returns_null_scope(self):
        scope = journal.run_scope("demo")
        assert scope is journal.NULL_SCOPE
        with scope as s:
            with s.phase("anything"):
                s.advance(3)
            s.campaign_start("c")
            s.campaign_end("c")

    def test_lifecycle_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        with journal.run_scope("demo", spec={"x": 1}, total_steps=10) as scope:
            with scope.phase("warm"):
                scope.advance(4)
            scope.advance_to(10)
        events = journal.read_journal(path)
        names = [e["event"] for e in events]
        assert names == [
            journal.RUN_START,
            journal.PHASE_START,
            journal.PROGRESS,
            journal.PHASE_END,
            journal.PROGRESS,
            journal.RUN_END,
        ]
        start, end = events[0], events[-1]
        assert start["fingerprint"] == journal.spec_fingerprint({"x": 1})
        assert start["resumed_steps"] == 0
        assert end["steps_done"] == 10 and end["total_steps"] == 10
        # The progress inside the phase is tagged with it.
        assert events[2]["phase"] == "warm"
        assert events[4]["phase"] is None

    def test_guard_error_suppresses_run_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        with pytest.raises(NumericalGuardError):
            with journal.run_scope("demo", total_steps=5):
                raise NumericalGuardError("diverged", signal="v", time=1.5)
        names = [e["event"] for e in journal.read_journal(path)]
        assert names == [journal.RUN_START, journal.GUARD_ERROR]

    def test_other_errors_emit_run_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        with pytest.raises(ValueError):
            with journal.run_scope("demo"):
                raise ValueError("boom")
        names = [e["event"] for e in journal.read_journal(path)]
        assert names == [journal.RUN_START, journal.RUN_ERROR]

    def test_nested_scope_has_no_lifecycle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        with journal.run_scope("outer", total_steps=2) as outer:
            with journal.run_scope("inner", total_steps=99) as inner:
                inner.advance(1)
            outer.advance(2)
        events = journal.read_journal(path)
        starts = [e for e in events if e["event"] == journal.RUN_START]
        ends = [e for e in events if e["event"] == journal.RUN_END]
        assert len(starts) == 1 and starts[0]["kind"] == "outer"
        assert len(ends) == 1 and ends[0]["kind"] == "outer"
        # Inner progress still flows, tagged with the inner kind.
        kinds = [e["kind"] for e in events if e["event"] == journal.PROGRESS]
        assert kinds == ["inner", "outer"]

    def test_resumed_steps_recorded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        with journal.run_scope("demo", total_steps=10, resumed_steps=6) as scope:
            scope.advance(4)
        events = journal.read_journal(path)
        assert events[0]["resumed_steps"] == 6
        assert events[-1]["steps_done"] == 10


def _journal_work(x):
    journal.emit("worker-event", index=x)
    return x


class TestConcurrentWriters:
    def test_exactly_once_across_process_workers(self, tmp_path):
        """Fork-inherited journal: one intact line per event, no tears."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork-inherited journal requires the fork start method")
        path = tmp_path / "run.jsonl"
        journal.enable_journal(path)
        n = 24
        with multiprocessing.get_context("fork").Pool(4) as pool:
            results = pool.map(_journal_work, range(n))
        assert results == list(range(n))
        lines = path.read_text().splitlines()
        assert len(lines) == n
        events = [json.loads(line) for line in lines]  # every line intact
        assert sorted(e["index"] for e in events) == list(range(n))
        assert len({e["pid"] for e in events}) >= 1

    def test_two_journals_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        a = journal.RunJournal(path, run_id="a")
        b = journal.RunJournal(path, run_id="b")
        for i in range(10):
            (a if i % 2 else b).emit("ping", i=i)
        events = journal.read_journal(path)
        assert len(events) == 10
        assert {e["run_id"] for e in events} == {"a", "b"}
