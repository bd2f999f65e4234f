"""Unit tests for the service control plane (repro.service.queue).

The runner is injected everywhere, so these cover the whole failure
machinery — retries, quarantine, backpressure, coalescing, supervision,
drain, crash recovery — in milliseconds, with no HTTP and no real
experiments.
"""

import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
    ServiceError,
)
from repro.obs import journal
from repro.service.jobstore import (
    CANCELLED,
    QUARANTINED,
    QUEUED,
    SUCCEEDED,
)
from repro.service.queue import JobService, backoff_delay

ENDURANCE = {"kind": "endurance", "params": {"days": 1}}
MONTECARLO = {"kind": "montecarlo", "params": {"boards": 10}}


def ok_runner(spec, **kwargs):
    return {"kind": spec.kind, "ok": True}


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_state(service, job_id, state, timeout=10.0):
    assert wait_for(
        lambda: service.get(job_id).state == state, timeout=timeout
    ), f"job {job_id} stuck in {service.get(job_id).state!r}, wanted {state!r}"
    return service.get(job_id)


@pytest.fixture
def make_service(tmp_path):
    services = []

    def factory(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("backoff_cap", 0.05)
        kwargs.setdefault("runner", ok_runner)
        service = JobService(tmp_path / "jobs", **kwargs)
        services.append(service)
        service.start()
        return service

    yield factory
    for service in services:
        service.close()


class TestBackoffDelay:
    def test_deterministic(self):
        fp = "deadbeef" + "0" * 56
        assert backoff_delay(fp, 1, 0.1, 5.0) == backoff_delay(fp, 1, 0.1, 5.0)

    @pytest.mark.parametrize(
        "fingerprint, attempt, expected",
        [
            ("deadbeef" + "0" * 56, 1, 0.12),
            ("deadbeef" + "0" * 56, 3, 0.48040000000000005),
            ("a" * 64, 2, 0.2332),
            ("0123abcd" + "f" * 56, 6, 3.6528),
        ],
    )
    def test_pinned_delays(self, fingerprint, attempt, expected):
        # Bit-exact: a changed hash or formula reschedules every retry.
        assert backoff_delay(fingerprint, attempt, 0.1, 5.0) == expected

    def test_exponential_envelope_and_cap(self):
        fp = "deadbeef" + "0" * 56
        delays = [backoff_delay(fp, a, 0.1, 1.0) for a in (1, 2, 3, 4, 5, 6)]
        # un-jittered base doubles until the cap; jitter adds at most 50%
        for attempt, delay in enumerate(delays, start=1):
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.5

    def test_jitter_decorrelates_specs(self):
        a = backoff_delay("a" * 64, 1, 0.1, 5.0)
        b = backoff_delay("b" * 64, 1, 0.1, 5.0)
        assert a != b
        delays = {backoff_delay(f"{i:08x}" + "0" * 56, 1, 0.1, 5.0) for i in range(20)}
        assert len(delays) > 10


def _fp(key: int) -> str:
    """Fingerprint whose jitter key is ``key``: "spec number ``key``"."""
    return f"{key:08x}" + "0" * 56


class TestDeterministicBackoff:
    def test_exponential_growth_and_cap(self):
        base = backoff_delay(_fp(0), 1, 0.1, 5.0)
        doubled = backoff_delay(_fp(0), 2, 0.1, 5.0)
        assert 0.1 <= base <= 0.15  # base + up to 50% jitter
        assert 0.2 <= doubled <= 0.3
        capped = backoff_delay(_fp(0), 30, 0.1, 5.0)
        assert capped <= 7.5  # cap + max jitter

    def test_jitter_is_reproducible(self):
        assert backoff_delay(_fp(7), 3, 0.1, 5.0) == backoff_delay(_fp(7), 3, 0.1, 5.0)

    def test_jitter_decorrelates_specs(self):
        delays = {backoff_delay(_fp(i), 1, 0.1, 5.0) for i in range(20)}
        assert len(delays) > 10


class TestHappyPath:
    def test_submit_runs_to_success(self, make_service):
        service = make_service()
        record, coalesced = service.submit(ENDURANCE)
        assert not coalesced and record.state == QUEUED
        final = wait_state(service, record.job_id, SUCCEEDED)
        assert final.result == {"kind": "endurance", "ok": True}
        assert final.attempts == 1
        assert final.error is None

    def test_record_is_persisted_across_transitions(self, make_service):
        service = make_service()
        record, _ = service.submit(ENDURANCE)
        wait_state(service, record.job_id, SUCCEEDED)
        stored = service.store.load(record.job_id)
        assert stored.state == SUCCEEDED
        assert stored.result == {"kind": "endurance", "ok": True}

    def test_invalid_spec_rejected_before_admission(self, make_service):
        service = make_service()
        with pytest.raises(ConfigError):
            service.submit({"kind": "endurance", "params": {"days": -2}})
        assert service.depth() == 0

    def test_get_unknown_job_raises(self, make_service):
        service = make_service()
        with pytest.raises(JobNotFoundError):
            service.get("ffffffffffff-000404")


class TestRetryAndQuarantine:
    def test_transient_failure_retries_to_success(self, make_service):
        calls = []

        def flaky(spec, **kwargs):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError(f"transient #{len(calls)}")
            return {"ok": True}

        service = make_service(runner=flaky, max_attempts=3)
        record, _ = service.submit(ENDURANCE)
        final = wait_state(service, record.job_id, SUCCEEDED)
        assert final.attempts == 3
        assert final.error is None
        assert len(calls) == 3

    def test_poison_job_quarantined_with_traceback(self, make_service):
        def poison(spec, **kwargs):
            raise ValueError("poisoned payload: unobtainium")

        service = make_service(runner=poison, max_attempts=2)
        record, _ = service.submit(ENDURANCE)
        final = wait_state(service, record.job_id, QUARANTINED)
        assert final.attempts == 2
        assert "ValueError: poisoned payload: unobtainium" in final.error
        assert "Traceback" in final.error
        # persisted dead letter, traceback included
        assert "unobtainium" in service.store.load(record.job_id).error

    def test_siblings_complete_while_poison_job_quarantines(self, make_service):
        def selective(spec, **kwargs):
            if spec.kind == "montecarlo":
                raise RuntimeError("only montecarlo is poisoned")
            return {"ok": True}

        service = make_service(runner=selective, max_attempts=3, workers=2)
        poison, _ = service.submit(MONTECARLO)
        siblings = [
            service.submit({"kind": "endurance", "params": {"days": d}})[0]
            for d in (1, 2, 3)
        ]
        for record in siblings:
            wait_state(service, record.job_id, SUCCEEDED)
        final = wait_state(service, poison.job_id, QUARANTINED)
        assert final.attempts == 3

    def test_quarantined_spec_can_be_resubmitted(self, make_service):
        def poison(spec, **kwargs):
            raise RuntimeError("nope")

        service = make_service(runner=poison, max_attempts=1)
        record, _ = service.submit(ENDURANCE)
        wait_state(service, record.job_id, QUARANTINED)
        fresh, coalesced = service.submit(ENDURANCE)
        assert not coalesced
        assert fresh.job_id != record.job_id


class TestBackpressure:
    def test_queue_full_raises_429_material(self, make_service):
        service = make_service(workers=0, queue_depth=2)
        service.submit({"kind": "endurance", "params": {"days": 1}})
        service.submit({"kind": "endurance", "params": {"days": 2}})
        with pytest.raises(QueueFullError) as excinfo:
            service.submit({"kind": "endurance", "params": {"days": 3}})
        assert excinfo.value.retry_after > 0
        assert service.depth() == 2

    def test_draining_rejects_submissions(self, make_service):
        service = make_service(workers=0)
        service.begin_drain()
        with pytest.raises(ServiceDrainingError):
            service.submit(ENDURANCE)

    def test_duplicate_spec_coalesces_onto_live_job(self, make_service):
        service = make_service(workers=0, queue_depth=1)
        first, coalesced_a = service.submit(ENDURANCE)
        second, coalesced_b = service.submit(dict(ENDURANCE))
        assert not coalesced_a and coalesced_b
        assert second.job_id == first.job_id
        assert second.coalesced_hits == 1
        # the coalesced duplicate consumed no queue slot
        assert service.depth() == 1

    def test_fresh_result_served_from_ttl_cache(self, make_service):
        service = make_service(result_ttl=60.0)
        record, _ = service.submit(ENDURANCE)
        wait_state(service, record.job_id, SUCCEEDED)
        again, coalesced = service.submit(ENDURANCE)
        assert coalesced and again.job_id == record.job_id

    def test_zero_ttl_disables_result_cache(self, make_service):
        service = make_service(result_ttl=0.0)
        record, _ = service.submit(ENDURANCE)
        wait_state(service, record.job_id, SUCCEEDED)
        again, coalesced = service.submit(ENDURANCE)
        assert not coalesced and again.job_id != record.job_id


class TestCancel:
    def test_cancel_queued_job(self, make_service):
        service = make_service(workers=0)
        record, _ = service.submit(ENDURANCE)
        cancelled = service.cancel(record.job_id)
        assert cancelled.state == CANCELLED
        assert service.store.load(record.job_id).state == CANCELLED
        assert service.depth() == 0

    def test_cancel_terminal_job_conflicts(self, make_service):
        service = make_service()
        record, _ = service.submit(ENDURANCE)
        wait_state(service, record.job_id, SUCCEEDED)
        with pytest.raises(ServiceError):
            service.cancel(record.job_id)

    def test_cancelled_spec_admits_a_fresh_job(self, make_service):
        service = make_service(workers=0)
        record, _ = service.submit(ENDURANCE)
        service.cancel(record.job_id)
        fresh, coalesced = service.submit(ENDURANCE)
        assert not coalesced and fresh.job_id != record.job_id


class TestSupervision:
    def test_stuck_attempt_abandoned_and_retried(self, make_service):
        calls = []

        def stuck_once(spec, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(30.0)  # wedged first attempt (daemon thread)
                return {"ok": False}
            return {"ok": True}

        service = make_service(runner=stuck_once, job_timeout=0.3, max_attempts=2)
        record, _ = service.submit(ENDURANCE)
        final = wait_state(service, record.job_id, SUCCEEDED, timeout=15.0)
        assert final.attempts == 2
        assert final.result == {"ok": True}

    def test_always_stuck_job_quarantined_with_timeout_error(self, make_service):
        def always_stuck(spec, **kwargs):
            time.sleep(30.0)
            return {"ok": False}

        service = make_service(runner=always_stuck, job_timeout=0.2, max_attempts=2)
        record, _ = service.submit(ENDURANCE)
        final = wait_state(service, record.job_id, QUARANTINED, timeout=15.0)
        assert "JobTimeoutError" in final.error
        assert "abandoned" in final.error


class TestJournalIntegration:
    def test_job_lifecycle_events_emitted(self, make_service):
        events = []
        j = journal.enable_journal()  # in-process only
        j.subscribe(events.append)
        try:
            service = make_service()
            record, _ = service.submit(ENDURANCE)
            wait_state(service, record.job_id, SUCCEEDED)
        finally:
            journal.disable_journal()
        names = [e["event"] for e in events]
        assert "job-submit" in names and "job-start" in names
        assert "job-complete" in names

    def test_retry_and_quarantine_events(self, make_service):
        def poison(spec, **kwargs):
            raise RuntimeError("always")

        events = []
        j = journal.enable_journal()
        j.subscribe(events.append)
        try:
            service = make_service(runner=poison, max_attempts=2)
            record, _ = service.submit(ENDURANCE)
            wait_state(service, record.job_id, QUARANTINED)
        finally:
            journal.disable_journal()
        names = [e["event"] for e in events]
        assert names.count("job-retry") == 1
        assert names.count("job-quarantine") == 1

    def test_progress_events_feed_the_record(self, make_service):
        started = threading.Event()
        release = threading.Event()

        def reporter(spec, **kwargs):
            journal.emit(journal.PROGRESS, kind="stub", steps_done=5, total_steps=10)
            started.set()
            release.wait(10.0)
            return {"ok": True}

        j = journal.enable_journal()
        try:
            service = make_service(runner=reporter)
            record, _ = service.submit(ENDURANCE)
            assert started.wait(10.0)
            live = service.get(record.job_id)
            assert live.progress_steps == 5
            assert live.progress_total == 10
            assert live.heartbeat_at is not None
            release.set()
            wait_state(service, record.job_id, SUCCEEDED)
        finally:
            release.set()
            journal.disable_journal()


class TestDrainAndRecovery:
    def test_drain_requeues_running_job(self, make_service):
        started = threading.Event()

        def hang(spec, **kwargs):
            started.set()
            time.sleep(60.0)
            return {"ok": False}

        service = make_service(runner=hang)
        record, _ = service.submit(ENDURANCE)
        assert started.wait(10.0)
        service.drain(timeout=0.3)
        requeued = service.get(record.job_id)
        assert requeued.state == QUEUED
        assert requeued.attempts == 0  # the drain refunded the attempt
        assert service.store.load(record.job_id).state == QUEUED

    def test_restart_recovers_queued_jobs_to_completion(self, tmp_path):
        first = JobService(tmp_path / "jobs", workers=0, runner=ok_runner)
        first.start()
        a, _ = first.submit({"kind": "endurance", "params": {"days": 1}})
        b, _ = first.submit({"kind": "endurance", "params": {"days": 2}})
        first.close()

        second = JobService(tmp_path / "jobs", workers=1, runner=ok_runner)
        try:
            readmitted = second.start()
            assert {r.job_id for r in readmitted} == {a.job_id, b.job_id}
            for job_id in (a.job_id, b.job_id):
                wait_state(second, job_id, SUCCEEDED)
        finally:
            second.close()

    def test_recovered_duplicate_spec_still_coalesces(self, tmp_path):
        first = JobService(tmp_path / "jobs", workers=0, runner=ok_runner)
        first.start()
        record, _ = first.submit(ENDURANCE)
        first.close()

        second = JobService(tmp_path / "jobs", workers=0, runner=ok_runner)
        try:
            second.start()
            dup, coalesced = second.submit(ENDURANCE)
            assert coalesced and dup.job_id == record.job_id
        finally:
            second.close()
