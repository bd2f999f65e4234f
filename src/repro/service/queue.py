"""The service control plane: bounded queue, worker pool, failure policy.

:class:`JobService` is everything the HTTP layer is not: admission
control, the crash-safe queue, the worker threads that execute jobs,
and the failure machinery.  It is deliberately HTTP-free so the whole
lifecycle — including the ugly paths — is testable in-process.

Failure policy (the reason this module exists):

* **Retry with deterministic-jitter exponential backoff.**  A failed
  attempt re-queues after ``base * 2^(attempt-1)`` seconds, jittered by
  a hash of (spec fingerprint, attempt) in :func:`backoff_delay` —
  decorrelated retry storms without a random draw, so a re-run
  schedules identical delays.
* **Poison-job quarantine.**  A job that fails ``max_attempts`` times
  moves to the ``quarantined`` dead-letter state with the full final
  traceback preserved, frees its worker, and never blocks the queue —
  sibling jobs keep completing.
* **Timeout + heartbeat supervision.**  A supervisor thread watches
  every running attempt: past its wall-clock budget, or silent longer
  than the heartbeat window (journal events are the heartbeat), the
  attempt is *abandoned* — its eventual return is discarded, a
  replacement worker is spawned so capacity never leaks, and the job
  takes the ordinary retry/quarantine path.  Workers are threads, so
  an abandoned attempt is left to finish on its own, never killed.
* **Graceful drain.**  :meth:`drain` stops admissions, raises the
  process-wide :mod:`repro.ckpt.drain` flag so checkpoint-enabled runs
  save one final checkpoint and raise
  :class:`~repro.errors.RunDrainedError`, re-queues every interrupted
  job with ``resume_from`` set (a drain refunds the attempt), persists
  everything, and returns — the caller then exits 0.
* **Crash recovery.**  :meth:`start` replays the job store: interrupted
  jobs are re-enqueued (resuming from their checkpoint when one
  landed), so a SIGKILLed server restarts into the same queue it died
  with and finishes each job to a bitwise-identical result.

Admission reuses the condition-keyed-cache idea: identical concurrent
specs coalesce onto one live job, and completed results are served from
a TTL cache keyed by the same fingerprint.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ckpt.drain import clear_drain, request_drain
from repro.errors import (
    JobNotFoundError,
    JobTimeoutError,
    QueueFullError,
    RunDrainedError,
    ServiceDrainingError,
    ServiceError,
)
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.service import api
from repro.service.jobstore import (
    CANCELLED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    JobRecord,
    JobStore,
)
from repro.validation import require_non_negative, require_positive


def _count(slot_name: str) -> None:
    h = getattr(_OBS, slot_name)
    if h is not None:
        h.inc()


def backoff_delay(fingerprint: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with *deterministic* jitter.

    The delay doubles per attempt from ``base`` up to ``cap``; the
    jitter fraction is a hash of (fingerprint prefix, attempt), not a
    random draw, so a re-run schedules identical delays.
    """
    key = int(fingerprint[:8], 16)
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = ((key * 2654435761 + attempt) % 1000) / 1000.0
    return delay * (1.0 + 0.5 * jitter)


class _Attempt:
    """One in-flight execution of a job, with its abandonment token."""

    __slots__ = ("record", "token", "started")

    def __init__(self, record: JobRecord, token: object, started: float):
        self.record = record
        self.token = token
        self.started = started


class JobService:
    """Admission + queue + workers + failure policy over a :class:`JobStore`.

    Args:
        data_dir: the job store directory (records + per-job
            checkpoints live here; survives restarts).
        workers: worker threads executing jobs (0 is legal and leaves
            every admitted job queued — tests use it to fill the queue
            deterministically).
        queue_depth: bounded queue length; admissions beyond it raise
            :class:`~repro.errors.QueueFullError` (HTTP 429).
        max_attempts: executions before a job is quarantined.
        backoff_base / backoff_cap: retry delay envelope, seconds.
        job_timeout: wall-clock budget per attempt, seconds (None: no
            budget).
        heartbeat_timeout: abandon an attempt silent for this long,
            seconds (None: disabled).  Journal events are the
            heartbeat, so enable a journal for this to see mid-run
            life signs; the attempt start always counts as one beat.
        result_ttl: seconds a completed job answers duplicate
            submissions from the result cache.
        checkpoint_every: simulated-seconds checkpoint cadence handed
            to checkpointable kinds.
        runner: job executor, ``(spec, checkpoint_path=, resume_from=,
            checkpoint_every=) -> dict`` — defaults to
            :func:`repro.service.api.run_job`; tests inject stubs.
    """

    def __init__(
        self,
        data_dir,
        workers: int = 2,
        queue_depth: int = 16,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
        job_timeout: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        result_ttl: float = 300.0,
        checkpoint_every: float = 3600.0,
        runner: Optional[Callable[..., Dict[str, Any]]] = None,
    ):
        self.store = JobStore(data_dir)
        self.workers = int(require_non_negative(workers, "workers"))
        self.queue_depth = int(require_positive(queue_depth, "queue_depth"))
        self.max_attempts = int(require_positive(max_attempts, "max_attempts"))
        self.backoff_base = require_positive(backoff_base, "backoff_base")
        self.backoff_cap = require_positive(backoff_cap, "backoff_cap")
        self.job_timeout = (
            None if job_timeout is None else require_positive(job_timeout, "job_timeout")
        )
        self.heartbeat_timeout = (
            None
            if heartbeat_timeout is None
            else require_positive(heartbeat_timeout, "heartbeat_timeout")
        )
        self.result_ttl = require_non_negative(result_ttl, "result_ttl")
        self.checkpoint_every = require_positive(checkpoint_every, "checkpoint_every")
        self.runner = runner if runner is not None else api.run_job

        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._queue: "deque[str]" = deque()
        self._jobs: Dict[str, JobRecord] = {}
        self._active_by_fp: Dict[str, str] = {}
        self._result_cache: Dict[str, Tuple[float, str]] = {}
        self._running: Dict[str, _Attempt] = {}
        self._threads: List[threading.Thread] = []
        self._timers: List[threading.Timer] = []
        self._stop = threading.Event()
        self._draining = False
        self._started = False
        self._local = threading.local()
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._supervisor: Optional[threading.Thread] = None

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> List[JobRecord]:
        """Recover the store, subscribe heartbeats, spawn the pool.

        Returns the re-admitted (crash-interrupted) jobs, mostly for
        logging and tests.
        """
        readmitted, finished = self.store.recover()
        with self._lock:
            for record in finished:
                self._jobs[record.job_id] = record
            for record in readmitted:
                self._jobs[record.job_id] = record
                self._active_by_fp[record.fingerprint] = record.job_id
                self._queue.append(record.job_id)
                _count("service_recovered")
                _journal.emit(
                    _journal.JOB_SUBMIT,
                    job_id=record.job_id,
                    kind=record.kind,
                    fingerprint=record.fingerprint,
                    recovered=True,
                    resume_from=record.resume_from,
                )
            self._cv.notify_all()
        j = _journal.JOURNAL
        if j is not None:
            self._unsubscribe = j.subscribe(self._on_journal_event)
        for _ in range(self.workers):
            self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()
        self._started = True
        return readmitted

    def _spawn_worker(self) -> None:
        thread = threading.Thread(
            target=self._worker_loop, name="repro-service-worker", daemon=True
        )
        self._threads.append(thread)
        thread.start()

    # --- admission ----------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[JobRecord, bool]:
        """Validate and admit one request.

        Returns ``(record, coalesced)`` — ``coalesced`` is True when an
        identical spec was already live (or freshly completed within
        the result TTL) and no new job was created.

        Raises:
            ConfigError: invalid spec (HTTP 400, with ``field``).
            ServiceDrainingError: server is shutting down (HTTP 503).
            QueueFullError: bounded queue at depth (HTTP 429).
        """
        spec = api.build_spec(payload)
        fingerprint = spec.fingerprint
        now = time.time()
        with self._lock:
            if self._draining:
                raise ServiceDrainingError("server is draining; resubmit elsewhere")
            active_id = self._active_by_fp.get(fingerprint)
            if active_id is not None:
                record = self._jobs[active_id]
                record.coalesced_hits += 1
                _count("service_coalesced")
                return record, True
            cached = self._result_cache.get(fingerprint)
            if cached is not None:
                expires, cached_id = cached
                if time.monotonic() < expires:
                    record = self._jobs[cached_id]
                    record.coalesced_hits += 1
                    _count("service_coalesced")
                    return record, True
                del self._result_cache[fingerprint]
            if len(self._queue) >= self.queue_depth:
                _count("service_rejected")
                raise QueueFullError(
                    f"queue is at its bounded depth ({self.queue_depth}); retry later",
                    retry_after=max(1.0, self.backoff_base * self.queue_depth),
                )
            record = JobRecord(
                job_id=self.store.new_job_id(fingerprint),
                kind=spec.kind,
                params=dict(spec.params),
                fingerprint=fingerprint,
                state=QUEUED,
                max_attempts=self.max_attempts,
                submitted_at=now,
            )
            self._jobs[record.job_id] = record
            self._active_by_fp[fingerprint] = record.job_id
            self.store.save(record)
            self._queue.append(record.job_id)
            self._cv.notify()
        _count("service_submitted")
        _journal.emit(
            _journal.JOB_SUBMIT,
            job_id=record.job_id,
            kind=record.kind,
            fingerprint=fingerprint,
        )
        return record, False

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return record

    def list_jobs(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.job_id)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a *queued* job (running jobs finish or drain instead)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobNotFoundError(f"no job {job_id!r}")
            if record.state != QUEUED:
                raise ServiceError(
                    f"job {job_id} is {record.state}; only queued jobs can be cancelled"
                )
            try:
                self._queue.remove(job_id)
            except ValueError:
                pass  # in retry backoff — the timer's re-enqueue will no-op
            record.state = CANCELLED
            record.finished_at = time.time()
            self._active_by_fp.pop(record.fingerprint, None)
            self.store.save(record)
        return record

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def counts_by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        with self._lock:
            for record in self._jobs.values():
                counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # --- worker pool --------------------------------------------------------

    def _next_job(self) -> Optional[str]:
        with self._cv:
            while True:
                if self._stop.is_set():
                    return None
                if self._queue:
                    return self._queue.popleft()
                self._cv.wait(0.2)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job_id = self._next_job()
            if job_id is None:
                return
            token = object()
            with self._lock:
                record = self._jobs.get(job_id)
                if record is None or record.state != QUEUED:
                    continue  # cancelled while queued
                record.state = RUNNING
                record.attempts += 1
                record.started_at = time.time()
                record.heartbeat_at = record.started_at
                record.error = None
                if api.supports_checkpoint(record.kind):
                    record.checkpoint_path = str(self.store.checkpoint_path(job_id))
                self._running[job_id] = _Attempt(record, token, record.started_at)
                self.store.save(record)
            _journal.emit(
                _journal.JOB_START,
                job_id=job_id,
                kind=record.kind,
                attempt=record.attempts,
                resume_from=record.resume_from,
            )
            spec = api.JobSpec(kind=record.kind, params=dict(record.params))
            self._local.record = record
            try:
                result = self.runner(
                    spec,
                    checkpoint_path=record.checkpoint_path,
                    resume_from=record.resume_from,
                    checkpoint_every=self.checkpoint_every,
                )
            except RunDrainedError as exc:
                self._local.record = None
                self._handle_drained(job_id, token, exc)
                return  # drain means this process is going away
            except BaseException:
                self._local.record = None
                self._handle_failure(job_id, token, traceback.format_exc())
            else:
                self._local.record = None
                self._handle_success(job_id, token, result)

    def _take_attempt(self, job_id: str, token: object) -> Optional[JobRecord]:
        """Claim the outcome of an attempt; None if it was abandoned."""
        live = self._running.get(job_id)
        if live is None or live.token is not token:
            return None  # supervisor abandoned this attempt; discard
        del self._running[job_id]
        return live.record

    def _handle_success(self, job_id: str, token: object, result: Dict[str, Any]) -> None:
        with self._lock:
            record = self._take_attempt(job_id, token)
            if record is None:
                return
            record.state = SUCCEEDED
            record.result = result
            record.finished_at = time.time()
            record.error = None
            self._active_by_fp.pop(record.fingerprint, None)
            if self.result_ttl > 0:
                self._result_cache[record.fingerprint] = (
                    time.monotonic() + self.result_ttl,
                    job_id,
                )
            self.store.save(record)
        _count("service_completed")
        _journal.emit(
            _journal.JOB_COMPLETE,
            job_id=job_id,
            kind=record.kind,
            attempts=record.attempts,
            wall_s=round(record.finished_at - (record.started_at or record.finished_at), 6),
        )

    def _handle_failure(self, job_id: str, token: object, error: str) -> None:
        with self._lock:
            record = self._take_attempt(job_id, token)
            if record is None:
                return
            record.error = error
            if record.attempts >= record.max_attempts:
                record.state = QUARANTINED
                record.finished_at = time.time()
                self._active_by_fp.pop(record.fingerprint, None)
                self.store.save(record)
                quarantined = True
            else:
                record.state = QUEUED
                self.store.save(record)
                quarantined = False
        if quarantined:
            _count("service_quarantined")
            _journal.emit(
                _journal.JOB_QUARANTINE,
                job_id=job_id,
                kind=record.kind,
                attempts=record.attempts,
                error=error.strip().splitlines()[-1] if error.strip() else "",
            )
            return
        delay = backoff_delay(
            record.fingerprint, record.attempts, self.backoff_base, self.backoff_cap
        )
        _count("service_retries")
        _journal.emit(
            _journal.JOB_RETRY,
            job_id=job_id,
            kind=record.kind,
            attempt=record.attempts,
            next_in_s=round(delay, 3),
        )
        timer = threading.Timer(delay, self._requeue_after_backoff, args=(job_id,))
        timer.daemon = True
        with self._lock:
            self._timers.append(timer)
        timer.start()

    def _requeue_after_backoff(self, job_id: str) -> None:
        with self._lock:
            if self._stop.is_set() or self._draining:
                return  # stays queued in the store; recovery re-admits
            record = self._jobs.get(job_id)
            if record is None or record.state != QUEUED:
                return  # cancelled during backoff
            if job_id not in self._queue:
                self._queue.append(job_id)
                self._cv.notify()

    def _handle_drained(self, job_id: str, token: object, exc: RunDrainedError) -> None:
        with self._lock:
            record = self._take_attempt(job_id, token)
            if record is None:
                return
            # A drain is not a failure: refund the attempt and point the
            # next one at the final checkpoint the run just wrote.
            record.attempts = max(0, record.attempts - 1)
            record.state = QUEUED
            if exc.checkpoint_path:
                record.resume_from = exc.checkpoint_path
            record.heartbeat_at = None
            self.store.save(record)

    # --- supervision --------------------------------------------------------

    def _on_journal_event(self, event: Dict[str, Any]) -> None:
        """Journal subscriber: events emitted by a worker thread are its
        job's heartbeat, and progress events feed the job's ETA fields.
        Runs synchronously in the emitting thread (see
        :meth:`RunJournal.subscribe`), which is what makes the
        thread-local attribution sound."""
        record = getattr(self._local, "record", None)
        if record is None:
            return
        record.heartbeat_at = time.time()
        if event.get("event") == _journal.PROGRESS:
            steps = event.get("steps_done")
            total = event.get("total_steps")
            if isinstance(steps, int):
                record.progress_steps = steps
            if isinstance(total, int):
                record.progress_total = total

    def _supervise(self) -> None:
        """Abandon attempts past their budget or silent past the
        heartbeat window; spawn replacement workers so capacity never
        leaks to a wedged job."""
        while not self._stop.wait(0.1):
            if self.job_timeout is None and self.heartbeat_timeout is None:
                continue
            now = time.time()
            expired: List[Tuple[str, _Attempt, str]] = []
            with self._lock:
                for job_id, attempt in list(self._running.items()):
                    if (
                        self.job_timeout is not None
                        and now - attempt.started > self.job_timeout
                    ):
                        expired.append((job_id, attempt, "wall-clock budget"))
                    elif (
                        self.heartbeat_timeout is not None
                        and attempt.record.heartbeat_at is not None
                        and now - attempt.record.heartbeat_at > self.heartbeat_timeout
                    ):
                        expired.append((job_id, attempt, "heartbeat silence"))
            for job_id, attempt, why in expired:
                limit = self.job_timeout if why == "wall-clock budget" else self.heartbeat_timeout
                error = JobTimeoutError(
                    f"attempt {attempt.record.attempts} of job {job_id} abandoned: "
                    f"{why} exceeded ({limit} s)",
                    job_id=job_id,
                    timeout=float(limit),
                )
                self._handle_failure(
                    job_id, attempt.token, f"JobTimeoutError: {error}\n"
                )
                self._spawn_worker()  # the stuck thread no longer counts

    # --- drain / shutdown ---------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admissions (readiness goes false); workers keep going."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: checkpoint, persist, release the pool.

        Stops admissions, raises the process-wide drain flag (running
        checkpoint-enabled experiments save a final checkpoint and raise
        :class:`RunDrainedError`), joins workers up to ``timeout``
        seconds, then force-requeues whatever is still running so a
        restart re-admits it.  Every job file is left in a state
        :meth:`JobStore.recover` can continue from.
        """
        self.begin_drain()
        request_drain()
        self._stop.set()
        with self._cv:
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            for job_id, attempt in list(self._running.items()):
                record = attempt.record
                record.attempts = max(0, record.attempts - 1)
                record.state = QUEUED
                record.heartbeat_at = None
                ckpt = self.store.checkpoint_path(job_id)
                if ckpt.exists():
                    record.resume_from = str(ckpt)
                self.store.save(record)
            self._running.clear()
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        clear_drain()

    def close(self) -> None:
        """Tests' non-drain teardown: stop workers, keep store as-is."""
        self._stop.set()
        with self._cv:
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(1.0)
        with self._lock:
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None


__all__ = ["JobService", "backoff_delay"]
