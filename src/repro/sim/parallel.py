"""Parallel experiment execution over picklable run specs.

The heavy workloads in this repo — the nine-technique comparison, the
endurance week, the tolerance Monte Carlo — are embarrassingly parallel
at the granularity of "one run".  This module fans such runs out over a
:mod:`concurrent.futures` process pool while keeping four guarantees:

* **Determinism** — a spec fully describes its run (cell parameters,
  scenario/controller names, seeds), so a worker produces exactly what
  the serial path produces; ``parallel-vs-serial`` equality is asserted
  in ``tests/unit/test_parallel_runner.py``.
* **Graceful degradation** — on single-core machines (or
  ``max_workers=1``/``mode="serial"``) everything runs inline with no
  pool overhead, so callers can use one code path unconditionally.
* **Ordering** — results come back in spec order regardless of which
  worker finished first.
* **Recovery** — if the pool cannot be created (sandboxes without
  semaphores/fork) or a worker *crashes* (segfault, OOM kill), the
  batch is transparently re-run serially — specs are deterministic, so
  the retry yields the same results the pool would have.  Disable with
  ``fallback_serial=False`` to surface a typed
  :class:`~repro.errors.WorkerCrashError` instead.  A ``timeout`` puts
  a per-spec ceiling on pool execution and raises
  :class:`~repro.errors.WorkerTimeoutError` (never silently retried:
  a spec that hangs in a worker would hang inline too).

Passing any of ``retries``/``quarantine``/``heartbeat_interval``
switches to the **hardened engine**: failed specs are retried with
deterministic exponential backoff, specs that exhaust their budget are
quarantined into a :class:`ParallelReport` instead of sinking the whole
batch, and a heartbeat watchdog kills workers that go *silent* (wedged,
SIGSTOPped, deadlocked) long before a generous timeout would fire.
With all three at their defaults the historical code paths run
unchanged.

Workers must be *module-level* callables (picklable); closures and
lambdas only work in serial mode.  Exceptions *raised by* ``fn`` are
not swallowed by the fallback: a deterministic failure reproduces
serially and propagates as itself.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

import repro.obs as obs
from repro.obs import journal as _journal
from repro.errors import (
    ModelParameterError,
    WorkerCrashError,
    WorkerStallError,
    WorkerTimeoutError,
)
from repro.obs.metrics import HOOKS as _HOOKS, diff_snapshots

T = TypeVar("T")
R = TypeVar("R")


class _ObsPayload:
    """What an instrumented worker ships back: result + instrument delta + spans."""

    __slots__ = ("result", "metrics", "trace")

    def __init__(self, result, metrics: dict, trace: dict):
        self.result = result
        self.metrics = metrics
        self.trace = trace


class _ObsTask:
    """Wraps the worker ``fn`` when observability is enabled in the parent.

    The worker enables observability for itself, snapshots the registry
    before the spec, records spans into a detached buffer, and returns
    the *delta* — correct under ``fork`` start methods, where the child
    inherits the parent's pre-fork counts.  The parent merges each
    payload exactly once after the whole pool batch succeeds; the
    serial-retry fallback runs the raw ``fn`` in-process (its increments
    land on the live registry directly), so no path counts twice.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, spec):
        import time

        obs.enable()
        before = obs.REGISTRY.snapshot()
        t0 = time.perf_counter()
        with obs.TRACER.capture() as branch:
            result = self.fn(spec)
        obs.REGISTRY.histogram(
            "parallel.spec_seconds", "per-spec worker wall time"
        ).observe(time.perf_counter() - t0)
        delta = diff_snapshots(before, obs.REGISTRY.snapshot())
        return _ObsPayload(result, delta, branch.to_dict())


def _merge_payloads(payloads: "List[_ObsPayload]") -> list:
    """Fold worker deltas/spans into the parent's registry and trace."""
    results = []
    for payload in payloads:
        obs.REGISTRY.merge(payload.metrics)
        obs.TRACER.merge_subtree(payload.trace, under="parallel_map")
        results.append(payload.result)
    return results


def _failure_detail(exc: BaseException) -> str:
    """``repr`` plus the exception's traceback, for quarantine records.

    Pool workers ship their traceback back as a ``RemoteTraceback``
    chained under ``__cause__``; ``format_exception`` renders the whole
    chain, so a quarantined spec's record names the offending frame
    instead of just the final message.
    """
    import traceback

    detail = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip()
    return f"{exc!r}\n{detail}" if detail else repr(exc)


def default_worker_count() -> int:
    """Worker count for this machine (``os.cpu_count()``, at least 1)."""
    return max(1, os.cpu_count() or 1)


def _run_serial(fn: Callable[[T], R], specs: Sequence[T]) -> List[R]:
    return [fn(spec) for spec in specs]


def _run_pool(
    fn: Callable[[T], R],
    specs: Sequence[T],
    workers: int,
    chunksize: int,
    timeout: Optional[float],
) -> List[R]:
    """Execute on a process pool; raises BrokenProcessPool on worker death."""
    max_workers = min(workers, max(1, len(specs)))
    if timeout is None:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(fn, specs, chunksize=chunksize))

    # Timeout path: no context manager — its exit blocks on shutdown
    # until every worker returns, which is exactly what a hung spec
    # prevents.  On a breach we cancel what we can and leave without
    # waiting.
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [pool.submit(fn, spec) for spec in specs]
        results: List[R] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result(timeout=timeout))
            except FutureTimeoutError:
                pool.shutdown(wait=False, cancel_futures=True)
                raise WorkerTimeoutError(
                    f"spec {index} exceeded the {timeout} s per-spec timeout",
                    spec_index=index,
                    timeout=timeout,
                ) from None
        pool.shutdown(wait=True)
        return results
    except WorkerTimeoutError:
        raise
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise


# --- hardened engine: retry, quarantine, heartbeat ---------------------------------


@dataclass
class QuarantineRecord:
    """Why one spec was quarantined instead of returned.

    Attributes:
        index: position of the spec in the input sequence.
        attempts: how many times the spec was tried (1 + retries).
        error: ``repr`` of the final failure plus its full traceback
            (including the worker-side ``RemoteTraceback`` chain on the
            pool path), so a quarantined spec is debuggable post-hoc.
    """

    index: int
    attempts: int
    error: str


@dataclass
class ParallelReport:
    """The quarantine-mode return of :func:`parallel_map`.

    Attributes:
        results: one entry per input spec, in order; ``None`` where the
            spec was quarantined.
        quarantined: one record per quarantined spec.
        retries: total retry attempts spent across the whole batch.
    """

    results: List
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether every spec produced a result."""
        return not self.quarantined


def backoff_delay(index: int, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with *deterministic* jitter.

    Jitter decorrelates retry storms without sacrificing reproducibility:
    the fraction is a hash of (key, attempt), not a random draw, so a
    re-run schedules identical delays.  ``index`` is the spec's position
    here; the job service passes a spec-fingerprint prefix instead.
    """
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = ((index * 2654435761 + attempt) % 1000) / 1000.0
    return delay * (1.0 + 0.5 * jitter)


_backoff_delay = backoff_delay  # former private name


def _heartbeat_call(fn, beats, index, interval, spec):
    """Worker-side wrapper: run ``fn(spec)`` while beating ``beats[index]``.

    A daemon thread stamps ``(pid, wall time)`` every ``interval / 2``
    seconds.  The parent's watchdog treats a long-silent entry as a
    wedged process (deadlock, SIGSTOP, GIL-stuck extension) and kills
    it — a *slow but alive* worker keeps beating and is left to the
    ordinary timeout.  ``time.time()`` is used because the stamp is
    compared across processes.
    """
    import threading

    pid = os.getpid()
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            beats[index] = (pid, _time.time())
            stop.wait(interval / 2.0)

    beats[index] = (pid, _time.time())
    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        return fn(spec)
    finally:
        stop.set()
        thread.join(timeout=interval)


def _kill_stalled(beats, running: Sequence[int], stall_after: float) -> List[int]:
    """Kill workers whose heartbeat went silent; returns their spec indices."""
    import signal

    now = _time.time()
    stalled: List[int] = []
    for index in running:
        entry = beats.get(index)
        if entry is None:
            continue  # not picked up by a worker yet — nothing to judge
        pid, last = entry
        if now - last > stall_after:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            stalled.append(index)
            h = _HOOKS.parallel_stalls
            if h is not None:
                h.inc()
            j = _journal.JOURNAL
            if j is not None:
                j.emit(
                    _journal.WORKER_STALL,
                    spec_index=index,
                    silent_for=round(now - last, 3),
                )
    return stalled


def _run_round(
    fn,
    specs,
    batch: Sequence[int],
    workers: int,
    timeout: Optional[float],
    beats,
    heartbeat_interval: Optional[float],
) -> Dict[int, tuple]:
    """Attempt every spec index in ``batch`` once on a fresh pool.

    Returns an outcome per index:

    * ``("ok", value)`` — the spec produced a result;
    * ``("err", exc)`` — ``fn`` raised (a real, attributable failure);
    * ``("timeout", exc)`` — the spec breached the per-spec timeout;
    * ``("stall", exc)`` — the watchdog killed its silent worker;
    * ``("crash", exc)`` — the pool broke and this index is the prime
      suspect (first unresolved future; certain only when the batch ran
      alone);
    * ``("again", None)`` — not attempted (pool died under it / it was
      cancelled); does not count as an attempt.
    """
    outcomes: Dict[int, tuple] = {}
    max_workers = min(workers, max(1, len(batch)))
    stall_after = 3.0 * heartbeat_interval if heartbeat_interval is not None else None
    if beats is not None:
        for index in batch:
            beats.pop(index, None)
    pool = ProcessPoolExecutor(max_workers=max_workers)
    futures = {}
    for index in batch:
        if beats is not None:
            futures[index] = pool.submit(
                _heartbeat_call, fn, beats, index, heartbeat_interval, specs[index]
            )
        else:
            futures[index] = pool.submit(fn, specs[index])

    stalled: List[int] = []

    def harvest_finished() -> None:
        """Collect results of futures that completed before a failure."""
        for index in batch:
            if index in outcomes:
                continue
            future = futures[index]
            if future.done() and not future.cancelled():
                try:
                    outcomes[index] = ("ok", future.result(timeout=0))
                except BrokenProcessPool:
                    pass
                except FutureTimeoutError:
                    pass
                except Exception as exc:
                    outcomes[index] = ("err", exc)

    def abandon(prime_suspect: Optional[int], crash_exc: Optional[BaseException]) -> None:
        """Pool died (crash or stall-kill): attribute what we can."""
        harvest_finished()
        for index in batch:
            if index in outcomes:
                continue
            if index in stalled:
                outcomes[index] = (
                    "stall",
                    WorkerStallError(
                        f"spec {index}'s worker went silent for over "
                        f"{stall_after:.1f} s and was killed",
                        spec_index=index,
                        silent_for=stall_after,
                    ),
                )
            elif index == prime_suspect and not stalled:
                outcomes[index] = (
                    "crash",
                    WorkerCrashError(
                        f"worker process died while running spec {index} "
                        f"({type(crash_exc).__name__}: {crash_exc})",
                        spec_index=index,
                    ),
                )
            else:
                outcomes[index] = ("again", None)

    poll = 0.05
    if heartbeat_interval is not None:
        poll = min(poll, heartbeat_interval / 4.0)
    try:
        for index in batch:
            if index in outcomes:
                continue
            future = futures[index]
            deadline = (_time.monotonic() + timeout) if timeout is not None else None
            while True:
                try:
                    outcomes[index] = ("ok", future.result(timeout=poll))
                    break
                except FutureTimeoutError:
                    if deadline is not None and _time.monotonic() >= deadline:
                        outcomes[index] = (
                            "timeout",
                            WorkerTimeoutError(
                                f"spec {index} exceeded the {timeout} s "
                                "per-spec timeout",
                                spec_index=index,
                                timeout=timeout,
                            ),
                        )
                        pool.shutdown(wait=False, cancel_futures=True)
                        harvest_finished()
                        for other in batch:
                            outcomes.setdefault(other, ("again", None))
                        return outcomes
                    if beats is not None:
                        running = [i for i in batch if i not in outcomes]
                        stalled.extend(_kill_stalled(beats, running, stall_after))
                        # The kill breaks the pool; the next poll of the
                        # future surfaces BrokenProcessPool, handled below.
                except BrokenProcessPool as exc:
                    abandon(index, exc)
                    pool.shutdown(wait=False, cancel_futures=True)
                    return outcomes
                except Exception as exc:
                    outcomes[index] = ("err", exc)
                    break
        pool.shutdown(wait=True)
        return outcomes
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise


def _run_hardened(
    fn,
    specs,
    workers: int,
    timeout: Optional[float],
    retries: int,
    backoff_base: float,
    backoff_cap: float,
    quarantine: bool,
    heartbeat_interval: Optional[float],
):
    """Retry/quarantine/watchdog execution engine.

    Specs run in rounds.  A failed spec (worker exception, crash,
    timeout, stall) is retried up to ``retries`` times with
    deterministic exponential backoff; a spec that exhausts its budget
    is quarantined (``quarantine=True``) or raises.  An unattributable
    pool crash triggers a *probe* round — the unresolved specs re-run
    one per single-worker pool, so the next crash names its spec with
    certainty.

    Returns ``(results, quarantined, total_retries)`` where ``results``
    maps index -> value for every non-quarantined spec.
    """
    n = len(specs)
    attempts = {i: 0 for i in range(n)}
    results: Dict[int, object] = {}
    quarantined: List[QuarantineRecord] = []
    total_retries = 0
    pending = list(range(n))
    probe = False

    manager = None
    beats = None
    if heartbeat_interval is not None:
        from multiprocessing import Manager

        manager = Manager()
        beats = manager.dict()

    try:
        while pending:
            batch = pending
            pending = []
            if probe:
                outcomes: Dict[int, tuple] = {}
                for index in batch:
                    outcomes.update(
                        _run_round(
                            fn, specs, [index], 1, timeout, beats, heartbeat_interval
                        )
                    )
            else:
                outcomes = _run_round(
                    fn, specs, batch, workers, timeout, beats, heartbeat_interval
                )
            pool_broke = False
            for index in batch:
                kind, value = outcomes[index]
                if kind == "ok":
                    results[index] = value
                    continue
                if kind == "again":
                    pending.append(index)
                    pool_broke = True
                    continue
                if kind == "crash" and not probe:
                    # Prime suspect only — don't charge the attempt;
                    # the probe round will name the culprit exactly.
                    pending.append(index)
                    pool_broke = True
                    continue
                attempts[index] += 1
                if attempts[index] <= retries:
                    total_retries += 1
                    h = _HOOKS.parallel_retries
                    if h is not None:
                        h.inc()
                    j = _journal.JOURNAL
                    if j is not None:
                        j.emit(
                            _journal.WORKER_RETRY,
                            spec_index=index,
                            attempt=attempts[index],
                            failure=kind,
                        )
                    _time.sleep(
                        backoff_delay(index, attempts[index], backoff_base, backoff_cap)
                    )
                    pending.append(index)
                elif quarantine:
                    quarantined.append(
                        QuarantineRecord(
                            index=index,
                            attempts=attempts[index],
                            error=_failure_detail(value),
                        )
                    )
                    h = _HOOKS.parallel_quarantines
                    if h is not None:
                        h.inc()
                    j = _journal.JOURNAL
                    if j is not None:
                        j.emit(
                            _journal.WORKER_QUARANTINE,
                            spec_index=index,
                            attempts=attempts[index],
                            error=repr(value),
                        )
                else:
                    raise value
            probe = pool_broke
    finally:
        if manager is not None:
            manager.shutdown()
    return results, quarantined, total_retries


def _run_serial_hardened(fn, specs, retries, backoff_base, backoff_cap, quarantine):
    """The hardened semantics without a pool (serial mode / no primitives).

    A worker *exception* is retried and quarantined exactly as on the
    pool path; crashes and stalls cannot be survived inline (a crashing
    ``fn`` takes the interpreter with it), which is the honest serial
    behavior.
    """
    results: Dict[int, object] = {}
    quarantined: List[QuarantineRecord] = []
    total_retries = 0
    for index, spec in enumerate(specs):
        attempt = 0
        while True:
            try:
                results[index] = fn(spec)
                break
            except Exception as exc:
                attempt += 1
                if attempt <= retries:
                    total_retries += 1
                    h = _HOOKS.parallel_retries
                    if h is not None:
                        h.inc()
                    j = _journal.JOURNAL
                    if j is not None:
                        j.emit(
                            _journal.WORKER_RETRY,
                            spec_index=index,
                            attempt=attempt,
                            failure="err",
                        )
                    _time.sleep(backoff_delay(index, attempt, backoff_base, backoff_cap))
                    continue
                if quarantine:
                    quarantined.append(
                        QuarantineRecord(
                            index=index, attempts=attempt, error=_failure_detail(exc)
                        )
                    )
                    h = _HOOKS.parallel_quarantines
                    if h is not None:
                        h.inc()
                    j = _journal.JOURNAL
                    if j is not None:
                        j.emit(
                            _journal.WORKER_QUARANTINE,
                            spec_index=index,
                            attempts=attempt,
                            error=repr(exc),
                        )
                    break
                raise
    return results, quarantined, total_retries


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
    mode: str = "auto",
    chunksize: int = 1,
    timeout: Optional[float] = None,
    fallback_serial: bool = True,
    retries: int = 0,
    backoff_base: float = 0.1,
    backoff_cap: float = 5.0,
    quarantine: bool = False,
    heartbeat_interval: Optional[float] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    Args:
        fn: a picklable (module-level) callable.
        items: the run specs.
        max_workers: pool size; None means one per CPU.
        mode: ``"auto"`` (process pool only when it can help: more than
            one worker *and* more than one item), ``"process"`` (force a
            pool), or ``"serial"`` (force inline execution).
        chunksize: specs handed to a worker per dispatch; raise it for
            many small specs to amortise IPC.
        timeout: optional per-spec ceiling, seconds, enforced on the
            pool path; a breach raises
            :class:`~repro.errors.WorkerTimeoutError`.
        fallback_serial: when the pool is unavailable or a worker
            *crashes*, re-run the batch inline instead of failing; set
            False to raise :class:`~repro.errors.WorkerCrashError`.
        retries: per-spec retry budget for failures (worker exceptions,
            crashes, timeouts, stalls), with deterministic exponential
            backoff.  Any of ``retries``/``quarantine``/
            ``heartbeat_interval`` switches to the hardened engine;
            with all three at their defaults the historical fast paths
            run unchanged.
        backoff_base: first retry delay, seconds (doubles per attempt).
        backoff_cap: retry delay ceiling, seconds.
        quarantine: instead of raising when a spec exhausts its budget,
            record it and keep going; the call then returns a
            :class:`ParallelReport` whose ``results`` holds ``None`` at
            quarantined positions.
        heartbeat_interval: enable the heartbeat watchdog: workers stamp
            a shared dict every ``interval / 2`` s and the parent kills
            any worker silent for over ``3 * interval`` s
            (:class:`~repro.errors.WorkerStallError`) — distinguishing a
            *wedged* process from a slow-but-alive one long before a
            generous ``timeout`` fires.

    Returns:
        ``[fn(item) for item in items]`` — same values, same order —
        or a :class:`ParallelReport` when ``quarantine=True``.
    """
    if mode not in ("auto", "process", "serial"):
        raise ModelParameterError(f"mode must be auto/process/serial, got {mode!r}")
    if timeout is not None and timeout <= 0.0:
        raise ModelParameterError(f"timeout must be positive, got {timeout!r}")
    if retries < 0:
        raise ModelParameterError(f"retries must be >= 0, got {retries!r}")
    if backoff_base <= 0.0 or backoff_cap <= 0.0:
        raise ModelParameterError("backoff_base and backoff_cap must be positive")
    if heartbeat_interval is not None and heartbeat_interval <= 0.0:
        raise ModelParameterError(
            f"heartbeat_interval must be positive, got {heartbeat_interval!r}"
        )
    specs = list(items)
    workers = max_workers if max_workers is not None else default_worker_count()
    if workers < 1:
        raise ModelParameterError(f"max_workers must be >= 1, got {max_workers!r}")

    hardened = retries > 0 or quarantine or heartbeat_interval is not None
    use_pool = mode == "process" or (mode == "auto" and workers > 1 and len(specs) > 1)

    if hardened:
        return _parallel_map_hardened(
            fn,
            specs,
            workers,
            use_pool,
            timeout,
            fallback_serial,
            retries,
            backoff_base,
            backoff_cap,
            quarantine,
            heartbeat_interval,
        )

    if not use_pool:
        return _run_serial(fn, specs)

    # With observability enabled, workers run wrapped: each returns its
    # metric delta and span subtree alongside the result, merged below
    # only when the whole batch succeeds.
    instrumented = obs.is_enabled()
    task = _ObsTask(fn) if instrumented else fn
    try:
        raw = _run_pool(task, specs, workers, chunksize, timeout)
    except (BrokenProcessPool, OSError, PermissionError) as exc:
        # Worker death or no pool primitives in this environment.  Specs
        # are deterministic, so an inline retry is exact — a genuinely
        # crashing fn will crash the interpreter here too, which is the
        # honest outcome.  The retry uses the raw fn: its instruments
        # land on the live registry directly, and no partial pool
        # payloads were merged, so nothing is counted twice.
        if not fallback_serial:
            raise WorkerCrashError(
                f"process pool failed ({type(exc).__name__}: {exc}) "
                "and fallback_serial is disabled"
            ) from exc
        return _run_serial(fn, specs)
    if instrumented:
        return _merge_payloads(raw)
    return raw


def _parallel_map_hardened(
    fn,
    specs,
    workers: int,
    use_pool: bool,
    timeout: Optional[float],
    fallback_serial: bool,
    retries: int,
    backoff_base: float,
    backoff_cap: float,
    quarantine: bool,
    heartbeat_interval: Optional[float],
):
    """Dispatch to the hardened engine and shape its return value."""
    instrumented = obs.is_enabled() and use_pool
    task = _ObsTask(fn) if instrumented else fn

    if use_pool:
        try:
            results, quarantined, total_retries = _run_hardened(
                task,
                specs,
                workers,
                timeout,
                retries,
                backoff_base,
                backoff_cap,
                quarantine,
                heartbeat_interval,
            )
        except (OSError, PermissionError) as exc:
            # No pool primitives in this environment (sandboxes without
            # semaphores/fork) — same degradation contract as the
            # historical path.
            if not fallback_serial:
                raise WorkerCrashError(
                    f"process pool failed ({type(exc).__name__}: {exc}) "
                    "and fallback_serial is disabled"
                ) from exc
            results, quarantined, total_retries = _run_serial_hardened(
                fn, specs, retries, backoff_base, backoff_cap, quarantine
            )
            instrumented = False
    else:
        results, quarantined, total_retries = _run_serial_hardened(
            fn, specs, retries, backoff_base, backoff_cap, quarantine
        )

    if instrumented:
        # Merge each surviving worker's metric delta exactly once, in
        # spec order.
        merged: Dict[int, object] = {}
        for index in sorted(results):
            payload = results[index]
            obs.REGISTRY.merge(payload.metrics)
            obs.TRACER.merge_subtree(payload.trace, under="parallel_map")
            merged[index] = payload.result
        results = merged

    ordered = [results.get(index) for index in range(len(specs))]
    if quarantine:
        return ParallelReport(
            results=ordered, quarantined=quarantined, retries=total_retries
        )
    return ordered


def scatter(items: Sequence[T], parts: int) -> List[Sequence[T]]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Useful for workloads whose per-item cost is tiny (Monte Carlo
    boards): parallelise over chunks, keep per-item order inside each.

    Guarantees:

    * every returned chunk is non-empty — asking for more chunks than
      there are items yields ``len(items)`` singleton chunks, and an
      empty input yields no chunks at all;
    * concatenating the chunks reproduces ``items`` exactly, whatever
      ``parts`` is — chunking never drops, duplicates or reorders.
    """
    if parts < 1:
        raise ModelParameterError(f"parts must be >= 1, got {parts!r}")
    n = len(items)
    parts = min(parts, n) if n else 0
    chunks: List[Sequence[T]] = []
    start = 0
    for k in range(parts):
        size = n // parts + (1 if k < n % parts else 0)
        chunks.append(items[start : start + size])
        start += size
    return [chunk for chunk in chunks if len(chunk)]


__all__ = [
    "backoff_delay",
    "parallel_map",
    "scatter",
    "default_worker_count",
    "ParallelReport",
    "QuarantineRecord",
]
