"""``repro.obs.journal`` — structured append-only run event journal.

Long campaigns (week-long endurance runs, 500-board Monte-Carlo sweeps,
multi-campaign resilience grids) used to be silent processes: the only
live signal was the eventual artifact.  The journal records the *run
lifecycle* as structured JSONL events — run-start with a spec
fingerprint, phase transitions, checkpoint saves/restores, job-service
retries/quarantines, fault-campaign boundaries, guard errors, run-end
with a summary and final counters — so a run can be watched live
(:mod:`repro.obs.progress`), replayed after a crash, or streamed by the
future control plane.

Like the metrics ``HOOKS``, the journal is **off by default and
zero-overhead when disabled**: every emit site costs one module
attribute load and an ``is None`` test.  Emission sites are coarse
(per run / phase / scenario / checkpoint — never per simulation step),
so even an enabled journal is far below the obs overhead gate.

Envelope (one JSON object per line, schema-versioned like
``repro.ckpt``'s checkpoint envelopes)::

    {"schema": 1, "run_id": "a1b2…", "seq": 7, "pid": 1234,
     "t": 1754550000.123456, "event": "progress", …payload…}

Appends go through :func:`repro.ckpt.atomic.locked_append_text` — a
single ``O_APPEND`` write under the advisory sidecar lock — so
concurrent writers (service threads, forked children, or separate
processes sharing one ``REPRO_JOURNAL`` path) interleave at line
granularity.  A SIGKILL mid-append can still truncate the *final*
line; :func:`read_journal` tolerates that by default (``strict=True``
raises :class:`~repro.errors.JournalError`).

Enable around a run::

    from repro.obs import journal

    journal.enable_journal("run.journal.jsonl")
    run_week(days=7)
    journal.disable_journal()

or export ``REPRO_JOURNAL=run.journal.jsonl`` to enable at import time
(the CLI's ``--journal PATH`` / ``--progress`` flags wrap the same
calls).  A path-less journal (``enable_journal()``) only notifies
in-process subscribers — what the ``--progress`` ticker uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import JournalError, NumericalGuardError

JOURNAL_SCHEMA = 1
"""Version stamped into every event envelope; bumped on breaking
format changes so old journals are never misread silently."""

# --- event vocabulary -------------------------------------------------------
RUN_START = "run-start"
RUN_END = "run-end"
RUN_ERROR = "run-error"
GUARD_ERROR = "guard-error"
PHASE_START = "phase-start"
PHASE_END = "phase-end"
PROGRESS = "progress"
CHECKPOINT_SAVE = "checkpoint-save"
CHECKPOINT_RESTORE = "checkpoint-restore"
CAMPAIGN_START = "campaign-start"
CAMPAIGN_END = "campaign-end"
ENGINE_RUN = "engine-run"
JOB_SUBMIT = "job-submit"
JOB_START = "job-start"
JOB_RETRY = "job-retry"
JOB_QUARANTINE = "job-quarantine"
JOB_COMPLETE = "job-complete"

EVENTS = (
    RUN_START,
    RUN_END,
    RUN_ERROR,
    GUARD_ERROR,
    PHASE_START,
    PHASE_END,
    PROGRESS,
    CHECKPOINT_SAVE,
    CHECKPOINT_RESTORE,
    CAMPAIGN_START,
    CAMPAIGN_END,
    ENGINE_RUN,
    JOB_SUBMIT,
    JOB_START,
    JOB_RETRY,
    JOB_QUARANTINE,
    JOB_COMPLETE,
)
"""Every event name the library emits (payloads may carry more keys)."""


def spec_fingerprint(spec: Any) -> str:
    """Short stable fingerprint of a run spec (12 hex chars).

    Canonical-JSON SHA-256, truncated: enough to tell two specs apart in
    a journal at a glance, stable across processes and Python versions.
    Non-JSON-serializable leaves are fingerprinted via ``repr``.
    """
    text = json.dumps(spec, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class RunJournal:
    """One journal: an event sink with optional JSONL persistence.

    Args:
        path: JSONL destination; ``None`` keeps the journal in-process
            only (subscribers still fire — the ``--progress`` ticker's
            mode).
        fsync: flush each append to disk before releasing the lock.
            Off by default — the journal is advisory telemetry; a
            checkpoint, not the journal, is the durability story.
        run_id: override the generated id (tests); one id spans a
            parent and any children it forks with the journal enabled.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        fsync: bool = False,
        run_id: Optional[str] = None,
    ):
        self.path = Path(path) if path is not None else None
        self.fsync = bool(fsync)
        if run_id is None:
            run_id = f"{int(time.time() * 1e3):x}-{os.getpid():x}"
        self.run_id = str(run_id)
        self.subscriber_errors = 0
        self._seq = 0
        self._run_depth = 0
        self._mutex = threading.Lock()
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []

    # --- subscribers --------------------------------------------------------

    def subscribe(self, callback: Callable[[Dict[str, Any]], None]) -> Callable[[], None]:
        """Register ``callback(event_dict)`` for every emitted event.

        Returns an unsubscribe function.  Callbacks run synchronously in
        the emitting thread/process; exceptions they raise are swallowed
        (counted in :attr:`subscriber_errors`) so a broken observer can
        never kill a week-long run.
        """
        with self._mutex:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._mutex:
                try:
                    self._subscribers.remove(callback)
                except ValueError:
                    pass

        return unsubscribe

    # --- emission -----------------------------------------------------------

    def emit(self, event: str, **payload: Any) -> Dict[str, Any]:
        """Emit one event: envelope it, notify subscribers, append.

        Returns the full envelope (mostly for tests)."""
        with self._mutex:
            seq = self._seq
            self._seq += 1
            subscribers = tuple(self._subscribers)
        record: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "run_id": self.run_id,
            "seq": seq,
            "pid": os.getpid(),
            "t": round(time.time(), 6),
            "event": event,
        }
        for key, value in payload.items():
            record.setdefault(key, value)
        for callback in subscribers:
            try:
                callback(record)
            except Exception:
                self.subscriber_errors += 1
        if self.path is not None:
            from repro.ckpt.atomic import locked_append_text

            line = json.dumps(record, sort_keys=True, default=repr) + "\n"
            locked_append_text(self.path, line, fsync=self.fsync)
        return record


# --- module-level journal slot (the HOOKS pattern) --------------------------

JOURNAL: Optional[RunJournal] = None
"""The process-wide journal, or ``None`` when disabled.  Emit sites do
``j = journal.JOURNAL`` / ``if j is not None: j.emit(...)`` — or call
:func:`emit`, which wraps exactly that."""


def get_journal() -> Optional[RunJournal]:
    """The active journal, or ``None`` when journaling is disabled."""
    return JOURNAL


def enable_journal(
    path: Optional[Union[str, Path]] = None,
    fsync: bool = False,
    run_id: Optional[str] = None,
) -> RunJournal:
    """Install a process-wide journal (replacing any active one).

    With ``path=None`` the journal is in-process only: events reach
    subscribers but nothing is written.
    """
    global JOURNAL
    JOURNAL = RunJournal(path=path, fsync=fsync, run_id=run_id)
    return JOURNAL


def disable_journal() -> None:
    """Remove the process-wide journal; emit sites go back to no-ops."""
    global JOURNAL
    JOURNAL = None


def emit(event: str, **payload: Any) -> Optional[Dict[str, Any]]:
    """Emit through the process-wide journal; no-op when disabled."""
    j = JOURNAL
    if j is None:
        return None
    return j.emit(event, **payload)


def emit_guard_error(exc: BaseException) -> None:
    """Record a numerical-guard (or any engine) error; no-op when disabled."""
    j = JOURNAL
    if j is None:
        return
    event = GUARD_ERROR if isinstance(exc, NumericalGuardError) else RUN_ERROR
    j.emit(
        event,
        error=type(exc).__name__,
        message=str(exc),
        signal=getattr(exc, "signal", None),
        sim_time=getattr(exc, "time", None),
    )


# --- reading / replay -------------------------------------------------------

def iter_journal(
    path: Union[str, Path], strict: bool = False
) -> Iterator[Dict[str, Any]]:
    """Yield events from a JSONL journal file in file order.

    A crash mid-append (the writer is ``O_APPEND``, not
    write-temp-rename) can leave a torn final line; by default torn or
    otherwise unparseable lines are skipped.  ``strict=True`` raises
    :class:`~repro.errors.JournalError` naming the offending line.
    A journal that was never written (no file) reads as empty.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if strict:
                    raise JournalError(
                        f"unparseable journal line {number} in {path}",
                        line_number=number,
                    ) from None
                continue
            if not isinstance(record, dict):
                if strict:
                    raise JournalError(
                        f"journal line {number} in {path} is not an object",
                        line_number=number,
                    )
                continue
            yield record


def read_journal(path: Union[str, Path], strict: bool = False) -> List[Dict[str, Any]]:
    """All events from a journal file as a list (see :func:`iter_journal`)."""
    return list(iter_journal(path, strict=strict))


# --- run lifecycle scope ----------------------------------------------------

class RunScope:
    """Lifecycle helper an experiment drives: phases + progress.

    Produced by :func:`run_scope`; experiments call :meth:`phase`,
    :meth:`advance` / :meth:`advance_to`, and :meth:`campaign` without
    checking whether journaling is on — the disabled variant
    (:class:`NullRunScope`) makes every method a no-op.
    """

    __slots__ = ("journal", "kind", "total_steps", "steps_done", "_phase")

    def __init__(self, journal: RunJournal, kind: str, total_steps: Optional[int], resumed_steps: int):
        self.journal = journal
        self.kind = kind
        self.total_steps = total_steps
        self.steps_done = int(resumed_steps)
        self._phase: Optional[str] = None

    def phase(self, name: str) -> "_PhaseScope":
        """Context manager emitting ``phase-start`` / ``phase-end``."""
        return _PhaseScope(self, name)

    def advance(self, steps: int) -> None:
        """Record ``steps`` more units of work done (emits ``progress``)."""
        self.advance_to(self.steps_done + int(steps))

    def advance_to(self, steps_done: int) -> None:
        """Record cumulative progress (resume-aware absolute counter)."""
        self.steps_done = int(steps_done)
        self.journal.emit(
            PROGRESS,
            kind=self.kind,
            steps_done=self.steps_done,
            total_steps=self.total_steps,
            phase=self._phase,
        )

    def campaign_start(self, name: str, **payload: Any) -> None:
        """Mark a fault-campaign boundary (resilience grids)."""
        self.journal.emit(CAMPAIGN_START, kind=self.kind, campaign=name, **payload)

    def campaign_end(self, name: str, **payload: Any) -> None:
        self.journal.emit(CAMPAIGN_END, kind=self.kind, campaign=name, **payload)

    def event(self, event: str, **payload: Any) -> None:
        """Escape hatch: emit an arbitrary event inside this run."""
        self.journal.emit(event, kind=self.kind, **payload)


class _PhaseScope:
    __slots__ = ("scope", "name", "_t0")

    def __init__(self, scope: RunScope, name: str):
        self.scope = scope
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseScope":
        self._t0 = time.perf_counter()
        self.scope._phase = self.name
        self.scope.journal.emit(PHASE_START, kind=self.scope.kind, phase=self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.scope._phase = None
        self.scope.journal.emit(
            PHASE_END,
            kind=self.scope.kind,
            phase=self.name,
            wall_s=round(time.perf_counter() - self._t0, 6),
            failed=exc is not None,
        )


class NullRunScope:
    """No-op twin of :class:`RunScope` used while journaling is off."""

    __slots__ = ()
    steps_done = 0
    total_steps = None

    def phase(self, name: str) -> "NullRunScope":
        return self

    def advance(self, steps: int) -> None:
        pass

    def advance_to(self, steps_done: int) -> None:
        pass

    def campaign_start(self, name: str, **payload: Any) -> None:
        pass

    def campaign_end(self, name: str, **payload: Any) -> None:
        pass

    def event(self, event: str, **payload: Any) -> None:
        pass

    def __enter__(self) -> "NullRunScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SCOPE = NullRunScope()


class _NestedRunScope(RunScope):
    """A run scope opened while another run is active.

    Emits no ``run-start`` / ``run-end`` — the enclosing run owns the
    lifecycle — but its progress, phase and campaign events still reach
    the journal (tagged with this scope's own ``kind``).
    """

    __slots__ = ()

    def __enter__(self) -> "RunScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _ActiveRunScope:
    """The enabled run_scope context manager (kept out of the hot path)."""

    __slots__ = ("_journal", "_scope", "_spec", "_summary")

    def __init__(self, journal: RunJournal, kind: str, spec: Any, total_steps: Optional[int], resumed_steps: int):
        self._journal = journal
        self._spec = spec
        self._scope = RunScope(journal, kind, total_steps, resumed_steps)
        self._summary: Callable[[], Any] = lambda: None

    def __enter__(self) -> RunScope:
        scope = self._scope
        self._journal._run_depth += 1
        self._journal.emit(
            RUN_START,
            kind=scope.kind,
            fingerprint=spec_fingerprint(self._spec),
            total_steps=scope.total_steps,
            resumed_steps=scope.steps_done,
        )
        return scope

    def __exit__(self, exc_type, exc, tb) -> None:
        scope = self._scope
        self._journal._run_depth = max(0, self._journal._run_depth - 1)
        if exc is not None:
            emit_guard_error(exc)
            return
        counters = None
        try:
            from repro import obs
            from repro.obs.export import counters_dict

            if obs.is_enabled():
                counters = counters_dict()
        except Exception:
            counters = None
        self._journal.emit(
            RUN_END,
            kind=scope.kind,
            steps_done=scope.steps_done,
            total_steps=scope.total_steps,
            counters=counters,
        )


def run_scope(
    kind: str,
    spec: Any = None,
    total_steps: Optional[int] = None,
    resumed_steps: int = 0,
):
    """Bracket a run with ``run-start`` … ``run-end`` journal events.

    Usage (every long-running experiment entry point)::

        with journal.run_scope("endurance", spec, total_steps=N,
                               resumed_steps=start) as scope:
            with scope.phase("day-1"):
                ...
            scope.advance_to(step)

    With journaling disabled this returns the shared
    :class:`NullRunScope` and costs one ``is None`` test.  On an
    exception the run emits ``guard-error`` (for
    :class:`~repro.errors.NumericalGuardError`) or ``run-error`` and
    **no** ``run-end`` — replay counts run-end events to tell completed
    runs from killed ones.
    """
    j = JOURNAL
    if j is None:
        return NULL_SCOPE
    if j._run_depth > 0:
        # Nested inside another run (e.g. strings drives comparison):
        # the enclosing run owns the lifecycle.  Progress and phases
        # still flow, tagged with this scope's kind so estimators can
        # tell inner work from the outer run's own counters.
        return _NestedRunScope(j, kind, total_steps, resumed_steps)
    return _ActiveRunScope(j, kind, spec, total_steps, resumed_steps)


# ``REPRO_JOURNAL=<path>`` enables journaling at import time — the knob
# CLI smoke subprocesses inherit through the environment (mirrors
# ``REPRO_OBS``).
_env_path = os.environ.get("REPRO_JOURNAL", "").strip()
if _env_path:
    enable_journal(_env_path)
del _env_path


__all__ = [
    "JOURNAL_SCHEMA",
    "EVENTS",
    "RunJournal",
    "RunScope",
    "NullRunScope",
    "JOURNAL",
    "get_journal",
    "enable_journal",
    "disable_journal",
    "emit",
    "emit_guard_error",
    "spec_fingerprint",
    "iter_journal",
    "read_journal",
    "run_scope",
    "RUN_START",
    "RUN_END",
    "RUN_ERROR",
    "GUARD_ERROR",
    "PHASE_START",
    "PHASE_END",
    "PROGRESS",
    "CHECKPOINT_SAVE",
    "CHECKPOINT_RESTORE",
    "CAMPAIGN_START",
    "CAMPAIGN_END",
    "ENGINE_RUN",
    "JOB_SUBMIT",
    "JOB_START",
    "JOB_RETRY",
    "JOB_QUARANTINE",
    "JOB_COMPLETE",
]
