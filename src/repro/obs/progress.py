"""``repro.obs.progress`` — progress/ETA estimation over journal events.

A :class:`ProgressEstimator` consumes :mod:`repro.obs.journal` events —
live through ``journal.subscribe(estimator.observe)``, or after the
fact through :func:`replay_journal` — and maintains steps done / total,
a per-phase throughput EWMA, and an ETA.  It is checkpoint-aware: a
resumed run's ``run-start`` carries ``resumed_steps``, and progress
counters are monotonic, so a kill-and-resume journal replays to
*cumulative* progress (never less than the pre-kill value).

All arithmetic uses the wall-clock stamps carried **inside** the
events, not the observer's clock, so replaying a journal file
reconstructs exactly the rates the live run saw.

:class:`ProgressTicker` is the opt-in stderr surface behind the CLI's
``--progress`` flag: a single self-overwriting line, throttled to a
minimum repaint interval, final state flushed with a newline.  The
future control plane attaches the same way — ``subscribe(callback)`` on
the journal — and turns events into SSE instead of ANSI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.obs import journal as journal_mod

EWMA_ALPHA = 0.3
"""Weight of the newest throughput observation (higher = twitchier)."""


def _format_duration(seconds: float) -> str:
    """``H:MM:SS`` (or ``D d H:MM:SS``) for human eyes."""
    seconds = max(0.0, float(seconds))
    whole = int(round(seconds))
    days, rem = divmod(whole, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    core = f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{days} d {core}" if days else core


class ProgressEstimator:
    """Replayable run-progress state machine over journal events.

    Feed it every event (order matters only for rates, not for the
    monotonic counters) and read :attr:`fraction`, :attr:`eta_s`,
    :attr:`steps_per_s`, or :meth:`render`.
    """

    def __init__(self, alpha: float = EWMA_ALPHA):
        self.alpha = float(alpha)
        self.kind: Optional[str] = None
        self.run_id: Optional[str] = None
        self.total_steps: Optional[int] = None
        self.steps_done = 0
        self.phase: Optional[str] = None
        self.started_t: Optional[float] = None
        self.last_event_t: Optional[float] = None
        self.finished = False
        # Event tallies (cumulative across resumes in one journal).
        self.run_start_count = 0
        self.run_end_count = 0
        self.guard_errors = 0
        self.checkpoint_saves = 0
        self.checkpoint_restores = 0
        # Throughput EWMAs, overall and per phase.
        self.rate: Optional[float] = None
        self.phase_rates: Dict[str, float] = {}
        self._last_progress_t: Optional[float] = None
        self._last_progress_steps: Optional[int] = None

    # --- event intake -------------------------------------------------------

    def observe(self, event: Dict[str, Any]) -> None:
        """Consume one journal event (subscriber-callback compatible)."""
        name = event.get("event")
        t = event.get("t")
        if isinstance(t, (int, float)):
            self.last_event_t = float(t)
        if name == journal_mod.RUN_START:
            self.run_start_count += 1
            self.kind = event.get("kind", self.kind)
            self.run_id = event.get("run_id", self.run_id)
            total = event.get("total_steps")
            if total is not None:
                self.total_steps = int(total)
            elif self.finished:
                self.total_steps = None
            resumed = int(event.get("resumed_steps") or 0)
            if self.finished:
                # The previous run completed: this run-start opens a NEW
                # run (a sequential journal), not a resume of a killed
                # one — count it from its own baseline.  A run-start
                # after a run with no run-end is a crash resume, where
                # the monotonic max preserves cumulative progress.
                self.steps_done = resumed
                self.phase = None
            else:
                self.steps_done = max(self.steps_done, resumed)
            if self.started_t is None and isinstance(t, (int, float)):
                self.started_t = float(t)
            self.finished = False
            # A fresh (or resumed) process: its first progress delta
            # must not be rated against the previous run's clock.
            self._last_progress_t = None
            self._last_progress_steps = None
        elif name == journal_mod.PROGRESS:
            if self._is_inner(event):
                return
            self._observe_progress(event)
        elif name == journal_mod.PHASE_START:
            if self._is_inner(event):
                return
            self.phase = event.get("phase")
        elif name == journal_mod.PHASE_END:
            if self._is_inner(event):
                return
            self.phase = None
        elif name == journal_mod.RUN_END:
            self.run_end_count += 1
            self.finished = True
            done = event.get("steps_done")
            if done is not None:
                self.steps_done = max(self.steps_done, int(done))
        elif name == journal_mod.GUARD_ERROR:
            self.guard_errors += 1
        elif name == journal_mod.CHECKPOINT_SAVE:
            self.checkpoint_saves += 1
        elif name == journal_mod.CHECKPOINT_RESTORE:
            self.checkpoint_restores += 1

    def _is_inner(self, event: Dict[str, Any]) -> bool:
        """True when the event came from a nested run scope (e.g. the
        strings experiment driving comparison sub-runs): its counters
        describe inner work, not the run this estimator tracks."""
        kind = event.get("kind")
        return bool(self.kind) and bool(kind) and kind != self.kind

    def _observe_progress(self, event: Dict[str, Any]) -> None:
        t = event.get("t")
        done = event.get("steps_done")
        total = event.get("total_steps")
        phase = event.get("phase")
        if total is not None:
            self.total_steps = int(total)
        if done is None:
            return
        done = int(done)
        prev_t, prev_steps = self._last_progress_t, self._last_progress_steps
        if (
            isinstance(t, (int, float))
            and prev_t is not None
            and prev_steps is not None
            and float(t) > prev_t
            and done >= prev_steps
        ):
            inst = (done - prev_steps) / (float(t) - prev_t)
            self.rate = (
                inst
                if self.rate is None
                else self.alpha * inst + (1.0 - self.alpha) * self.rate
            )
            if phase:
                old = self.phase_rates.get(phase)
                self.phase_rates[phase] = (
                    inst if old is None else self.alpha * inst + (1.0 - self.alpha) * old
                )
        if isinstance(t, (int, float)):
            self._last_progress_t = float(t)
        self._last_progress_steps = done
        self.steps_done = max(self.steps_done, done)

    # --- derived state ------------------------------------------------------

    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction in [0, 1], or ``None`` when total unknown."""
        if not self.total_steps:
            return None
        return min(1.0, self.steps_done / self.total_steps)

    @property
    def steps_per_s(self) -> Optional[float]:
        """Smoothed overall throughput, or ``None`` before two samples."""
        return self.rate

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion at the smoothed rate."""
        if self.finished:
            return 0.0
        if not self.total_steps or not self.rate or self.rate <= 0.0:
            return None
        return max(0, self.total_steps - self.steps_done) / self.rate

    @property
    def elapsed_s(self) -> Optional[float]:
        """Wall time between first and latest observed event."""
        if self.started_t is None or self.last_event_t is None:
            return None
        return max(0.0, self.last_event_t - self.started_t)

    def render(self) -> str:
        """One human-readable status line (what the ticker prints)."""
        parts = [self.kind or "run"]
        frac = self.fraction
        if frac is not None:
            parts.append(f"{frac * 100.0:5.1f} % ({self.steps_done}/{self.total_steps})")
        elif self.steps_done:
            parts.append(f"{self.steps_done} steps")
        if self.rate:
            parts.append(f"{self.rate:,.0f} steps/s")
        eta = self.eta_s
        if self.finished:
            parts.append("done")
        elif eta is not None:
            parts.append(f"ETA {_format_duration(eta)}")
        elif self.elapsed_s is not None:
            parts.append(f"elapsed {_format_duration(self.elapsed_s)}")
        if self.phase:
            parts.append(f"[{self.phase}]")
        return " · ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (what an SSE control plane would send)."""
        return {
            "kind": self.kind,
            "run_id": self.run_id,
            "steps_done": self.steps_done,
            "total_steps": self.total_steps,
            "fraction": self.fraction,
            "steps_per_s": self.rate,
            "eta_s": self.eta_s,
            "phase": self.phase,
            "phase_rates": dict(self.phase_rates),
            "finished": self.finished,
            "run_start_count": self.run_start_count,
            "run_end_count": self.run_end_count,
            "guard_errors": self.guard_errors,
            "checkpoint_saves": self.checkpoint_saves,
            "checkpoint_restores": self.checkpoint_restores,
        }


def replay_journal(
    path: Union[str, Path], strict: bool = False, alpha: float = EWMA_ALPHA
) -> ProgressEstimator:
    """Reconstruct run progress from a journal file.

    The resume contract: replaying a journal holding a killed run plus
    its resumed continuation yields cumulative ``steps_done`` at least
    the pre-kill value (monotonic counters + ``resumed_steps``) and
    ``run_end_count == 1`` — the killed attempt never reached run-end.
    """
    estimator = ProgressEstimator(alpha=alpha)
    for event in journal_mod.iter_journal(path, strict=strict):
        estimator.observe(event)
    return estimator


class ProgressTicker:
    """Self-overwriting stderr status line driven by journal events.

    Attach with ``journal.subscribe(ticker.on_event)``.  Repaints are
    throttled to ``min_interval_s`` (terminal I/O must never become the
    run's bottleneck); run-end always repaints; :meth:`close` ends the
    line so subsequent output starts clean.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.5,
        estimator: Optional[ProgressEstimator] = None,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = float(min_interval_s)
        self.estimator = estimator if estimator is not None else ProgressEstimator()
        self._last_paint = 0.0
        self._last_width = 0
        self._painted = False

    def on_event(self, event: Dict[str, Any]) -> None:
        self.estimator.observe(event)
        now = time.monotonic()
        final = event.get("event") in (
            journal_mod.RUN_END,
            journal_mod.RUN_ERROR,
            journal_mod.GUARD_ERROR,
        )
        if not final and self._painted and now - self._last_paint < self.min_interval_s:
            return
        self._paint()
        self._last_paint = now

    def _paint(self) -> None:
        line = self.estimator.render()
        pad = max(0, self._last_width - len(line))
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go silent
            return
        self._last_width = len(line)
        self._painted = True

    def close(self) -> None:
        """Finish the ticker line (newline) if anything was painted."""
        if self._painted:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self._painted = False


__all__ = [
    "EWMA_ALPHA",
    "ProgressEstimator",
    "ProgressTicker",
    "replay_journal",
]
