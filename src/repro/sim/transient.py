"""Fixed-timestep transient engine.

Drives any object satisfying the tiny ``TransientSystem`` protocol —
``advance(t, dt)`` to integrate one step and ``signals()`` returning a
mapping of named observable values — and records selected signals into a
:class:`~repro.sim.traces.TraceSet`.  The Fig. 4 sampling-transient and
cold-start reproductions run on this engine with microsecond-class
steps.
"""

from __future__ import annotations

import math

from typing import Iterable, Mapping, Optional, Protocol, runtime_checkable

import repro.obs as obs
from repro.errors import ModelParameterError, NumericalGuardError, SimulationError
from repro.sim.traces import TraceSet


@runtime_checkable
class TransientSystem(Protocol):
    """What the transient engine needs from a simulated system."""

    def advance(self, t: float, dt: float) -> None:
        """Integrate the system state from ``t`` to ``t + dt``."""

    def signals(self) -> Mapping[str, float]:
        """Current values of the system's observable signals."""


class TransientSimulator:
    """Fixed-step transient simulation with decimated trace recording.

    Args:
        system: the system under simulation.
        dt: integration timestep, seconds.
        record: names of signals to record (default: everything the
            system exposes on its first ``signals()`` call).
        record_every: record one sample per this many steps (decimation),
            keeping multi-second runs at microsecond steps tractable.
    """

    def __init__(
        self,
        system: TransientSystem,
        dt: float,
        record: Optional[Iterable[str]] = None,
        record_every: int = 1,
    ):
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        if record_every < 1:
            raise ModelParameterError(f"record_every must be >= 1, got {record_every!r}")
        self.system = system
        self.dt = dt
        self.record_names = None if record is None else tuple(record)
        self.record_every = record_every
        self.traces = TraceSet()
        self.time = 0.0
        self._step_count = 0
        self._resolved_names: Optional[tuple] = None

    def _record(self, t: float) -> None:
        signals = self.system.signals()
        names = self._resolved_names
        if names is None:
            # Resolve and validate the selection once against the first
            # signals() mapping; recording happens every step (possibly
            # decimated) of a microsecond-step run, so the per-name
            # membership check must not be in the hot path.
            requested = self.record_names if self.record_names is not None else signals.keys()
            for name in requested:
                if name not in signals:
                    raise SimulationError(
                        f"requested signal {name!r} not provided by system; "
                        f"available: {sorted(signals)}"
                    )
            names = self._resolved_names = tuple(requested)
        record = self.traces.record
        for name in names:
            value = float(signals[name])
            if not math.isfinite(value):
                # A NaN/Inf here means an integration blew up; recording
                # it would quietly poison every downstream statistic.
                raise NumericalGuardError(
                    f"signal {name!r} went non-finite ({value!r}) at t={t:.6g} s",
                    signal=name,
                    time=t,
                )
            record(name, t, value)

    def run(self, duration: float) -> TraceSet:
        """Simulate for ``duration`` seconds (continuing from current time).

        Returns the accumulated trace set (also available as
        ``self.traces``).
        """
        if duration < 0.0:
            raise ModelParameterError(f"duration must be >= 0, got {duration!r}")
        steps = int(round(duration / self.dt))
        system_name = type(self.system).__name__
        with obs.TRACER.span(f"transient:{system_name}"):
            if self._step_count == 0:
                self._record(self.time)
            for _ in range(steps):
                self.system.advance(self.time, self.dt)
                self.time += self.dt
                self._step_count += 1
                if self._step_count % self.record_every == 0:
                    self._record(self.time)
        if obs.is_enabled():
            obs.REGISTRY.counter(
                "sim.transient_steps",
                "fixed-timestep transient integration steps",
                {"system": system_name},
            ).inc(steps)
        return self.traces

    def run_until(self, predicate, timeout: float, check_every: int = 1) -> float:
        """Simulate until ``predicate(system)`` is true; returns the time.

        Args:
            predicate: callable evaluated on the system after each step.
            timeout: give-up horizon, seconds (from current time).
            check_every: evaluate the predicate once per this many steps.

        Raises:
            SimulationError: if the predicate stays false past ``timeout``.
        """
        deadline = self.time + timeout
        if self._step_count == 0:
            self._record(self.time)
        steps = 0
        while self.time < deadline:
            self.system.advance(self.time, self.dt)
            self.time += self.dt
            self._step_count += 1
            steps += 1
            if self._step_count % self.record_every == 0:
                self._record(self.time)
            if steps % check_every == 0 and predicate(self.system):
                return self.time
        raise SimulationError(
            f"predicate not satisfied within {timeout} s (reached t={self.time:.6g})"
        )
