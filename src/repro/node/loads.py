"""Duty-cycled electrical load profiles."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ModelParameterError


class NodeState(enum.Enum):
    """Operating states of a duty-cycled sensor node."""

    SLEEP = "sleep"
    SENSE = "sense"
    PROCESS = "process"
    TRANSMIT = "transmit"


@dataclass
class DutyCycledLoad:
    """A periodic state-sequence load.

    Each cycle runs the given (state, duration, power) phases and then
    sleeps for the remainder of the period.  Evaluating ``power(t)``
    is exact (no averaging), so fine-grained storage simulations see the
    real spikes; :meth:`average_power` gives the budget number.

    Attributes:
        period: full cycle period, seconds.
        phases: active phases as (state, duration_s, power_w).
        sleep_power: power during the sleep remainder, watts.
    """

    period: float
    phases: List[Tuple[NodeState, float, float]]
    sleep_power: float = 3e-6

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ModelParameterError(f"period must be positive, got {self.period!r}")
        active = sum(duration for _, duration, _ in self.phases)
        if active > self.period:
            raise ModelParameterError(
                f"active phases ({active}s) exceed the period ({self.period}s)"
            )
        for state, duration, power in self.phases:
            if duration < 0.0 or power < 0.0:
                raise ModelParameterError(
                    f"phase {state} has negative duration or power"
                )
        if self.sleep_power < 0.0:
            raise ModelParameterError(f"sleep_power must be >= 0, got {self.sleep_power!r}")

    def state_at(self, t: float) -> NodeState:
        """The node state at time ``t``."""
        offset = t % self.period
        for state, duration, _ in self.phases:
            if offset < duration:
                return state
            offset -= duration
        return NodeState.SLEEP

    def power(self, t: float) -> float:
        """Instantaneous load power (watts) at time ``t``."""
        offset = t % self.period
        for _, duration, phase_power in self.phases:
            if offset < duration:
                return phase_power
            offset -= duration
        return self.sleep_power

    __call__ = power

    def average_power(self) -> float:
        """Cycle-average load power, watts."""
        active_energy = sum(duration * power for _, duration, power in self.phases)
        active_time = sum(duration for _, duration, _ in self.phases)
        sleep_energy = (self.period - active_time) * self.sleep_power
        return (active_energy + sleep_energy) / self.period

    def _cycle_energy(self, offset: float) -> float:
        """Energy (J) drawn over the first ``offset`` seconds of a cycle."""
        energy = 0.0
        for _, duration, phase_power in self.phases:
            if offset <= duration:
                return energy + offset * phase_power
            energy += duration * phase_power
            offset -= duration
        return energy + offset * self.sleep_power

    def mean_power(self, t: float, dt: float) -> float:
        """Exact average of :meth:`power` over ``[t, t + dt)``, watts, for
        engines that hold one load per step; ``dt`` may span periods."""
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        end, period, cycle_energy = t + dt, self.period, self._cycle_energy
        cycles = end // period - t // period
        energy = cycles * cycle_energy(period) + cycle_energy(end % period)
        return (energy - cycle_energy(t % period)) / dt

    def duty_cycle(self) -> float:
        """Fraction of the period spent out of sleep."""
        return sum(duration for _, duration, _ in self.phases) / self.period
