"""Energy-aware duty-cycle adaptation for the harvesting-powered node.

The point of an energy-harvesting WSN node is perpetual operation: the
node must spend, on average, no more than it harvests.  This scheduler
implements the standard storage-referenced control: the report period
stretches or shrinks with the energy store's state of charge, bounded by
application limits, so the node rides through nights and dark days and
spends surplus when the store is comfortable.

It composes with the quasi-static engine as a step-averaged ``load``
(:meth:`EnergyAwareScheduler.mean_power`), and the ``adaptive_node.py``
example runs it through the office-desk day.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ModelParameterError, NumericalGuardError
from repro.node.sensor_node import SensorNode
from repro.obs.metrics import HOOKS as _OBS


@dataclass
class EnergyAwareScheduler:
    """Storage-referenced report-period controller.

    The controller maps the store's voltage onto a report period:

    * below ``v_survival`` — hibernate (sleep floor only);
    * between ``v_survival`` and ``v_comfort`` — period interpolates
      (logarithmically) from ``max_period`` down to ``min_period``;
    * above ``v_comfort`` — run at ``min_period`` (spend the surplus).

    Attributes:
        node: the sensor node whose duty cycle is controlled.
        storage: the energy store observed (anything with ``.voltage``).
        v_survival: hibernation threshold, volts.
        v_comfort: full-rate threshold, volts.
        min_period: fastest report period, seconds.
        max_period: slowest report period, seconds.
        update_interval: how often the period is re-evaluated, seconds.
    """

    node: SensorNode
    storage: object
    v_survival: float = 2.2
    v_comfort: float = 4.0
    min_period: float = 30.0
    max_period: float = 1800.0
    update_interval: float = 60.0

    _current_period: float = field(default=0.0, repr=False)
    _next_update: float = field(default=0.0, repr=False)
    _hibernating: bool = field(default=False, repr=False)
    _reports_sent: int = field(default=0, repr=False)
    _next_report: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        from repro.validation import require_finite

        for name in ("v_survival", "v_comfort", "min_period", "max_period", "update_interval"):
            require_finite(getattr(self, name), name)
        if self.v_survival >= self.v_comfort:
            raise ModelParameterError("v_survival must be below v_comfort")
        if self.min_period <= 0.0:
            raise ModelParameterError("min_period must be positive")
        if self.min_period >= self.max_period:
            raise ModelParameterError("min_period must be below max_period")
        if self.update_interval <= 0.0:
            raise ModelParameterError("update_interval must be positive")
        self._current_period = self.max_period

    # --- policy ------------------------------------------------------------------

    def period_for_voltage(self, voltage: float) -> Optional[float]:
        """The report period commanded at a given store voltage.

        Returns None for hibernation.
        """
        if voltage != voltage:
            # NaN compares false against both thresholds and would fall
            # through to min_period — the *fastest* reporting rate on a
            # store whose state is unknown.  Surface it instead.
            raise NumericalGuardError(
                "storage voltage is NaN; refusing to schedule on it", signal="v_storage"
            )
        if voltage < self.v_survival:
            return None
        if voltage >= self.v_comfort:
            return self.min_period
        # Logarithmic interpolation: period shrinks fast once the store
        # is demonstrably above survival.  The exp/log round trip can
        # land a hair outside the bounds at the endpoints, so clamp.
        fraction = (voltage - self.v_survival) / (self.v_comfort - self.v_survival)
        log_period = math.log(self.max_period) + fraction * (
            math.log(self.min_period) - math.log(self.max_period)
        )
        period = math.exp(log_period)
        if period < self.min_period or period > self.max_period:
            clamps = _OBS.scheduler_clamps
            if clamps is not None:
                clamps.inc()
            period = min(self.max_period, max(self.min_period, period))
        return period

    # --- observables --------------------------------------------------------------

    @property
    def current_period(self) -> float:
        """The report period currently in force, seconds."""
        return self._current_period

    @property
    def hibernating(self) -> bool:
        """Whether the node is in survival hibernation."""
        return self._hibernating

    @property
    def reports_sent(self) -> int:
        """Reports transmitted so far."""
        return self._reports_sent

    # --- load interface --------------------------------------------------------------

    def mean_power(self, t: float, dt: float) -> float:
        """Average node power (watts) over the step ``[t, t + dt)``.

        The simulator's load hook, for engines that hold one load per
        step: pass ``lambda t: scheduler.mean_power(t, dt)``.
        Re-evaluates the policy every ``update_interval``; the node
        sleeps between reports, and each report due within the step adds
        its energy spread over the step.  Reports fall due one period
        after the previous one, not on the step grid, so a longer step
        neither drops nor delays them.
        """
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        if t >= self._next_update:
            voltage = getattr(self.storage, "voltage", self.v_comfort)
            period = self.period_for_voltage(voltage)
            if period is None:
                self._hibernating = True
            else:
                was_hibernating = self._hibernating
                self._hibernating = False
                self._current_period = period
                if was_hibernating:
                    self._next_report = t + period
            self._next_update = t + self.update_interval

        if self._hibernating:
            return self.node.sleep_power

        reports = 0
        end = t + dt
        while self._next_report < end:
            reports += 1
            self._next_report += self._current_period
        self._reports_sent += reports
        return self.node.sleep_power + reports * self.node.energy_per_report() / dt

    # --- checkpoint protocol --------------------------------------------------------

    _STATE_FIELDS = (
        "_current_period",
        "_next_update",
        "_hibernating",
        "_reports_sent",
        "_next_report",
    )

    def state_dict(self) -> dict:
        """Snapshot the scheduler's mutable state (checkpoint protocol)."""
        from repro.ckpt.state import capture_fields

        return capture_fields(self, self._STATE_FIELDS)

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.ckpt.state import restore_fields

        restore_fields(self, state, self._STATE_FIELDS)

    def average_power_at(self, voltage: float) -> float:
        """Steady-state average power if the store sat at ``voltage``."""
        period = self.period_for_voltage(voltage)
        if period is None:
            return self.node.sleep_power
        return self.node.sleep_power + self.node.energy_per_report() / period
