"""Supercapacitor energy store.

Energy-based model with ESR charge/discharge loss and self-leakage,
suitable for the quasi-static engine's second-class steps.  The store
clamps at its rated voltage (a real harvester sheds or regulates there)
and cannot be driven below zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ModelParameterError


@dataclass
class Supercapacitor:
    """A supercapacitor with ESR and leakage.

    Attributes:
        capacitance: farads.
        rated_voltage: maximum terminal voltage, volts.
        esr: equivalent series resistance, ohms.
        leakage_current: self-discharge current, amps.
        voltage: current terminal voltage (state), volts.
    """

    capacitance: float
    rated_voltage: float = 5.5
    esr: float = 0.5
    leakage_current: float = 1e-6
    voltage: float = 0.0

    def __post_init__(self) -> None:
        from repro.validation import require_finite

        for name in ("capacitance", "rated_voltage", "esr", "leakage_current", "voltage"):
            require_finite(getattr(self, name), name)
        if self.capacitance <= 0.0:
            raise ModelParameterError(f"capacitance must be positive, got {self.capacitance!r}")
        if self.rated_voltage <= 0.0:
            raise ModelParameterError(f"rated_voltage must be positive, got {self.rated_voltage!r}")
        if self.esr < 0.0 or self.leakage_current < 0.0:
            raise ModelParameterError("esr and leakage_current must be >= 0")
        if not 0.0 <= self.voltage <= self.rated_voltage:
            raise ModelParameterError(
                f"initial voltage {self.voltage!r} outside [0, {self.rated_voltage}]"
            )

    @property
    def stored_energy(self) -> float:
        """Stored energy, joules."""
        return 0.5 * self.capacitance * self.voltage * self.voltage

    def exchange(self, power: float, dt: float) -> float:
        """Exchange ``power`` watts with the store for ``dt`` seconds.

        Positive power charges, negative discharges.  Self-leakage is
        applied on every call with ``power >= 0`` exactly once per step
        convention: callers exchanging both a charge and a draw in one
        step should make the charge call first (leakage rides on it).

        Returns:
            The power actually exchanged at the terminal (may be less
            than requested when the store clamps full or runs empty).
        """
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")

        v = self.voltage
        c = self.capacitance
        # ESR dissipation while exchanging ``power`` at the terminal,
        # capped at |power|: the averaged model cannot dissipate more than
        # it moves (a real charger would simply fail to push that current).
        if v <= 1e-9:
            loss = 0.0
        else:
            magnitude = abs(power)
            current = magnitude / v
            loss = current * current * self.esr
            if magnitude < loss:  # min(loss, |power|)
                loss = magnitude
        leak = self.leakage_current * v
        full = 0.5 * c * self.rated_voltage * self.rated_voltage
        stored = 0.5 * c * v * v  # stored_energy

        if power >= 0.0:
            requested = power
            stored_delta = max(0.0, power - loss) - leak
            energy = max(0.0, stored + stored_delta * dt)
            if energy > full:
                # Clamp: report the terminal power pro-rated to what fit.
                fitted = full - stored
                if stored_delta > 0.0:
                    requested = power * fitted / (stored_delta * dt)
                energy = full
            self.voltage = math.sqrt(2.0 * energy / c)
            return requested

        # Discharge: the store cannot deliver more terminal energy than
        # it holds, regardless of loss bookkeeping.
        drawn_internal = (-power + loss + leak) * dt
        if drawn_internal <= stored:
            energy = stored - drawn_internal
            requested = power
        else:
            energy = 0.0
            # Terminal share of what was actually available.
            fraction = stored / drawn_internal if drawn_internal > 0.0 else 0.0
            requested = power * fraction
        self.voltage = math.sqrt(2.0 * energy / c)
        return requested

    def state_dict(self) -> dict:
        """Snapshot the store's mutable state (checkpoint protocol)."""
        return {"voltage": self.voltage}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.ckpt.state import restore_fields

        restore_fields(self, state, ("voltage",))

    def time_to_voltage(self, target: float, power: float) -> float:
        """Seconds of constant ``power`` charging needed to reach ``target`` volts.

        Ignores leakage and ESR (an estimate for sizing and tests).
        """
        if target < self.voltage:
            raise ModelParameterError(f"target {target!r} below current voltage {self.voltage!r}")
        if power <= 0.0:
            raise ModelParameterError(f"power must be positive, got {power!r}")
        needed = 0.5 * self.capacitance * (target * target - self.voltage * self.voltage)
        return needed / power
