"""The sample-and-hold arrangement (paper Sec. III-B).

Signal chain, gated by PULSE from the astable::

    PV_IN --[divider R1/R2]-- tap --[U2 buffer]--[analog switch]-- C_hold --[U4 buffer]--[R3/C3]-- HELD_SAMPLE

During a PULSE the loads are disconnected from the PV module, the
divider reads a fraction ``k * alpha`` of the (nearly) open-circuit
voltage, and the buffered tap charges the hold capacitor through the
switch.  Between pulses the capacitor holds that value for the ~69 s
hold period, drooping only through its own insulation resistance, the
switch's off-leakage and U4's input bias current — the budget that makes
the "low-leakage polyester capacitor" a named design choice.

Every non-ideality in the accuracy budget is modelled:

* divider loading of the PV cell (solved with the MNA DC solver against
  the cell's real curve — the source of the lux-dependent k deviation),
* buffer offsets,
* incomplete settling within the pulse width,
* switch charge injection at PULSE release,
* dielectric absorption of the hold capacitor,
* droop over the hold period.

:func:`evaluate_sample_hold_boards` walks the same chain for a whole
population of toleranced boards in one vectorized pass (the Monte Carlo
tier).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.analog.components import Capacitor, ResistiveDivider
from repro.analog.mna import Circuit
from repro.analog.opamp import MICROPOWER_BUFFER, UnityGainBuffer
from repro.analog.switch import MICROPOWER_ANALOG_SWITCH, AnalogSwitch
from repro.errors import ModelParameterError
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    batch_loaded_point,
    stack_model_params,
    stack_string_params,
    string_loaded_point,
)
from repro.pv.single_diode import SingleDiodeModel


@dataclass(frozen=True)
class SampleResult:
    """Outcome of one sampling operation.

    Attributes:
        held_voltage: the voltage left on the hold capacitor, volts.
        tap_voltage: the divider tap voltage during the sample, volts.
        loaded_pv_voltage: the PV terminal voltage while loaded by the
            divider (slightly below true Voc), volts.
        true_voc: the cell's unloaded open-circuit voltage, volts.
        settle_fraction: how much of the step toward the target the hold
            capacitor completed within the pulse.
    """

    held_voltage: float
    tap_voltage: float
    loaded_pv_voltage: float
    true_voc: float
    settle_fraction: float

    @property
    def effective_ratio(self) -> float:
        """Achieved ``held / true_voc`` — the quantity behind Table I's k."""
        if self.true_voc <= 0.0:
            return 0.0
        return self.held_voltage / self.true_voc


@dataclass
class SampleHoldCircuit:
    """The divider / switch / hold-cap / buffer sampling chain.

    Attributes:
        divider: the R1/R2 ladder setting ``k * alpha`` (paper: trimmed
            so HELD/Voc is ~0.298, i.e. k ~ 0.596 at alpha = 0.5).
        hold_capacitor: the low-leakage sampling capacitor.
        input_buffer: U2, isolating the divider from the switch.
        output_buffer: U4, presenting HELD_SAMPLE to the converter.
        switch: the PULSE-gated analog switch.
        ripple_filter_r: R3, ohms (with C3 smooths HELD_SAMPLE ripple).
        ripple_filter_c: C3, farads.
        supply: rail, volts.
    """

    divider: ResistiveDivider = field(
        default_factory=lambda: ResistiveDivider.from_ratio(0.298, 10e6)
    )
    hold_capacitor: Capacitor = field(default_factory=lambda: Capacitor(1e-6))
    input_buffer: UnityGainBuffer = field(
        default_factory=lambda: UnityGainBuffer(spec=MICROPOWER_BUFFER)
    )
    output_buffer: UnityGainBuffer = field(
        default_factory=lambda: UnityGainBuffer(spec=MICROPOWER_BUFFER)
    )
    switch: AnalogSwitch = field(default_factory=lambda: AnalogSwitch(spec=MICROPOWER_ANALOG_SWITCH))
    ripple_filter_r: float = 100e3
    ripple_filter_c: float = 100e-9
    supply: float = 3.3
    _held: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.ripple_filter_r <= 0.0 or self.ripple_filter_c <= 0.0:
            raise ModelParameterError("ripple filter R and C must be positive")
        if self.supply <= 0.0:
            raise ModelParameterError(f"supply must be positive, got {self.supply!r}")

    # --- observables ------------------------------------------------------------

    @property
    def held_voltage(self) -> float:
        """Voltage currently on the hold capacitor, volts."""
        return self._held

    @property
    def held_sample(self) -> float:
        """The HELD_SAMPLE output (hold voltage through U4), volts."""
        if not self.output_buffer.alive:
            return 0.0
        return min(self.supply, max(0.0, self._held + self.output_buffer.spec.input_offset))

    @property
    def nominal_ratio(self) -> float:
        """Unloaded design ratio ``k * alpha`` of the divider."""
        return self.divider.ratio

    def quiescent_current(self) -> float:
        """Hold-phase supply current of the S&H block, amps.

        Both buffers and the switch logic run continuously; the divider
        is PULSE-gated so it contributes only during samples (see
        :meth:`sampling_extra_current`).
        """
        return (
            self.input_buffer.supply_current()
            + self.output_buffer.supply_current()
            + self.switch.supply_current()
        )

    def sampling_extra_current(self, pv_voltage: float) -> float:
        """Extra current while PULSE is high: the divider string, amps."""
        return self.divider.input_current(pv_voltage)

    def settle_time_constant(self) -> float:
        """Charging time constant of the hold capacitor, seconds."""
        source = self.input_buffer.spec.output_resistance + self.switch.spec.on_resistance
        return source * self.hold_capacitor.farads

    # --- operations ----------------------------------------------------------------

    def loaded_sample_point(self, cell_model: SingleDiodeModel) -> tuple:
        """Solve the PV + divider operating point during a sample.

        Returns:
            (pv_voltage, tap_voltage): the cell terminal voltage loaded
            by the divider, and the divider tap voltage.
        """
        loaded_point = getattr(cell_model, "loaded_point", None)
        if loaded_point is not None:
            # String models solve the divider load directly (bisection on
            # the same kernels the fleet tier runs), skipping the MNA
            # Newton walk; single cells keep the MNA path so the existing
            # golden traces stay bitwise.
            total = self.divider.top.ohms + self.divider.bottom.ohms
            pv_voltage = loaded_point(total)
            tap_voltage = pv_voltage * self.divider.bottom.ohms / total
            return pv_voltage, tap_voltage
        circuit = Circuit()
        circuit.add_pv_cell("pv", "0", cell_model)
        circuit.add_resistor("pv", "tap", self.divider.top.ohms)
        circuit.add_resistor("tap", "0", self.divider.bottom.ohms)
        solution = circuit.solve_dc(initial_guess={"pv": cell_model.voc()})
        return solution["pv"], solution["tap"]

    def sample(self, cell_model: SingleDiodeModel, pulse_width: float) -> SampleResult:
        """Perform one PULSE-gated sampling operation.

        Args:
            cell_model: the cell's curve at the current light level.
            pulse_width: how long PULSE holds the switch closed, seconds.

        Returns:
            A :class:`SampleResult`; the internal held voltage updates.
        """
        if pulse_width <= 0.0:
            raise ModelParameterError(f"pulse_width must be positive, got {pulse_width!r}")
        true_voc = cell_model.voc()
        pv_voltage, tap_voltage = self.loaded_sample_point(cell_model)
        target = self.input_buffer.settle(tap_voltage)

        # Charge through the switch for the effective pulse width.
        self.switch.close()
        effective = max(0.0, pulse_width - self.switch.spec.turn_on_time)
        tau = self.settle_time_constant()
        import math

        settle_fraction = 1.0 - math.exp(-effective / tau) if tau > 0.0 else 1.0
        previous = self._held
        new_held = previous + (target - previous) * settle_fraction

        # PULSE releases: charge injection kicks the hold node.
        kick = self.switch.open(self.hold_capacitor.farads)
        new_held += kick

        # Dielectric absorption: the film creeps back toward its history.
        soak = self.hold_capacitor.dielectric.dielectric_absorption
        new_held += soak * (previous - new_held)

        self._held = min(self.supply, max(0.0, new_held))
        return SampleResult(
            held_voltage=self._held,
            tap_voltage=tap_voltage,
            loaded_pv_voltage=pv_voltage,
            true_voc=true_voc,
            settle_fraction=settle_fraction,
        )

    def droop(self, dt: float) -> float:
        """Let the hold capacitor droop for ``dt`` seconds of hold time.

        Returns the held voltage afterwards.
        """
        bias = self.output_buffer.bias_current() + self.switch.leakage_current()
        self._held = self.hold_capacitor.droop(self._held, dt, external_bias_a=bias)
        return self._held

    def droop_rate(self) -> float:
        """Instantaneous droop rate at the current held voltage, volts/second."""
        leak = self.hold_capacitor.leakage_current(self._held)
        bias = self.output_buffer.bias_current() + self.switch.leakage_current()
        return (leak + bias) / self.hold_capacitor.farads

    def reset(self) -> None:
        """Discharge the hold capacitor (power-off state)."""
        self._held = 0.0
        self.input_buffer.settle(0.0)
        self.output_buffer.settle(0.0)

    # --- checkpoint protocol -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the chain's mutable state: hold node, buffers, switch."""
        return {
            "held": self._held,
            "input_buffer": self.input_buffer.state_dict(),
            "output_buffer": self.output_buffer.state_dict(),
            "switch": self.switch.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        for key in ("held", "input_buffer", "output_buffer", "switch"):
            if key not in state:
                from repro.errors import StateFormatError

                raise StateFormatError(f"SampleHoldCircuit state missing {key!r}")
        self._held = state["held"]
        self.input_buffer.load_state(state["input_buffer"])
        self.output_buffer.load_state(state["output_buffer"])
        self.switch.load_state(state["switch"])


def evaluate_sample_hold_boards(
    model,
    voc: float,
    *,
    top: np.ndarray,
    bottom: np.ndarray,
    u2_offset: np.ndarray,
    u4_offset: np.ndarray,
    injection: np.ndarray,
    hold_c: np.ndarray,
    pulse_width: float,
    hold_time: float,
    supply: float = 3.3,
    output_resistance: float = 1500.0,
    on_resistance: float = 120.0,
    turn_on_time: float = 1e-7,
    bias_current: float = 2e-12,
    off_leakage: float = 1e-12,
    soak: float = 0.003,
    insulation_ohm_farads: float = 25000.0,
) -> np.ndarray:
    """HELD_SAMPLE for a whole population of toleranced S&H boards.

    The Monte Carlo tier's one vectorized pass over the same chain
    :meth:`SampleHoldCircuit.sample` walks per board: loaded operating point, input-buffer settle, RC charge for
    the effective pulse, charge-injection kick, dielectric soak, a
    ``hold_time`` droop, and the output buffer's offset — each expression
    kept in the scalar model's form so the arithmetic matches.

    Args:
        model: the (shared) cell curve being sampled.
        voc: the model's open-circuit voltage, volts.
        top / bottom: per-board divider resistances, ohms.
        u2_offset / u4_offset: per-board buffer input offsets, volts.
        injection: per-board switch charge injection, coulombs.
        hold_c: per-board hold capacitance, farads.
        pulse_width: PULSE width, seconds.
        hold_time: droop interval after the sample, seconds.

    Returns:
        Per-board HELD_SAMPLE voltages after the droop, volts.
    """
    top = np.asarray(top, dtype=float)
    n = top.shape[0]
    rtot = top + bottom
    ratio = bottom / rtot

    t0 = _time.perf_counter()
    cells = getattr(model, "cells", None)
    if cells is not None:
        # Series-string model: same loaded-point bisection the string
        # scalar path runs, one row per toleranced board.
        sp = stack_string_params([cells] * n, [model.bypass_drop] * n)
        v_pv = string_loaded_point(sp, np.full(n, float(voc)), rtot)
    else:
        params = stack_model_params([model] * n)
        v_pv = batch_loaded_point(params, np.full(n, float(voc)), rtot)
    TRACER.add("fleet:vector-solve", _time.perf_counter() - t0)

    h = _OBS.fleet_nodes
    if h is not None:
        h.inc(n)
    h = _OBS.fleet_steps
    if h is not None:
        h.inc(n)

    tap = v_pv * ratio
    target = np.minimum(supply, np.maximum(0.0, tap + u2_offset))

    tau = (output_resistance + on_resistance) * hold_c
    effective = max(0.0, pulse_width - turn_on_time)
    settle_fraction = 1.0 - np.exp(-effective / tau)
    new_held = target * settle_fraction  # previous held voltage is 0
    new_held = new_held + injection / hold_c
    new_held = new_held + soak * (0.0 - new_held)
    held = np.minimum(supply, np.maximum(0.0, new_held))

    # Droop: same τ expression as Capacitor.droop (leakage_resistance·C).
    leak_tau = (insulation_ohm_farads / hold_c) * hold_c
    bias = bias_current + off_leakage
    held = held * np.exp(-hold_time / leak_tau)
    held = held - bias * hold_time / hold_c
    held = np.maximum(0.0, held)

    return np.minimum(supply, np.maximum(0.0, held + u4_offset))
