"""The complete Fig. 3 platform as a quasi-static harvesting controller.

:class:`SampleHoldMPPT` wires the astable, sample-and-hold, cold-start
chain, ACTIVE monitor and converter model into one object implementing
the :class:`~repro.sim.quasistatic.HarvestingController` protocol, so it
drops into the same simulation loop as every baseline technique.

Operating cycle (steady state):

1. The astable raises PULSE for ``t_on`` every ``t_on + t_off`` seconds.
2. During PULSE the loads are disconnected (harvest pauses — accounted
   as a duty loss), the S&H samples the loaded Voc, and M8 keeps the
   converter inhibited.
3. Between pulses the converter regulates the PV module at
   ``HELD_SAMPLE / alpha`` while the hold capacitor droops slowly.

Cold start: from a dead store, the PV cell charges C1; once the
threshold is crossed the metrology wakes, the first PULSE fires almost
immediately, and ACTIVE releases the converter only after a valid
sample is held.

Once started, the platform is open-loop with respect to storage: the
astable samples ``Voc·k·α`` on a fixed grid, and neither the held
sample nor the ACTIVE gate reads the store.  So the whole pulse / droop
/ sample / comparator chain is a pure function of the controller's
initial state and its condition trace.  :func:`replay_sample_hold`
walks it once, up front, into per-step ``v_op`` / duty / overhead /
valid series, replacing the per-sample MNA Newton solve with the
closed-form solution of the identical load line (``I_cell(v) = v /
R_divider``, agreeing to ~1e-12 V).  The compiled tier's S&H lanes read
that replay, and :class:`ReplayedSampleHold` hands it to the scalar
engine as a stateless controller (the resilience ``fleet`` engine).
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.config import PlatformConfig
from repro.errors import ModelParameterError
from repro.faults.components import HoldLeakageFault
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    batch_loaded_point,
    stack_model_params,
    stack_string_params,
    string_loaded_point,
    string_population,
)
from repro.sim.quasistatic import ControlDecision, Observation


@dataclass
class SampleHoldMPPT:
    """The proposed ultra low-power S&H FOCV MPPT system.

    Args:
        config: the platform build; defaults to the paper prototype.
        assume_started: skip cold-start (bench tests with a powered rail).
        name: report label.
    """

    config: PlatformConfig = field(default_factory=PlatformConfig.paper_prototype)
    assume_started: bool = False
    name: str = "proposed-S&H-FOCV"

    _powered: bool = field(default=False, repr=False)
    _next_pulse: float = field(default=0.0, repr=False)
    _sample_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.assume_started:
            self._powered = True

    # --- observables -----------------------------------------------------------

    @property
    def powered(self) -> bool:
        """Whether the metrology is energised (cold start complete)."""
        return self._powered

    @property
    def held_sample(self) -> float:
        """Current HELD_SAMPLE output, volts."""
        return self.config.sample_hold.held_sample

    @property
    def sample_count(self) -> int:
        """Sampling operations performed so far."""
        return self._sample_count

    def reset(self) -> None:
        """Return to the fully-dead state."""
        self._powered = self.assume_started
        self._next_pulse = 0.0
        self._sample_count = 0
        self.config.sample_hold.reset()
        self.config.coldstart.reset()
        self.config.astable.reset()

    # --- controller protocol ------------------------------------------------------

    def decide(self, obs: Observation) -> ControlDecision:
        """One quasi-static step of the whole platform."""
        cfg = self.config

        if not self._powered:
            return self._cold_start_step(obs)

        # Brown-out: if the rail powering the metrology collapses, the
        # system is dead and must cold-start again.
        if obs.storage_voltage < cfg.min_operating_voltage and not self.assume_started:
            has_coldstart_rail = cfg.coldstart.voltage >= cfg.coldstart.turn_off_voltage
            if not has_coldstart_rail:
                self._powered = False
                cfg.sample_hold.reset()
                return self._cold_start_step(obs)

        # --- sampling operations that fall inside this step -----------------------
        t_end = obs.time + obs.dt
        sampling_time = 0.0
        cursor = obs.time
        while self._next_pulse < t_end:
            pulse_at = max(self._next_pulse, obs.time)
            # Droop from the cursor up to the pulse, then sample.
            cfg.sample_hold.droop(max(0.0, pulse_at - cursor))
            cfg.sample_hold.sample(obs.cell_model, cfg.astable.t_on)
            self._sample_count += 1
            sampling_time += cfg.astable.t_on
            cursor = pulse_at
            self._next_pulse += cfg.astable.period
        cfg.sample_hold.droop(max(0.0, t_end - cursor))

        held = cfg.sample_hold.held_sample
        duty = max(0.0, 1.0 - sampling_time / obs.dt)

        overhead = cfg.metrology_current()
        # Divider current while PULSE is high, averaged over the step.
        if sampling_time > 0.0:
            overhead += (
                cfg.sample_hold.sampling_extra_current(obs.cell_model.voc())
                * sampling_time
                / obs.dt
            )

        # ACTIVE gate and converter minimum input.
        if not cfg.active.active(held):
            return ControlDecision(
                operating_voltage=None,
                harvest_duty=0.0,
                overhead_current=overhead,
                note="ACTIVE low",
            )
        v_op = cfg.operating_point_from_held(held)
        if v_op < cfg.converter.min_input_voltage:
            return ControlDecision(
                operating_voltage=None,
                harvest_duty=0.0,
                overhead_current=overhead,
                note="below converter minimum",
            )
        # The cell cannot be regulated above its open-circuit voltage —
        # the converter just idles at (near) zero current there.
        if v_op >= obs.cell_model.voc():
            return ControlDecision(
                operating_voltage=None,
                harvest_duty=0.0,
                overhead_current=overhead,
                note="setpoint above Voc",
            )
        return ControlDecision(
            operating_voltage=v_op,
            harvest_duty=duty,
            overhead_current=overhead,
        )

    def _cold_start_step(self, obs: Observation) -> ControlDecision:
        """Charge C1 from the cell; wake the metrology on threshold."""
        cfg = self.config
        powered = cfg.coldstart.charge_step(
            obs.cell_model,
            obs.dt,
            metrology_current=cfg.metrology_current(),
        )
        if powered:
            self._powered = True
            # "The system has been shown to cold-start and quickly
            # generate a signal on the PULSE line": first sample fires on
            # the next step boundary.
            self._next_pulse = obs.time + obs.dt
        # All PV energy goes into C1 during cold start; nothing is
        # harvested into storage and nothing is drawn from it.
        return ControlDecision(
            operating_voltage=None,
            harvest_duty=0.0,
            overhead_current=0.0,
            note="cold-starting",
        )

    # --- checkpoint protocol ------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the platform's mutable state: the controller's own
        counters plus the S&H chain, cold-start circuit and astable."""
        from repro.ckpt.state import capture_fields

        state = capture_fields(self, ("_powered", "_next_pulse", "_sample_count"))
        state["sample_hold"] = self.config.sample_hold.state_dict()
        state["coldstart"] = self.config.coldstart.state_dict()
        state["astable"] = self.config.astable.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.ckpt.state import restore_fields
        from repro.errors import StateFormatError

        restore_fields(self, state, ("_powered", "_next_pulse", "_sample_count"))
        for key in ("sample_hold", "coldstart", "astable"):
            if key not in state:
                raise StateFormatError(f"SampleHoldMPPT state missing {key!r}")
        self.config.sample_hold.load_state(state["sample_hold"])
        self.config.coldstart.load_state(state["coldstart"])
        self.config.astable.load_state(state["astable"])

    # --- introspection helpers (benches/tests) --------------------------------------

    def steady_state_operating_voltage(self, cell_model) -> Optional[float]:
        """Where the platform would regulate the given curve after one sample.

        A pure function used by the Table I bench: performs a sample on a
        scratch copy of the S&H and returns the resulting setpoint.
        """
        import copy

        scratch = copy.deepcopy(self.config.sample_hold)
        scratch.sample(cell_model, self.config.astable.t_on)
        held = scratch.held_sample
        if not self.config.active.active(held):
            return None
        return self.config.operating_point_from_held(held)


# --------------------------------------------------------------------------
# The started chain, replayed
# --------------------------------------------------------------------------


def _unwrap_controller(controller):
    """Split an (optionally leakage-faulted) controller into (base, schedule, multiplier)."""
    if isinstance(controller, HoldLeakageFault):
        return controller.base, controller.schedule, controller.droop_multiplier
    return controller, None, 1.0


def fleet_supported(controller) -> bool:
    """Whether this controller's chain can be replayed (:func:`replay_sample_hold`).

    The replay covers the proposed-S&H platform once started (so no
    cold-start chain), optionally under a hold-leakage fault.  Baseline
    controllers, setpoint-drift wrappers and cold-start studies take the
    scalar engine.  Converter and storage do not matter: a replayed
    controller steps them on the scalar engine.
    """
    base, _, _ = _unwrap_controller(controller)
    return isinstance(base, SampleHoldMPPT) and base.powered and base.assume_started


@dataclass(frozen=True)
class SampleHoldConstants:
    """One S&H controller's chain constants, initial state and targets,
    each read off the scalar objects the controller steps."""

    alpha: float  # Vop / Voc ratio the held sample is divided by
    t_on: float  # astable PULSE width, seconds
    period: float  # astable period, seconds
    metrology: float  # static metrology current, amps
    min_vin: float  # converter minimum input voltage, volts
    sh_supply: float  # S&H rail, volts
    rtot: float  # divider total resistance, ohms
    settle_fraction: float  # RC charge fraction reached in one pulse
    kick: float  # switch charge injection per sample, volts
    soak: float  # dielectric-absorption fraction
    droop_tau: float  # hold-capacitor leakage time constant, seconds
    droop_bias_c: float  # (U4 bias + switch off-leakage) / C, volts per second
    u4_offset: float  # output buffer offset, volts
    u4_alive: bool
    cmp_threshold: float  # ACTIVE comparator (U5) threshold, volts
    cmp_offset: float
    cmp_half: float  # half hysteresis, volts
    cmp_alive: bool
    held: float  # initial state from here on
    next_pulse: float
    cmp_high: bool
    target: np.ndarray  # per-condition U2 output: loaded tap + offset, clamped


def sample_hold_constants(controller, models: Sequence[object], voc) -> SampleHoldConstants:
    """Extract an S&H controller's constants and solve its sample targets.

    Args:
        controller: an unwrapped :class:`SampleHoldMPPT`.
        models: the run's unique condition models — all single cells or
            all series strings (:func:`~repro.pv.batch.string_population`).
        voc: open-circuit voltage of each model, volts.

    Returns:
        The chain's :class:`SampleHoldConstants`, with ``target``
        aligned with ``models``.
    """
    cfg = controller.config
    sh = cfg.sample_hold
    cap = sh.hold_capacitor
    spec = sh.switch.spec
    u5 = cfg.active._u5
    rtot = sh.divider.total_resistance

    tau = sh.settle_time_constant()
    effective = max(0.0, cfg.astable.t_on - spec.turn_on_time)

    # Loaded sample points: one closed-form (cells) / bisection (strings)
    # vector solve covers every condition — the counterpart of the
    # scalar engine's per-sample MNA solve.
    t0 = _time.perf_counter()
    voc = np.asarray(voc, dtype=float)
    models = list(models)
    if not models:
        v_pv = np.zeros(0)
    elif string_population(models):
        sp = stack_string_params([m.cells for m in models], [m.bypass_drop for m in models])
        v_pv = string_loaded_point(sp, voc, rtot)
    else:
        v_pv = batch_loaded_point(stack_model_params(models), voc, rtot)
    TRACER.add("fleet:vector-solve", _time.perf_counter() - t0)
    target = np.minimum(
        sh.supply,
        np.maximum(0.0, v_pv * sh.divider.ratio + sh.input_buffer.spec.input_offset),
    )
    if not sh.input_buffer.alive:
        target = np.zeros_like(target)

    return SampleHoldConstants(
        alpha=cfg.alpha,
        t_on=cfg.astable.t_on,
        period=cfg.astable.period,
        metrology=cfg.metrology_current(),
        min_vin=cfg.converter.min_input_voltage,
        sh_supply=sh.supply,
        rtot=rtot,
        settle_fraction=1.0 - math.exp(-effective / tau) if tau > 0.0 else 1.0,
        kick=spec.charge_injection / cap.farads,
        soak=cap.dielectric.dielectric_absorption,
        droop_tau=cap.leakage_resistance * cap.farads,
        droop_bias_c=(sh.output_buffer.bias_current() + spec.off_leakage) / cap.farads,
        u4_offset=sh.output_buffer.spec.input_offset,
        u4_alive=sh.output_buffer.alive,
        cmp_threshold=cfg.active.threshold,
        cmp_offset=u5.spec.input_offset,
        cmp_half=u5.spec.hysteresis / 2.0,
        cmp_alive=u5.alive,
        held=sh.state_dict()["held"],
        next_pulse=controller._next_pulse,
        cmp_high=u5.output_high,
        target=target,
    )


def replay_sample_hold(
    c: SampleHoldConstants,
    times: Sequence[float],
    dt: float,
    target: Sequence[float],
    voc: Sequence[float],
    leak_schedule=None,
    leak_multiplier: float = 1.0,
) -> tuple:
    """Walk a started S&H chain over a whole condition trace, once.

    Step by step this is :meth:`SampleHoldMPPT.decide` on the powered
    path: droop to each pulse inside the step, sample toward the
    condition's target, droop to the step end, then the U4 output, the
    ACTIVE latch and the converter-minimum and Voc gates.  Nothing in it
    reads storage, which is what lets the chain run ahead of the engine.

    Args:
        c: the chain's constants and initial state
            (:func:`sample_hold_constants`).
        times: step start times, seconds.
        dt: step length, seconds.
        target: per-step U2 sample target (``c.target`` at the trace's
            condition index), volts.
        voc: per-step open-circuit voltage, volts.
        leak_schedule: a :class:`HoldLeakageFault`'s schedule, or None.
        leak_multiplier: that fault's droop multiplier.  On active steps
            the hold capacitor droops an extra ``dt·(multiplier − 1)``
            after the comparator, as the wrapper does.

    Returns:
        ``(v_op, duty, overhead_current, valid)`` arrays, one entry per
        step: the held-sample setpoint, the harvest duty, the controller
        supply current, and whether the step's decision connects the
        cell at ``v_op``.
    """
    steps = len(times)
    held = c.held
    pulse = c.next_pulse
    cmp_prev = c.cmp_high
    leak_d = dt * (leak_multiplier - 1.0)
    exp = math.exp

    vop_row = np.empty(steps)
    duty_row = np.empty(steps)
    oh_row = np.empty(steps)
    valid_row = np.empty(steps, dtype=bool)

    for i in range(steps):
        t = times[i]
        t_end = t + dt
        sampling = 0.0
        cursor = t
        while pulse < t_end:
            pulse_at = pulse if pulse > t else t
            d = pulse_at - cursor
            if d < 0.0:
                d = 0.0
            held = held * exp(-d / c.droop_tau) - c.droop_bias_c * d
            if held < 0.0:
                held = 0.0
            new = held + (target[i] - held) * c.settle_fraction
            new = new + c.kick
            new = new + c.soak * (held - new)
            if new < 0.0:
                new = 0.0
            if new > c.sh_supply:
                new = c.sh_supply
            held = new
            sampling += c.t_on
            cursor = pulse_at
            pulse += c.period
        d = t_end - cursor
        if d < 0.0:
            d = 0.0
        held = held * exp(-d / c.droop_tau) - c.droop_bias_c * d
        if held < 0.0:
            held = 0.0

        he = held + c.u4_offset
        if he < 0.0:
            he = 0.0
        if he > c.sh_supply:
            he = c.sh_supply
        if not c.u4_alive:
            he = 0.0
        duty = 1.0 - sampling / dt
        if duty < 0.0:
            duty = 0.0
        oh = c.metrology
        if sampling > 0.0:
            oh = oh + (voc[i] / c.rtot) * sampling / dt

        diff = (he - c.cmp_threshold) + c.cmp_offset
        if cmp_prev:
            latched = not (diff < -c.cmp_half)
        else:
            latched = diff > c.cmp_half
        cmp_prev = c.cmp_alive and latched
        v_op = he / c.alpha
        valid_row[i] = cmp_prev and (v_op >= c.min_vin) and (v_op < voc[i])
        vop_row[i] = v_op
        duty_row[i] = duty
        oh_row[i] = oh

        if leak_schedule is not None and leak_schedule.active(t):
            held = held * exp(-leak_d / c.droop_tau) - c.droop_bias_c * leak_d
            if held < 0.0:
                held = 0.0

    return vop_row, duty_row, oh_row, valid_row


class ReplayedSampleHold:
    """A started S&H controller replayed over one precomputed trace.

    The chain is walked once at construction
    (:func:`replay_sample_hold`); :meth:`decide` hands back the decision
    of the step the observation starts.  That decision depends on the
    step time alone, so this controller holds no mutable state, and a
    run stepping it checkpoints and resumes through
    :class:`~repro.sim.quasistatic.QuasiStaticSimulator`'s own snapshot.

    Args:
        controller: a started :class:`SampleHoldMPPT`, optionally
            wrapped in :class:`HoldLeakageFault`
            (:func:`fleet_supported`).
        precomputed: the :class:`~repro.sim.precompute.PrecomputedConditions`
            the controller is stepped over, at its own ``dt``.
    """

    def __init__(self, controller, precomputed):
        if not fleet_supported(controller):
            raise ModelParameterError(
                f"{controller.name!r} is not a started S&H chain; run it on the scalar engine"
            )
        base, leak_schedule, leak_multiplier = _unwrap_controller(controller)
        self.name = controller.name
        self.dt = float(precomputed.dt)
        self._times = np.asarray(precomputed.times, dtype=float).tolist()
        voc = np.array([model.voc() for model in precomputed.unique])
        c = sample_hold_constants(base, precomputed.unique, voc)
        series = replay_sample_hold(
            c,
            self._times,
            self.dt,
            c.target[precomputed.u_row].tolist(),
            voc[precomputed.u_row].tolist(),
            leak_schedule,
            leak_multiplier,
        )
        self._v_op, self._duty, self._overhead, self._valid = (
            row.tolist() for row in series
        )

    def decide(self, obs: Observation) -> ControlDecision:
        """The replayed decision of the step starting at ``obs.time``."""
        times = self._times
        i = bisect_left(times, obs.time)
        if i == len(times) or times[i] != obs.time or obs.dt != self.dt:
            raise ModelParameterError(
                f"step t={obs.time!r} s, dt={obs.dt!r} s is off the trace "
                f"{self.name!r} replays (dt={self.dt!r} s, {len(times)} steps)"
            )
        if self._valid[i]:
            return ControlDecision(self._v_op[i], self._duty[i], self._overhead[i])
        return ControlDecision(None, 0.0, self._overhead[i])
