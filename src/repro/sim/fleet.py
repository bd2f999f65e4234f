"""Fleet engine: populations of started S&H nodes, one chain replay each.

Population workloads — tolerance Monte-Carlo boards, resilience
campaign grids — run many copies of the proposed S&H platform.  Once
started, that platform is open-loop with respect to storage: the astable
samples ``Voc·k`` on a fixed grid, and neither the held sample nor the
ACTIVE gate reads the store.  So the whole pulse / droop / sample /
comparator chain of a node is a pure function of its initial state and
its condition trace, and :func:`replay_sample_hold` walks it once, up
front, into per-step ``v_op`` / duty / overhead / valid series.  The
compiled tier reads the same replay for its S&H lanes.

:class:`FleetSimulator` then steps each member on the real
:class:`~repro.sim.quasistatic.QuasiStaticSimulator` over its own
precomputed trace, with the member's own (possibly fault-wrapped)
converter and storage; only the controller is swapped for a replay
that hands the engine each step's decision.  Converter transfer,
supercapacitor exchange, fault ticks, numerical guards and the
ideal-MPP memo are therefore the scalar engine's own code.

Numerics contract:

* The replay replaces the per-sample MNA Newton solve with the
  closed-form solution of the identical load line (``I_cell(v) = v /
  R_divider``), agreeing to solver tolerance (~1e-12 V); the rest of the
  chain is the scalar controller's arithmetic, so summaries match the
  scalar engine to tight tolerance.
* Members share nothing but the time base, so results are invariant to
  member order.

Supported members: a started :class:`~repro.core.system.SampleHoldMPPT`
controller, optionally wrapped in
:class:`~repro.faults.components.HoldLeakageFault`, with any converter
and store the scalar engine steps.  :func:`fleet_supported` reports
whether a controller qualifies; callers fall back to the scalar engine
otherwise.

:func:`evaluate_sample_hold_boards` is the Monte Carlo tier's one-shot
vectorized pass over a population of toleranced boards.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.system import SampleHoldMPPT
from repro.errors import ModelParameterError, StateFormatError
from repro.faults.components import HoldLeakageFault
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    batch_loaded_point,
    stack_model_params,
    stack_string_params,
    string_loaded_point,
    string_population,
)
from repro.sim.precompute import PrecomputedConditions
from repro.sim.quasistatic import ControlDecision, HarvestSummary, QuasiStaticSimulator

__all__ = [
    "FleetMember",
    "FleetSimulator",
    "SampleHoldConstants",
    "evaluate_sample_hold_boards",
    "fleet_supported",
    "replay_sample_hold",
    "sample_hold_constants",
]


# --------------------------------------------------------------------------
# Vectorized Monte-Carlo board kernel
# --------------------------------------------------------------------------


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

    One vectorized pass over the same chain
    :meth:`~repro.core.sample_hold.SampleHoldCircuit.sample` walks per
    board: loaded operating point, input-buffer settle, RC charge for
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


# --------------------------------------------------------------------------
# Member description and support predicate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetMember:
    """One node of a fleet: the scalar objects the node would be built from.

    Attributes:
        controller: a :class:`SampleHoldMPPT` (optionally wrapped in
            :class:`HoldLeakageFault`).
        precomputed: the node's condition trace; every member of a fleet
            must share one time base (``dt`` and ``times``).
        converter: optional converter, stepped as the scalar engine
            steps it (fault wrappers included).
        storage: optional energy store, likewise.
        supply_voltage: rail used when no storage is attached, volts.
    """

    controller: object
    precomputed: PrecomputedConditions
    converter: Optional[object] = None
    storage: Optional[object] = None
    supply_voltage: float = 3.3


def _unwrap_controller(controller):
    """Split an (optionally leakage-faulted) controller into (base, schedule, multiplier)."""
    if isinstance(controller, HoldLeakageFault):
        return controller.base, controller.schedule, controller.droop_multiplier
    return controller, None, 1.0


def fleet_supported(controller) -> bool:
    """Whether this controller can run as a fleet member.

    The fleet covers the proposed-S&H platform once started (so no
    cold-start chain), optionally under a hold-leakage fault.  Baseline
    controllers, setpoint-drift wrappers and cold-start studies take the
    scalar engine.  Converter and storage do not matter: each member
    steps them on the scalar engine.
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


# --------------------------------------------------------------------------
# The S&H chain replay
# --------------------------------------------------------------------------


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


class _ReplayController:
    """A fleet member's controller as its engine sees it: the replayed
    decision of step :attr:`index`, which the fleet sets before stepping."""

    def __init__(self, name: str, series: tuple):
        self.name = name
        self.index = 0
        self._v_op, self._duty, self._overhead, self._valid = (
            row.tolist() for row in series
        )

    def decide(self, obs) -> ControlDecision:
        i = self.index
        if self._valid[i]:
            return ControlDecision(self._v_op[i], self._duty[i], self._overhead[i])
        return ControlDecision(None, 0.0, self._overhead[i])


# --------------------------------------------------------------------------
# The fleet engine
# --------------------------------------------------------------------------


class FleetSimulator:
    """Advance N independent started S&H nodes in lockstep.

    Each member's chain is replayed once at construction
    (:func:`replay_sample_hold`); every step then advances each member's
    own :class:`QuasiStaticSimulator` over its precomputed trace.

    Args:
        members: the fleet's nodes; all must share one time base and
            satisfy :func:`fleet_supported`.
    """

    def __init__(self, members: Sequence[FleetMember]):
        members = list(members)
        if not members:
            raise ModelParameterError("a fleet needs at least one member")
        self.members = members
        self.n = len(members)

        pc0 = members[0].precomputed
        self.dt = float(pc0.dt)
        self.times = np.asarray(pc0.times, dtype=float)
        self.steps = int(self.times.shape[0])
        for m in members[1:]:
            pc = m.precomputed
            if float(pc.dt) != self.dt or not np.array_equal(
                np.asarray(pc.times, dtype=float), self.times
            ):
                raise ModelParameterError("fleet members must share one time base")

        times = self.times.tolist()
        self.time = times[0] if times else 0.0
        self._sims: List[QuasiStaticSimulator] = []
        for j, m in enumerate(members):
            if not fleet_supported(m.controller):
                raise ModelParameterError(
                    f"fleet member {j} is not fleet-supported; use the scalar engine"
                )
            base, leak_schedule, leak_multiplier = _unwrap_controller(m.controller)
            pc = m.precomputed
            voc = np.array([model.voc() for model in pc.unique])
            c = sample_hold_constants(base, pc.unique, voc)
            series = replay_sample_hold(
                c,
                times,
                self.dt,
                c.target[pc.u_row].tolist(),
                voc[pc.u_row].tolist(),
                leak_schedule,
                leak_multiplier,
            )
            # Stepped in time with its precompute, the engine never reads
            # the cell or the environment.
            sim = QuasiStaticSimulator(
                None,
                _ReplayController(m.controller.name, series),
                None,
                converter=m.converter,
                storage=m.storage,
                supply_voltage=m.supply_voltage,
                record=False,
                precomputed=pc,
            )
            sim.time = self.time
            self._sims.append(sim)
        self._step_index = 0

        h = _OBS.fleet_nodes
        if h is not None:
            h.inc(self.n)

    # --- stepping ----------------------------------------------------------

    def step(self) -> None:
        """Advance every member one ``dt`` step on its scalar engine."""
        i = self._step_index
        if i >= self.steps:
            raise ModelParameterError("fleet stepped past its precomputed horizon")
        for sim in self._sims:
            sim.controller.index = i
            sim.step(self.dt)
        self.time = float(self.times[i]) + self.dt
        self._step_index = i + 1

        h = _OBS.fleet_steps
        if h is not None:
            h.inc(self.n)

    def run(self, steps: Optional[int] = None) -> List[HarvestSummary]:
        """Step through ``steps`` (default: the rest of the horizon)."""
        remaining = self.steps - self._step_index if steps is None else int(steps)
        j = _journal.JOURNAL
        if j is not None:
            j.emit(
                _journal.ENGINE_RUN,
                engine="fleet",
                steps=remaining,
                nodes=self.n,
            )
        span = TRACER.span(f"fleet:run[{self.n}]")
        with span:
            for _ in range(remaining):
                self.step()
        return self.summaries()

    # --- results -----------------------------------------------------------

    def summaries(self) -> List[HarvestSummary]:
        """Per-node harvest summaries, in member order."""
        return [replace(sim.summary) for sim in self._sims]

    # --- checkpoint protocol ------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the fleet's mutable state (checkpoint protocol).

        The replays are a pure function of each member's initial state
        and trace, so the member engines' own snapshots are all a resume
        needs.
        """
        return {
            "time": self.time,
            "step_index": self._step_index,
            "n": self.n,
            "members": [sim.state_dict() for sim in self._sims],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        for key in ("time", "step_index", "n", "members"):
            if key not in state:
                raise StateFormatError(f"FleetSimulator state missing {key!r}")
        if int(state["n"]) != self.n or len(state["members"]) != self.n:
            raise StateFormatError(
                f"FleetSimulator state holds {state['n']} nodes, engine has {self.n}"
            )
        step_index = int(state["step_index"])
        if not 0 <= step_index <= self.steps:
            raise StateFormatError(
                f"FleetSimulator state step_index {step_index} is outside [0, {self.steps}]"
            )
        for sim, member_state in zip(self._sims, state["members"]):
            sim.load_state(member_state)
        self.time = float(state["time"])
        self._step_index = step_index
