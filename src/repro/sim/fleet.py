"""Structure-of-arrays fleet engine: N nodes advanced in lockstep NumPy.

Population workloads — tolerance Monte-Carlo boards, resilience
campaign grids — are embarrassingly parallel over *nodes*, but the
scalar path pays for that parallelism with one
:class:`~repro.sim.quasistatic.QuasiStaticSimulator` per node plus
process-pool pickling.  This module turns the population into a NumPy
axis instead: one Python-level time loop, with every per-step quantity
(S&H held voltage, comparator latch, converter transfer, supercap state,
fault masks) held in arrays of shape ``(n,)``.

The engine is built *from* the scalar objects: a
:class:`FleetMember` carries the same controller / converter / storage
instances the scalar engine would step, and the fleet extracts
their constants and initial state.  That construction rule is what makes
the equivalence gate meaningful — both engines consume identical
parameters, so any disagreement is numerics, not configuration.

Numerics contract (mirrors ``QuasiStaticSimulator.step`` order):

* ``energy_ideal`` and per-step ``Voc`` replay the scalar path's
  batch-solver memos and quantised MPP cache exactly — bitwise equal.
* The sample-and-hold chain replaces the per-sample MNA Newton solve
  with a vectorized bisection of the identical load line
  (``I_cell(v) = v / R_divider``), agreeing to solver tolerance
  (~1e-12 V); everything downstream is the same IEEE arithmetic
  evaluated elementwise, so summaries match to tight tolerance.
* All array operations are elementwise across the population, so fleet
  results are invariant to node ordering (a property test holds this).

Supported member shape: a :class:`~repro.core.system.SampleHoldMPPT`
controller (optionally wrapped in
:class:`~repro.faults.components.HoldLeakageFault`), optional
:class:`~repro.converter.buck_boost.BuckBoostConverter` (optionally
brownout-wrapped) and optional
:class:`~repro.storage.supercap.Supercapacitor` (optionally
open/short-wrapped), with no load — exactly the combinations the
population experiments build.  ``fleet_supported`` reports whether a
combination qualifies; callers fall back to the scalar engine
otherwise.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import SampleHoldMPPT
from repro.errors import ModelParameterError, NumericalGuardError, StateFormatError
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    StorageFault,
)
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    batch_current_at,
    batch_loaded_point,
    stack_model_params,
    stack_string_params,
    string_current_at,
    string_loaded_point,
    take_params,
)
from repro.sim.precompute import PrecomputedConditions
from repro.sim.quasistatic import HarvestSummary
from repro.storage.supercap import Supercapacitor

__all__ = [
    "FleetMember",
    "FleetSimulator",
    "evaluate_sample_hold_boards",
    "fleet_supported",
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
        converter: optional :class:`BuckBoostConverter` (optionally
            brownout-wrapped).
        storage: optional :class:`Supercapacitor` (optionally
            :class:`StorageFault`-wrapped).
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


def _unwrap_converter(converter):
    """Split an (optionally brownout-faulted) converter into (base, schedule)."""
    if isinstance(converter, ConverterBrownoutFault):
        return converter.base, converter.schedule
    return converter, None


def _unwrap_storage(storage):
    """Split an (optionally faulted) store into (base, schedule, mode, short_resistance)."""
    if isinstance(storage, StorageFault):
        return storage.base, storage.schedule, storage.mode, storage.short_resistance
    return storage, None, None, 0.0


def fleet_supported(controller, converter=None, storage=None) -> bool:
    """Whether this node combination can run on the vectorized fleet engine.

    The fleet covers the proposed-S&H platform (already started, so no
    cold-start chain) with the converter / storage shapes the
    population experiments build.  Anything else — baseline
    controllers, setpoint-drift wrappers, cold-start studies — takes
    the scalar engine.
    """
    base, _, _ = _unwrap_controller(controller)
    if not isinstance(base, SampleHoldMPPT) or not base.powered or not base.assume_started:
        return False
    conv, _ = _unwrap_converter(converter)
    if conv is not None and type(conv) is not BuckBoostConverter:
        return False
    store, _, _, _ = _unwrap_storage(storage)
    if store is not None and type(store) is not Supercapacitor:
        return False
    return True


def _schedule_mask(schedule, times: np.ndarray) -> np.ndarray:
    """Boolean per-step activity of a FaultSchedule over ``times``."""
    mask = np.zeros(times.shape[0], dtype=bool)
    if schedule is not None:
        for window in schedule.windows:
            mask |= (times >= window.start) & (times < window.end)
    return mask


# --------------------------------------------------------------------------
# The fleet engine
# --------------------------------------------------------------------------


class FleetSimulator:
    """Advance N independent harvesting nodes per step with array ops.

    Args:
        members: the fleet's nodes; all must share one time base and
            satisfy :func:`fleet_supported`.
    """

    def __init__(self, members: Sequence[FleetMember]):
        members = list(members)
        if not members:
            raise ModelParameterError("a fleet needs at least one member")
        self.members = members
        n = len(members)
        self.n = n

        pc0 = members[0].precomputed
        self.dt = float(pc0.dt)
        self.times = np.asarray(pc0.times, dtype=float)
        steps = self.times.shape[0]
        self.steps = steps
        for m in members[1:]:
            pc = m.precomputed
            if float(pc.dt) != self.dt or not np.array_equal(
                np.asarray(pc.times, dtype=float), self.times
            ):
                raise ModelParameterError("fleet members must share one time base")

        # --- controller / S&H constants -----------------------------------
        self._alpha = np.empty(n)
        self._t_on = np.empty(n)
        self._period = np.empty(n)
        self._metrology = np.empty(n)
        self._min_vin_cfg = np.empty(n)
        self._sh_supply = np.empty(n)
        self._rtot = np.empty(n)
        self._sf = np.empty(n)
        self._kick = np.empty(n)
        self._soak = np.empty(n)
        self._droop_tau = np.empty(n)
        self._droop_bias_c = np.empty(n)  # (bias A) / C, volts per second
        self._u4_off = np.empty(n)
        self._u4_alive = np.empty(n, dtype=bool)
        self._cmp_thresh = np.empty(n)
        self._cmp_off = np.empty(n)
        self._cmp_half = np.empty(n)
        self._cmp_alive = np.empty(n, dtype=bool)
        self._supply_voltage = np.empty(n)

        # --- controller / S&H state ---------------------------------------
        self._held = np.empty(n)
        self._next_pulse = np.empty(n)
        self._sample_count = np.zeros(n, dtype=np.int64)
        self._cmp_high = np.empty(n, dtype=bool)

        # --- fault masks ---------------------------------------------------
        leak_masks = []
        self._leak_mult = np.ones(n)
        brown_masks = []
        open_masks = []
        short_masks = []
        self._short_res = np.ones(n)

        # --- converter -----------------------------------------------------
        self._has_conv = np.zeros(n, dtype=bool)
        self._conv_enabled = np.zeros(n, dtype=bool)
        self._conv_min_vin = np.zeros(n)
        self._conv_fixed = np.zeros(n)
        self._conv_prop = np.zeros(n)
        self._conv_rcond = np.zeros(n)

        # --- storage -------------------------------------------------------
        self._has_store = np.zeros(n, dtype=bool)
        self._cap_c = np.ones(n)
        self._cap_rated = np.ones(n)
        self._cap_esr = np.zeros(n)
        self._cap_leak = np.zeros(n)
        self._v_store = np.zeros(n)

        unique_models: List[object] = []
        unique_lux: List[float] = []
        unique_rtot: List[float] = []
        unique_node: List[int] = []
        unique_ideal: List[float] = []
        u_global = np.empty((steps, n), dtype=np.int64)

        for j, m in enumerate(members):
            base, leak_sched, leak_mult = _unwrap_controller(m.controller)
            if not fleet_supported(m.controller, m.converter, m.storage):
                raise ModelParameterError(
                    f"fleet member {j} is not fleet-supported; use the scalar engine"
                )
            cfg = base.config
            sh = cfg.sample_hold
            self._alpha[j] = cfg.alpha
            self._t_on[j] = cfg.astable.t_on
            self._period[j] = cfg.astable.period
            self._metrology[j] = cfg.metrology_current()
            self._min_vin_cfg[j] = cfg.converter.min_input_voltage
            self._sh_supply[j] = sh.supply
            self._rtot[j] = sh.divider.total_resistance
            tau = sh.settle_time_constant()
            effective = max(0.0, cfg.astable.t_on - sh.switch.spec.turn_on_time)
            self._sf[j] = 1.0 - math.exp(-effective / tau) if tau > 0.0 else 1.0
            self._kick[j] = sh.switch.spec.charge_injection / sh.hold_capacitor.farads
            self._soak[j] = sh.hold_capacitor.dielectric.dielectric_absorption
            self._droop_tau[j] = sh.hold_capacitor.leakage_resistance * sh.hold_capacitor.farads
            bias = sh.output_buffer.bias_current() + sh.switch.spec.off_leakage
            self._droop_bias_c[j] = bias / sh.hold_capacitor.farads
            self._u4_off[j] = sh.output_buffer.spec.input_offset
            self._u4_alive[j] = sh.output_buffer.alive
            u5 = cfg.active._u5
            self._cmp_thresh[j] = cfg.active.threshold
            self._cmp_off[j] = u5.spec.input_offset
            self._cmp_half[j] = u5.spec.hysteresis / 2.0
            self._cmp_alive[j] = u5.alive
            self._cmp_high[j] = u5.output_high
            self._supply_voltage[j] = m.supply_voltage

            self._held[j] = sh.state_dict()["held"]
            self._next_pulse[j] = base._next_pulse
            self._sample_count[j] = base._sample_count

            self._leak_mult[j] = leak_mult
            leak_masks.append(_schedule_mask(leak_sched, self.times))

            conv, brown_sched = _unwrap_converter(m.converter)
            brown_masks.append(_schedule_mask(brown_sched, self.times))
            if conv is not None:
                self._has_conv[j] = True
                self._conv_enabled[j] = conv.enabled
                self._conv_min_vin[j] = conv.min_input_voltage
                self._conv_fixed[j] = conv.losses.fixed_power
                self._conv_prop[j] = conv.losses.proportional_loss
                self._conv_rcond[j] = conv.losses.conduction_resistance

            store, store_sched, store_mode, short_res = _unwrap_storage(m.storage)
            open_masks.append(
                _schedule_mask(store_sched if store_mode == "open" else None, self.times)
            )
            short_masks.append(
                _schedule_mask(store_sched if store_mode == "short" else None, self.times)
            )
            if store_mode == "short":
                self._short_res[j] = short_res
            if store is not None:
                self._has_store[j] = True
                self._cap_c[j] = store.capacitance
                self._cap_rated[j] = store.rated_voltage
                self._cap_esr[j] = store.esr
                self._cap_leak[j] = store.leakage_current
                self._v_store[j] = store.voltage

            # Per-node unique conditions, in first-encounter (step) order.
            pc = m.precomputed
            lux = np.asarray(pc.lux, dtype=float)
            if not np.isfinite(lux).all():
                raise NumericalGuardError(
                    "precomputed lux trace contains non-finite values", signal="lux"
                )
            offset = len(unique_models)
            seen: dict = {}
            mpp_cache: dict = {}
            for i, model in enumerate(pc.models):
                key = id(model)
                u = seen.get(key)
                if u is None:
                    u = offset + len(seen)
                    seen[key] = u
                    unique_models.append(model)
                    step_lux = float(lux[i])
                    unique_lux.append(step_lux)
                    unique_rtot.append(self._rtot[j])
                    unique_node.append(j)
                    # energy_ideal replay: the scalar engine caches MPP
                    # power on quantised (Iph, T); the first model to
                    # claim a key defines its value for the whole run.
                    iph = model.photocurrent
                    if step_lux <= 0.0 or iph <= 0.0:
                        unique_ideal.append(0.0)
                    else:
                        qkey = getattr(model, "ideal_cache_key", None)
                        if qkey is None:
                            qkey = (
                                round(math.log(iph) * 400.0),
                                round(model.temperature * 2.0),
                            )
                        cached = mpp_cache.get(qkey)
                        if cached is None:
                            cached = model.mpp().power
                            mpp_cache[qkey] = cached
                        unique_ideal.append(cached)
                u_global[i, j] = u

        self._u_global = u_global
        # Partition the unique conditions into single-diode cells and
        # series strings; each family gets its own stacked-parameter
        # block, with index maps from the global condition index.
        n_unique = len(unique_models)
        is_string = np.array(
            [getattr(model, "cells", None) is not None for model in unique_models],
            dtype=bool,
        )
        self._is_string = is_string
        self._any_string = bool(is_string.any())
        plain_idx = np.nonzero(~is_string)[0]
        string_idx = np.nonzero(is_string)[0]
        self._u_to_plain = np.full(n_unique, -1, dtype=np.int64)
        self._u_to_plain[plain_idx] = np.arange(len(plain_idx))
        self._u_to_string = np.full(n_unique, -1, dtype=np.int64)
        self._u_to_string[string_idx] = np.arange(len(string_idx))
        self._params_all = (
            stack_model_params([unique_models[int(u)] for u in plain_idx])
            if len(plain_idx)
            else None
        )
        self._sp_all = (
            stack_string_params(
                [unique_models[int(u)].cells for u in string_idx],
                [unique_models[int(u)].bypass_drop for u in string_idx],
            )
            if len(string_idx)
            else None
        )
        self._voc_all = np.array([model.voc() for model in unique_models])
        self._lux_all = np.array(unique_lux)
        self._ideal_all = np.array(unique_ideal)

        # Loaded sample points: one vector solve covers every (node,
        # condition) pair for the whole run — this is the fleet
        # counterpart of the per-sample MNA solve.
        t0 = _time.perf_counter()
        rtot_arr = np.array(unique_rtot)
        v_pv_all = np.zeros(n_unique)
        if self._params_all is not None:
            v_pv_all[plain_idx] = batch_loaded_point(
                self._params_all, self._voc_all[plain_idx], rtot_arr[plain_idx]
            )
        if self._sp_all is not None:
            v_pv_all[string_idx] = string_loaded_point(
                self._sp_all, self._voc_all[string_idx], rtot_arr[string_idx]
            )
        TRACER.add("fleet:vector-solve", _time.perf_counter() - t0)
        node_idx = np.array(unique_node, dtype=np.int64)
        ratio = np.empty(n)
        u2_off = np.empty(n)
        u2_alive = np.empty(n, dtype=bool)
        for j, m in enumerate(members):
            base, _, _ = _unwrap_controller(m.controller)
            sh = base.config.sample_hold
            ratio[j] = sh.divider.ratio
            u2_off[j] = sh.input_buffer.spec.input_offset
            u2_alive[j] = sh.input_buffer.alive
        tap = v_pv_all * ratio[node_idx]
        target = np.minimum(
            self._sh_supply[node_idx], np.maximum(0.0, tap + u2_off[node_idx])
        )
        self._target_all = np.where(u2_alive[node_idx], target, 0.0)

        self._leak_mask = np.column_stack(leak_masks)
        self._brown_mask = np.column_stack(brown_masks)
        self._open_mask = np.column_stack(open_masks)
        self._short_mask = np.column_stack(short_masks)
        self._any_leak = bool(self._leak_mask.any())
        self._any_store = bool(self._has_store.any())

        # --- run state -----------------------------------------------------
        self.time = float(self.times[0]) if steps else 0.0
        self._step_index = 0
        self._duration = np.zeros(n)
        self._e_ideal = np.zeros(n)
        self._e_cell = np.zeros(n)
        self._e_del = np.zeros(n)
        self._e_over = np.zeros(n)
        self._e_load = np.zeros(n)  # fleet members carry no load; stays 0.0
        self._final_v = np.where(self._has_store, self._v_store, self._supply_voltage)

        h = _OBS.fleet_nodes
        if h is not None:
            h.inc(n)

    # --- S&H helpers -------------------------------------------------------

    def _sh_droop(self, dt: np.ndarray) -> None:
        """Vectorized Capacitor.droop with per-node hold intervals."""
        held = self._held * np.exp(-dt / self._droop_tau)
        held = held - self._droop_bias_c * dt
        self._held = np.maximum(0.0, held)

    def _sh_sample(self, target: np.ndarray, mask: np.ndarray) -> None:
        """Vectorized SampleHoldCircuit.sample toward precomputed targets."""
        previous = self._held
        new_held = previous + (target - previous) * self._sf
        new_held = new_held + self._kick
        new_held = new_held + self._soak * (previous - new_held)
        clamped = np.minimum(self._sh_supply, np.maximum(0.0, new_held))
        self._held = np.where(mask, clamped, previous)

    # --- storage helper ----------------------------------------------------

    def _exchange(
        self,
        power: np.ndarray,
        dt: float,
        apply: np.ndarray,
        open_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Vectorized Supercapacitor.exchange; returns accepted power.

        Lanes outside ``apply`` (and open-faulted lanes) keep their
        voltage and report 0 accepted — the StorageFault "open" contract.
        """
        v = self._v_store
        cap = self._cap_c
        stored = 0.5 * cap * v * v
        full = 0.5 * cap * self._cap_rated * self._cap_rated
        absp = np.abs(power)
        with np.errstate(divide="ignore", invalid="ignore"):
            current = absp / v
            loss = np.where(v > 1e-9, np.minimum(current * current * self._cap_esr, absp), 0.0)
            leak = self._cap_leak * v
            charge = power >= 0.0
            stored_delta = np.maximum(0.0, power - loss) - leak
            energy_c = np.maximum(0.0, stored + stored_delta * dt)
            over = energy_c > full
            req_over = power * (full - stored) / (stored_delta * dt)
            req_c = np.where(over, np.where(stored_delta > 0.0, req_over, power), power)
            energy_c = np.where(over, full, energy_c)
            drawn = (-power + loss + leak) * dt
            fits = drawn <= stored
            fraction = np.where(drawn > 0.0, stored / drawn, 0.0)
            energy_d = np.where(fits, stored - drawn, 0.0)
            req_d = np.where(fits, power, power * fraction)
            energy = np.where(charge, energy_c, energy_d)
            requested = np.where(charge, req_c, req_d)
            v_new = np.sqrt(2.0 * energy / cap)
        update = apply if open_mask is None else (apply & ~open_mask)
        self._v_store = np.where(update, v_new, v)
        return np.where(update, requested, 0.0)

    # --- harvest -------------------------------------------------------------

    def _pv_power(
        self, u_sel: np.ndarray, v_sel: np.ndarray, duty_sel: np.ndarray
    ) -> np.ndarray:
        """Harvested power at the selected (condition, voltage) points."""
        if not self._any_string:
            current = batch_current_at(take_params(self._params_all, u_sel), v_sel)
            return np.maximum(0.0, v_sel * current) * duty_sel
        current = np.empty(v_sel.shape[0])
        s_mask = self._is_string[u_sel]
        p_pos = np.nonzero(~s_mask)[0]
        if len(p_pos):
            current[p_pos] = batch_current_at(
                take_params(self._params_all, self._u_to_plain[u_sel[p_pos]]),
                v_sel[p_pos],
            )
        s_pos = np.nonzero(s_mask)[0]
        if len(s_pos):
            current[s_pos] = string_current_at(
                self._sp_all, self._u_to_string[u_sel[s_pos]], v_sel[s_pos]
            )
        return np.maximum(0.0, v_sel * current) * duty_sel

    # --- stepping ----------------------------------------------------------

    def step(self) -> None:
        """Advance the whole fleet one ``dt`` step (mirrors the scalar order)."""
        i = self._step_index
        if i >= self.steps:
            raise ModelParameterError("fleet stepped past its precomputed horizon")
        t = float(self.times[i])
        dt = self.dt
        n = self.n

        # Fault ticks: converter brownout state, storage short-mode bleed.
        browned = self._brown_mask[i]
        open_now: Optional[np.ndarray] = None
        if self._any_store:
            short_now = self._short_mask[i]
            if short_now.any():
                v = self._v_store
                bleeding = short_now & (v > 0.0)
                if bleeding.any():
                    bleed = np.where(bleeding, -(v * v / self._short_res), 0.0)
                    self._exchange(bleed, dt, apply=bleeding, open_mask=None)
            open_now = self._open_mask[i]

        supply_v = np.where(self._has_store, self._v_store, self._supply_voltage)

        # --- controller decide (SampleHoldMPPT, vectorized) ---------------
        u_row = self._u_global[i]
        voc = self._voc_all[u_row]
        target = self._target_all[u_row]
        lux = self._lux_all[u_row]

        t_end = t + dt
        sampling_time = np.zeros(n)
        cursor = np.full(n, t)
        while True:
            pending = self._next_pulse < t_end
            if not pending.any():
                break
            pulse_at = np.maximum(self._next_pulse, t)
            self._sh_droop(np.where(pending, np.maximum(0.0, pulse_at - cursor), 0.0))
            self._sh_sample(target, pending)
            self._sample_count += pending
            sampling_time = np.where(pending, sampling_time + self._t_on, sampling_time)
            cursor = np.where(pending, pulse_at, cursor)
            self._next_pulse = np.where(
                pending, self._next_pulse + self._period, self._next_pulse
            )
        self._sh_droop(np.maximum(0.0, t_end - cursor))

        held_raw = np.minimum(self._sh_supply, np.maximum(0.0, self._held + self._u4_off))
        held = np.where(self._u4_alive, held_raw, 0.0)
        duty = np.maximum(0.0, 1.0 - sampling_time / dt)
        overhead_current = self._metrology + np.where(
            sampling_time > 0.0, (voc / self._rtot) * sampling_time / dt, 0.0
        )

        # ACTIVE comparator latch (U5), then the converter-minimum and
        # Voc gates — order is irrelevant to outputs, the latch updates
        # exactly once per step as in the scalar path.
        diff = (held - self._cmp_thresh) + self._cmp_off
        goes_high = diff > self._cmp_half
        stays_high = ~(diff < -self._cmp_half)
        self._cmp_high = self._cmp_alive & np.where(self._cmp_high, stays_high, goes_high)
        v_op = held / self._alpha
        valid = self._cmp_high & (v_op >= self._min_vin_cfg) & (v_op < voc)

        # Hold-leakage fault: extra droop after the platform's own step.
        if self._any_leak:
            leak_now = self._leak_mask[i]
            if leak_now.any():
                self._sh_droop(np.where(leak_now, dt * (self._leak_mult - 1.0), 0.0))

        # --- PV operating point -------------------------------------------
        pv_power = np.zeros(n)
        harvesting = valid & (lux > 0.0) & (v_op > 0.0)
        if harvesting.any():
            idx = np.nonzero(harvesting)[0]
            if TRACER.enabled:
                t0 = _time.perf_counter()
                pv_power[idx] = self._pv_power(u_row[idx], v_op[idx], duty[idx])
                TRACER.add("fleet:vector-solve", _time.perf_counter() - t0)
            else:
                pv_power[idx] = self._pv_power(u_row[idx], v_op[idx], duty[idx])

        # --- converter transfer -------------------------------------------
        delivered = pv_power.copy()
        routed = (pv_power > 0.0) & self._has_conv
        if routed.any():
            running = routed & self._conv_enabled & ~browned & (v_op >= self._conv_min_vin)
            out = np.zeros(n)
            if running.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    i_in = pv_power / v_op
                    loss = (
                        self._conv_fixed
                        + self._conv_prop * pv_power
                        + i_in * i_in * self._conv_rcond
                    )
                    eta = np.minimum(1.0, np.maximum(0.0, 1.0 - loss / pv_power))
                out = np.where(running, pv_power * eta, 0.0)
            delivered = np.where(routed, out, delivered)

        if (delivered < 0.0).any() or not np.isfinite(delivered).all():
            raise NumericalGuardError(
                f"fleet delivered power went invalid at t={t:.6g} s",
                signal="p_delivered",
                time=t,
            )

        overhead = overhead_current * supply_v
        ideal = self._ideal_all[u_row]

        # --- storage bookkeeping ------------------------------------------
        if self._any_store:
            accepted = self._exchange(delivered, dt, apply=self._has_store, open_mask=open_now)
            self._exchange(-overhead, dt, apply=self._has_store, open_mask=open_now)
            accepted = np.where(self._has_store, accepted, delivered)
        else:
            accepted = delivered

        final_v = np.where(self._has_store, self._v_store, self._supply_voltage)
        if not np.isfinite(final_v).all():
            raise NumericalGuardError(
                f"fleet storage voltage went non-finite at t={t:.6g} s",
                signal="v_storage",
                time=t,
            )

        self._duration += dt
        self._e_ideal += ideal * dt
        self._e_cell += pv_power * dt
        self._e_del += accepted * dt
        self._e_over += overhead * dt
        self._final_v = final_v
        self.time = t + dt
        self._step_index = i + 1

        h = _OBS.fleet_steps
        if h is not None:
            h.inc(n)

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
        columns = zip(
            self._duration.tolist(),
            self._e_ideal.tolist(),
            self._e_cell.tolist(),
            self._e_del.tolist(),
            self._e_over.tolist(),
            self._e_load.tolist(),
            self._final_v.tolist(),
        )
        return [
            HarvestSummary(
                duration=duration,
                energy_ideal=ideal,
                energy_at_cell=at_cell,
                energy_delivered=delivered,
                energy_overhead=overhead,
                energy_load=load,
                final_storage_voltage=final_v,
            )
            for duration, ideal, at_cell, delivered, overhead, load, final_v in columns
        ]

    # --- checkpoint protocol ------------------------------------------------

    _ARRAY_FIELDS = (
        ("held", "_held", float),
        ("next_pulse", "_next_pulse", float),
        ("sample_count", "_sample_count", int),
        ("comparator_high", "_cmp_high", bool),
        ("storage_voltage", "_v_store", float),
        ("duration", "_duration", float),
        ("energy_ideal", "_e_ideal", float),
        ("energy_at_cell", "_e_cell", float),
        ("energy_delivered", "_e_del", float),
        ("energy_overhead", "_e_over", float),
        ("energy_load", "_e_load", float),
        ("final_storage_voltage", "_final_v", float),
    )

    def state_dict(self) -> dict:
        """Snapshot the fleet's mutable state (checkpoint protocol)."""
        state = {
            "time": self.time,
            "step_index": self._step_index,
            "n": self.n,
        }
        for key, attr, kind in self._ARRAY_FIELDS:
            state[key] = [kind(x) for x in getattr(self, attr)]
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        for key in ("time", "step_index", "n"):
            if key not in state:
                raise StateFormatError(f"FleetSimulator state missing {key!r}")
        if int(state["n"]) != self.n:
            raise StateFormatError(
                f"FleetSimulator state holds {state['n']} nodes, engine has {self.n}"
            )
        dtypes = {float: float, int: np.int64, bool: bool}
        for key, attr, kind in self._ARRAY_FIELDS:
            if key not in state:
                raise StateFormatError(f"FleetSimulator state missing {key!r}")
            values = state[key]
            if len(values) != self.n:
                raise StateFormatError(
                    f"FleetSimulator state field {key!r} has {len(values)} entries, "
                    f"expected {self.n}"
                )
            setattr(self, attr, np.array(values, dtype=dtypes[kind]))
        self.time = float(state["time"])
        self._step_index = int(state["step_index"])
