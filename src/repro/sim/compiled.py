"""Compiled engine tier: a fused comparison lane kernel over a validated power LUT.

The scalar engine costs one Python object-soup step per node per ``dt``.
This tier fuses a comparison lane's whole per-step chain — controller
decision, converter transfer, supercapacitor exchange — into one tight
scalar loop per run, with every transcendental solve on the hot path
replaced by a :class:`~repro.pv.lut.CellPowerLUT` lookup that passed its
pre-run validation gate.  The kernel reads the table through
:func:`repro.pv.lut.row_power`, its one scalar lookup.

:func:`_lane_kernel` advances one *comparison lane* (one technique in
one scenario) through its whole horizon.  Controllers whose operating
point does not depend on storage state (ideal oracle, the S&H platform,
fixed-voltage, periodic FOCV, pilot cell, photodiode reference) are
compiled to precomputed per-step series; the storage-coupled ones
(no-MPPT direct, hill climbing, and every technique's bootstrap path)
run inside the kernel.  Every series lane goes through one builder,
``_ScenarioTables._series_lane``: each technique states only its
operating-voltage rule, validity mask, harvest duty and overhead.

The lane kernel and ``row_power`` are jitted with Numba when it imports
(and ``REPRO_DISABLE_NUMBA`` is unset); otherwise the identical Python
bodies run interpreted.  The fallback is not a different algorithm — it is
the same function object — so results never depend on whether numba is
installed.  The kernel is written to be fast *as plain Python* (flat
locals, list indexing, no NumPy scalar boxing), which is what carries
the throughput target on hosts without numba.

Controllers with feedback through storage or probe history (hill
climbing) use LUT probes where the scalar engine used exact solves, so
their trajectory can deviate within the table's error budget; the lane
runner reports every summary under the tier's declared tolerance, and
the photodiode lane falls back to the scalar engine whenever a
bootstrap episode would have shifted its one-time calibration.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.system import fleet_supported, replay_sample_hold, sample_hold_constants
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.lut import lut_for_models, row_power
from repro.sim.quasistatic import HarvestSummary

__all__ = [
    "HAVE_NUMBA",
    "run_comparison_scenario",
    "clear_program_cache",
]


# --------------------------------------------------------------------------
# Numba probe (import-time; REPRO_DISABLE_NUMBA forces the fallback)
# --------------------------------------------------------------------------


def _numba_disabled() -> bool:
    return os.environ.get("REPRO_DISABLE_NUMBA", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


try:
    if _numba_disabled():
        raise ImportError("numba disabled by REPRO_DISABLE_NUMBA")
    from numba import njit as _njit  # type: ignore

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised on numba-free hosts
    HAVE_NUMBA = False

    def _njit(*args, **kwargs):  # type: ignore
        """No-op decorator standing in for numba.njit."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_BOOT_DROP = 0.25
"""Bootstrap diode drop, volts (repro.baselines.bootstrap.BOOTSTRAP_DIODE_DROP)."""

# Lane modes.
_MODE_SERIES = 0  # operating point / overhead precomputed per step
_MODE_DIRECT = 1  # diode-coupled direct connection (storage-coupled)
_MODE_HILL = 2  # perturb & observe (probe-history feedback)

# Overhead encodings for series lanes.
_OH_CURRENT = 1  # oh_row holds amps; overhead = I * supply_v
_OH_POWER = 2  # oh_row holds watts; overhead = (P / max(supply, 1e-9)) * supply_v


# --------------------------------------------------------------------------
# The comparison lane kernel
# --------------------------------------------------------------------------
#
# One call advances one (technique, scenario) lane through `steps` steps.
# The body is the scalar QuasiStaticSimulator.step chain with the exact
# Supercapacitor.exchange / BuckBoostConverter.output_power arithmetic
# inlined.  Each step first picks the mode's operating voltage (bootstrap
# `supply + _BOOT_DROP`, direct `supply + drop`, hill `h_vop`), then reads
# P(V) with one `_row_power` call; the hill probe is the only other call.
# It indexes only with `seq[i]`, so the same body runs on NumPy arrays
# (jitted) and plain lists (interpreted fallback).


_row_power = _njit(cache=False)(row_power) if HAVE_NUMBA else row_power


def _lane_kernel_py(
    steps,
    dt,
    times,
    mode,
    min_supply,
    drop,
    oh_type,
    oh_row,
    pv_row,
    del_row,
    u_row,
    voc_row,
    lit_row,
    lut_flat,
    grid_points,
    closed_form,
    nodes_flat,
    has_conv,
    conv_on,
    conv_min_vin,
    conv_fixed,
    conv_prop,
    conv_rcond,
    has_store,
    cap_c,
    cap_rated,
    cap_esr,
    cap_leak,
    v_start,
    supply_voltage,
    h_step,
    h_period,
    h_frac,
    h_vop,
    h_prev,
    h_dir,
    h_next,
):
    e_cell = 0.0
    e_del = 0.0
    e_over = 0.0
    v = v_start
    first_boot = -1

    for i in range(steps):
        lit = lit_row[i]
        if has_store:
            supply = v
        else:
            supply = supply_voltage
        boot = supply < min_supply

        pv = 0.0
        vop = 0.0
        oh_w = 0.0
        if boot:
            if first_boot < 0:
                first_boot = i
            # bootstrap_decision: diode into the store, no overhead.
            if lit:
                vop = supply + _BOOT_DROP
        elif mode == 0:
            pv = pv_row[i]
            if oh_type == 1:
                oh_w = oh_row[i] * supply
            elif oh_type == 2:
                den = supply
                if den <= 1e-9:
                    den = 1e-9
                oh_w = (oh_row[i] / den) * supply
        elif mode == 1:
            # no-MPPT direct: operate at V_store + diode drop.
            if lit:
                vop = supply + drop
        else:
            # hill climbing: probe at the held point, perturb, track.
            oh_w = oh_row[i] * supply
            if lit:
                voc = voc_row[i]
                if h_vop <= 0.0 or h_vop >= voc:
                    h_vop = h_frac * voc
                t_now = times[i]
                if t_now >= h_next:
                    probe = _row_power(
                        lut_flat, nodes_flat, grid_points, closed_form,
                        u_row[i] * grid_points, h_vop, voc,
                    )
                    if probe < h_prev:
                        h_dir = -h_dir
                    h_prev = probe
                    nv = h_vop + h_dir * h_step
                    if nv < 0.05:
                        nv = 0.05
                    hi = voc * 0.999
                    if nv > hi:
                        nv = hi
                    h_vop = nv
                    h_next = t_now + h_period
                vop = h_vop
        if vop > 0.0:
            pv = _row_power(
                lut_flat, nodes_flat, grid_points, closed_form,
                u_row[i] * grid_points, vop, voc_row[i],
            )

        # Converter transfer (series lanes precomputed theirs).
        if mode == 0 and not boot:
            dp = del_row[i]
        elif pv > 0.0:
            if has_conv:
                if conv_on and vop >= conv_min_vin:
                    q = pv / vop
                    lossw = conv_fixed + conv_prop * pv + q * q * conv_rcond
                    eta = 1.0 - lossw / pv
                    if eta < 0.0:
                        eta = 0.0
                    elif eta > 1.0:
                        eta = 1.0
                    dp = pv * eta
                else:
                    dp = 0.0
            else:
                dp = pv
        else:
            dp = 0.0

        # Storage bookkeeping: charge the delivered power, then draw the
        # overhead — Supercapacitor.exchange inlined, charge-first so
        # leakage rides on the charge call exactly as the scalar engine.
        if has_store:
            stored = 0.5 * cap_c * v * v
            full_e = 0.5 * cap_c * cap_rated * cap_rated
            if v > 1e-9:
                cur = dp / v
                lossx = cur * cur * cap_esr
                if lossx > dp:
                    lossx = dp
            else:
                lossx = 0.0
            sd = dp - lossx
            if sd < 0.0:
                sd = 0.0
            sd = sd - cap_leak * v
            energy = stored + sd * dt
            if energy < 0.0:
                energy = 0.0
            acc = dp
            if energy > full_e:
                if sd > 0.0:
                    acc = dp * (full_e - stored) / (sd * dt)
                energy = full_e
            v = math.sqrt(2.0 * energy / cap_c)

            stored = 0.5 * cap_c * v * v
            if oh_w <= 0.0:
                energy = stored - cap_leak * v * dt
                if energy < 0.0:
                    energy = 0.0
            else:
                if v > 1e-9:
                    cur = oh_w / v
                    lossx = cur * cur * cap_esr
                    if lossx > oh_w:
                        lossx = oh_w
                else:
                    lossx = 0.0
                drawn = (oh_w + lossx + cap_leak * v) * dt
                if drawn <= stored:
                    energy = stored - drawn
                else:
                    energy = 0.0
            v = math.sqrt(2.0 * energy / cap_c)
        else:
            acc = dp

        e_cell += pv * dt
        e_del += acc * dt
        e_over += oh_w * dt

    if has_store:
        v_final = v
    else:
        v_final = supply_voltage
    return e_cell, e_del, e_over, v_final, first_boot


_lane_kernel = _njit(cache=False)(_lane_kernel_py) if HAVE_NUMBA else _lane_kernel_py


# --------------------------------------------------------------------------
# Comparison lane programs
# --------------------------------------------------------------------------


@dataclass
class _LaneProgram:
    """Kernel-ready description of one technique's lane."""

    mode: int
    oh_type: int = 0
    min_supply: float = 0.0
    drop: float = 0.0
    pv_row: Optional[np.ndarray] = None
    del_row: Optional[np.ndarray] = None
    oh_row: Optional[np.ndarray] = None
    hill: Optional[Tuple[float, ...]] = None
    cal_step: int = -1
    # list twins for the interpreted kernel (built lazily)
    _lists: Optional[tuple] = field(default=None, repr=False)

    def rows_as_lists(self) -> tuple:
        if self._lists is None:
            self._lists = (
                self.pv_row.tolist(),
                self.del_row.tolist(),
                self.oh_row.tolist(),
            )
        return self._lists


def _conv_fingerprint(conv) -> tuple:
    if conv is None:
        return ()
    return (
        bool(conv.enabled),
        float(conv.min_input_voltage),
        float(conv.losses.fixed_power),
        float(conv.losses.proportional_loss),
        float(conv.losses.conduction_resistance),
    )


def _ctl_fingerprint(ctl) -> tuple:
    """Scalar attributes of a controller and of every repro object it
    holds, recursively — an S&H controller is keyed on its whole
    :class:`~repro.core.config.PlatformConfig` chain, not just its name."""
    items = []
    for k, val in sorted(vars(ctl).items()):
        if isinstance(val, (int, float, bool, str)):
            items.append((k, val))
        elif type(val).__module__.startswith("repro.") and hasattr(val, "__dict__"):
            items.append((k, _ctl_fingerprint(val)))
    return (type(ctl).__name__, tuple(items))


class _ScenarioTables:
    """Shared per-scenario precomputation: conditions, LUT, ideal replay."""

    def __init__(self, cell, pc):
        self.cell = cell
        self.pc = pc
        self.dt = float(pc.dt)
        self.times = np.ascontiguousarray(np.asarray(pc.times, dtype=float))
        self.steps = int(self.times.shape[0])
        lux_arr = np.asarray(pc.lux, dtype=float)

        # Unique conditions in first-encounter (step) order, as the
        # precompute indexed them.
        self.models = unique = pc.unique
        self.u_row = u_row = pc.u_row
        self.lux_u = pc.unique_lux
        self.voc_u = np.array([m.voc() for m in unique])
        self.lit_row = lux_arr > 0.0
        self.voc_row = np.ascontiguousarray(self.voc_u[u_row])

        vmpp = np.zeros(len(unique))
        pmpp = np.zeros(len(unique))
        for k, (m, lux, voc) in enumerate(zip(unique, self.lux_u.tolist(), self.voc_u.tolist())):
            if lux > 0.0 and voc > 0.0:
                r = m.mpp()
                vmpp[k] = r.voltage
                pmpp[k] = r.power
        self.vmpp_u = vmpp
        self.pmpp_u = pmpp

        self.lut = lut_for_models(unique, voc=self.voc_u)
        self.lut_report = self.lut.validate()

        # energy_ideal replay, bitwise the scalar engine's accumulator.
        ideal_row = pc.ideal_power()[u_row].tolist()
        dt = self.dt
        e_id = 0.0
        dur = 0.0
        for x in ideal_row:
            e_id += x * dt
            dur += dt
        self.e_ideal = e_id
        self.duration = dur

        # List twins for the interpreted kernel.
        self.times_l = self.times.tolist()
        self.u_row_l = u_row.tolist()
        self.voc_row_l = self.voc_row.tolist()
        self.lit_row_l = self.lit_row.tolist()
        self.flat_l = self.lut._flat.tolist()
        self.nodes_l = self.lut._nodes_flat.tolist()

        self._lanes: Dict[tuple, Optional[_LaneProgram]] = {}

    # --- series helpers ----------------------------------------------------

    def _lut_series(self, vop_row: np.ndarray, mask: np.ndarray, duty) -> np.ndarray:
        """LUT power at per-step operating points, times harvest duty."""
        pv = np.zeros(self.steps)
        m = mask & self.lit_row & (vop_row > 0.0)
        if m.any():
            idx = np.nonzero(m)[0]
            pv[idx] = self.lut.power_many(self.u_row[idx], vop_row[idx])
        if np.ndim(duty) == 0:
            if duty != 1.0:
                pv = pv * duty
        else:
            pv = pv * duty
        return pv

    def _delivered_series(self, pv_row: np.ndarray, vop_row: np.ndarray, conv) -> np.ndarray:
        """BuckBoostConverter.output_power, vectorized over the lane."""
        if conv is None:
            return pv_row.copy()
        routed = pv_row > 0.0
        dp = np.where(routed, 0.0, pv_row)
        running = routed & bool(conv.enabled) & (vop_row >= conv.min_input_voltage)
        if running.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                i_in = pv_row / vop_row
                loss = (
                    conv.losses.fixed_power
                    + conv.losses.proportional_loss * pv_row
                    + i_in * i_in * conv.losses.conduction_resistance
                )
                eta = np.minimum(1.0, np.maximum(0.0, 1.0 - loss / pv_row))
            dp = np.where(running, pv_row * eta, dp)
        return dp

    # --- lane builders ------------------------------------------------------

    def lane_for(self, ctl, conv) -> Optional[_LaneProgram]:
        """Build (or reuse) the lane program for a controller instance.

        Returns None for controller types the compiled tier does not
        model — the caller falls back to the scalar engine for them.
        """
        key = (_ctl_fingerprint(ctl), _conv_fingerprint(conv))
        if key in self._lanes:
            return self._lanes[key]
        prog = self._build_lane(ctl, conv)
        self._lanes[key] = prog
        return prog

    def _series_lane(
        self, vop, valid, duty, conv, oh_type, oh_row, min_supply, cal_step=-1
    ) -> _LaneProgram:
        """A precomputed-series lane: LUT power at ``vop`` on ``valid``
        steps, times ``duty``, through the converter."""
        vop = np.where(valid, vop, 0.0)
        pv = self._lut_series(vop, valid, duty)
        return _LaneProgram(
            mode=_MODE_SERIES,
            oh_type=oh_type,
            min_supply=float(min_supply),
            pv_row=pv,
            del_row=self._delivered_series(pv, vop, conv),
            oh_row=oh_row,
            cal_step=cal_step,
        )

    def _build_lane(self, ctl, conv) -> Optional[_LaneProgram]:
        name = type(ctl).__name__
        zeros = np.zeros(self.steps)

        if name == "IdealMPPT":
            valid = self.lit_row & (self.pmpp_u[self.u_row] > 0.0)
            return self._series_lane(
                self.vmpp_u[self.u_row], valid, 1.0, conv, _OH_CURRENT, zeros, 0.0
            )

        if name == "FixedVoltage":
            valid = self.lit_row & (ctl.setpoint < self.voc_row)
            oh = np.full(self.steps, float(ctl.reference_current))
            return self._series_lane(
                ctl.setpoint, valid, 1.0, conv, _OH_CURRENT, oh, ctl.min_supply
            )

        if name == "PeriodicFOCV":
            # The precomputed series assumes the held Voc refreshes every
            # lit step, which holds when dt >= sample_period; finer steps
            # couple the refresh grid to bootstrap history — scalar path.
            if self.dt < ctl.sample_period:
                return None
            valid = self.lit_row & (self.voc_row > 0.0)
            oh = np.full(self.steps, float(ctl.overhead_power))
            return self._series_lane(
                ctl.k * self.voc_row, valid, 1.0 - ctl.disconnection_duty,
                conv, _OH_POWER, oh, ctl.min_supply,
            )

        if name == "PilotCell":
            vop = ctl.k * self.voc_row
            valid = self.lit_row & (vop > 0.0)
            oh = np.full(self.steps, float(ctl.overhead_power))
            return self._series_lane(
                vop, valid, 1.0 - ctl.pilot_area_fraction,
                conv, _OH_POWER, oh, ctl.min_supply,
            )

        if name == "PhotodiodeReference":
            oh = np.full(self.steps, float(ctl.overhead_current))
            lit_idx = np.nonzero(self.lit_row)[0]
            if lit_idx.size == 0:
                return self._series_lane(
                    zeros, self.lit_row, 1.0, conv, _OH_CURRENT, oh, ctl.min_supply
                )
            ts = int(lit_idx[0])
            model_t = self.pc.models[ts]
            lux_t = float(np.asarray(self.pc.lux)[ts])
            scale = ctl.calibration_lux / lux_t
            cal_v = model_t.with_photocurrent(model_t.photocurrent * scale).mpp().voltage
            lux_row = self.lux_u[self.u_row]
            with np.errstate(divide="ignore", invalid="ignore"):
                decades = np.where(
                    self.lit_row, np.log10(lux_row / ctl.calibration_lux), 0.0
                )
            vop = np.where(self.lit_row, cal_v + ctl.volts_per_decade * decades, 0.0)
            vop = np.minimum(vop, self.voc_row * 0.999)
            return self._series_lane(
                vop, self.lit_row & (vop > 0.0), 1.0,
                conv, _OH_CURRENT, oh, ctl.min_supply, cal_step=ts,
            )

        if name == "NoMPPT":
            return _LaneProgram(
                mode=_MODE_DIRECT,
                min_supply=0.0,
                drop=float(ctl.diode_drop),
                pv_row=zeros,
                del_row=zeros,
                oh_row=zeros,
            )

        if name == "HillClimbing":
            return _LaneProgram(
                mode=_MODE_HILL,
                oh_type=_OH_CURRENT,
                min_supply=float(ctl.min_supply),
                pv_row=zeros,
                del_row=zeros,
                oh_row=np.full(self.steps, float(ctl.average_overhead_current())),
                hill=(
                    float(ctl.step_voltage),
                    float(ctl.update_period),
                    float(ctl.initial_fraction),
                    float(ctl._v_op),
                    float(ctl._prev_power),
                    float(ctl._direction),
                    float(ctl._next_update),
                ),
            )

        if name == "SampleHoldMPPT":
            return self._sample_hold_lane(ctl, conv)

        return None

    def _sample_hold_lane(self, ctl, conv) -> Optional[_LaneProgram]:
        """Replay the S&H platform chain into a precomputed series.

        :func:`~repro.core.system.sample_hold_constants` supplies the
        chain's parameters and per-condition targets, and
        :func:`~repro.core.system.replay_sample_hold` — the replay
        :class:`~repro.core.system.ReplayedSampleHold` hands the scalar
        engine — walks the pulse/droop/sample/comparator chain once,
        since it never reads storage state.
        """
        if not fleet_supported(ctl):
            return None
        c = sample_hold_constants(ctl, self.models, self.voc_u)
        vop_row, duty_row, oh_row, valid_row = replay_sample_hold(
            c, self.times_l, self.dt, c.target[self.u_row].tolist(), self.voc_row_l
        )
        return self._series_lane(vop_row, valid_row, duty_row, conv, _OH_CURRENT, oh_row, 0.0)


# --------------------------------------------------------------------------
# Scenario-program cache
# --------------------------------------------------------------------------

_PROGRAM_CACHE: "OrderedDict[tuple, _ScenarioTables]" = OrderedDict()
_PROGRAM_CACHE_MAX = 4

_LANE_KERNEL_WARM = False
"""Whether the lane kernel has run in this process — with numba
installed, its first call is the one that pays JIT compilation, so the
cold call gets its own trace span."""


def _kernel_is_cold() -> bool:
    """True exactly once per process: on the lane kernel's first call."""
    global _LANE_KERNEL_WARM
    cold = not _LANE_KERNEL_WARM
    _LANE_KERNEL_WARM = True
    return cold


def clear_program_cache() -> None:
    """Drop every cached scenario program (test hook)."""
    _PROGRAM_CACHE.clear()


def _cell_fingerprint(cell) -> tuple:
    if getattr(cell, "cells", None) is not None:
        return (
            "string",
            type(cell).__name__,
            int(cell.n_cells),
            cell.bypass_drop,
            tuple(cell.mismatch),
            _cell_fingerprint(cell.cells[0]),
        )
    items = []
    for k, val in sorted(vars(cell.parameters).items()):
        if isinstance(val, (int, float, bool, str)):
            items.append((k, val))
    return tuple(items)


def _tables_for(
    cell,
    scenario_name: str,
    scenario_factory: Callable[[], object],
    duration: float,
    dt: float,
    use_thermal: bool,
    shading=None,
    shading_name: Optional[str] = None,
) -> _ScenarioTables:
    """Cached scenario program; the scenario *name* identifies the trace.

    Programs are expensive (condition precompute + table build), and
    benchmark / sweep workloads re-run identical scenarios, so a small
    FIFO keyed on (cell parameters, scenario name, horizon, shadow-map
    name) amortizes them.  Scenario / shading names are
    assumed to identify their factories — true for the registry
    scenarios and shadow maps every experiment uses.
    """
    key = (
        _cell_fingerprint(cell),
        str(scenario_name),
        float(duration),
        float(dt),
        bool(use_thermal),
        None if shading is None else (shading_name or repr(shading)),
    )
    tables = _PROGRAM_CACHE.get(key)
    if tables is None:
        h = _OBS.compiled_program_misses
        if h is not None:
            h.inc()
        from repro.pv.thermal import CellThermalModel
        from repro.sim.precompute import _cell_area_cm2, precompute_conditions

        with TRACER.span("compiled:program-build"):
            thermal = (
                CellThermalModel(area_cm2=_cell_area_cm2(cell)) if use_thermal else None
            )
            pc = precompute_conditions(
                cell, scenario_factory(), duration, dt, thermal=thermal, shading=shading
            )
            tables = _ScenarioTables(cell, pc)
        _PROGRAM_CACHE[key] = tables
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.popitem(last=False)
    else:
        h = _OBS.compiled_program_hits
        if h is not None:
            h.inc()
    return tables


# --------------------------------------------------------------------------
# Comparison lane runner
# --------------------------------------------------------------------------


def _run_lane(
    tables: _ScenarioTables,
    prog: _LaneProgram,
    conv,
    store,
    supply_voltage: float,
) -> Optional[HarvestSummary]:
    if conv is None:
        has_conv = False
        conv_on = False
        cmv = cf = cp = cr = 0.0
    else:
        has_conv = True
        conv_on = bool(conv.enabled)
        cmv = float(conv.min_input_voltage)
        cf = float(conv.losses.fixed_power)
        cp = float(conv.losses.proportional_loss)
        cr = float(conv.losses.conduction_resistance)
    if store is None:
        has_store = False
        cap_c = cap_rated = 1.0
        cap_esr = cap_leak = 0.0
        v0 = 0.0
    else:
        has_store = True
        cap_c = float(store.capacitance)
        cap_rated = float(store.rated_voltage)
        cap_esr = float(store.esr)
        cap_leak = float(store.leakage_current)
        v0 = float(store.voltage)

    hill = prog.hill if prog.hill is not None else (0.0,) * 7
    h_step, h_period, h_frac, h_vop, h_prev, h_dir, h_next = hill

    from contextlib import nullcontext

    compile_span = (
        TRACER.span("compiled:kernel-compile[lane]")
        if _kernel_is_cold()
        else nullcontext()
    )

    if HAVE_NUMBA:
        rows = (prog.pv_row, prog.del_row, prog.oh_row)
        times = tables.times
        u_row = tables.u_row
        voc_row = tables.voc_row
        lit_row = tables.lit_row
        flat = tables.lut._flat
        nodes = tables.lut._nodes_flat
    else:
        # interpreted path: lists index ~3x faster than ndarray scalars
        rows = prog.rows_as_lists()
        times = tables.times_l
        u_row = tables.u_row_l
        voc_row = tables.voc_row_l
        lit_row = tables.lit_row_l
        flat = tables.flat_l
        nodes = tables.nodes_l
    pv_row, del_row, oh_row = rows

    with compile_span:
        result = _lane_kernel(
        tables.steps,
        tables.dt,
        times,
        prog.mode,
        prog.min_supply,
        prog.drop,
        prog.oh_type,
        oh_row,
        pv_row,
        del_row,
        u_row,
        voc_row,
        lit_row,
        flat,
        tables.lut.grid_points,
        tables.lut.closed_form,
        nodes,
        has_conv,
        conv_on,
        cmv,
        cf,
        cp,
        cr,
        has_store,
        cap_c,
        cap_rated,
        cap_esr,
        cap_leak,
        v0,
        float(supply_voltage),
        h_step,
        h_period,
        h_frac,
        h_vop,
        h_prev,
        h_dir,
        h_next,
    )
    e_cell, e_del, e_over, v_final, first_boot = result

    # Photodiode safety valve: its one-time calibration was precomputed
    # at the first lit step; a bootstrap episode at or before that step
    # would have deferred it in the scalar engine — fall back.
    if prog.cal_step >= 0 and 0 <= first_boot <= prog.cal_step:
        return None

    return HarvestSummary(
        duration=tables.duration,
        energy_ideal=tables.e_ideal,
        energy_at_cell=e_cell,
        energy_delivered=e_del,
        energy_overhead=e_over,
        energy_load=0.0,
        final_storage_voltage=v_final,
    )


def run_comparison_scenario(
    cell,
    scenario_name: str,
    scenario_factory: Callable[[], object],
    lanes: Sequence[Tuple[str, object, object, object]],
    duration: float,
    dt: float,
    use_thermal: bool = True,
    supply_voltage: float = 3.0,
    shading=None,
    shading_name: Optional[str] = None,
):
    """Run comparison lanes on the compiled tier.

    Args:
        cell: the PV cell under test.
        scenario_name: registry name of the scenario (cache identity).
        scenario_factory: zero-arg environment factory for the scenario.
        lanes: ``(technique_name, controller, converter, storage)``
            tuples — the same fresh instances the scalar engine would
            step.
        duration / dt: run horizon, seconds.
        use_thermal: heat the cell from absorbed light.
        supply_voltage: controller rail when no storage is attached.
        shading: optional :class:`~repro.env.shading.ShadowMap` driving
            per-cell factors (string cells only).
        shading_name: registry name of the shadow map (cache identity);
            required for program-cache hits when ``shading`` is set.

    Returns:
        ``(results, precomputed)`` where ``results`` maps each technique
        name to its :class:`HarvestSummary` — or ``None`` for lanes the
        compiled tier cannot run (unsupported controller type, or the
        photodiode calibration valve), which the caller should re-run on
        the scalar engine against the returned precomputed conditions.
    """
    tables = _tables_for(
        cell,
        scenario_name,
        scenario_factory,
        duration,
        dt,
        use_thermal,
        shading=shading,
        shading_name=shading_name,
    )
    j = _journal.JOURNAL
    if j is not None:
        j.emit(
            _journal.ENGINE_RUN,
            engine="compiled",
            scenario=str(scenario_name),
            lanes=len(lanes),
            steps=tables.steps,
        )
    results: Dict[str, Optional[HarvestSummary]] = {}
    steps_done = 0
    for name, ctl, conv, store in lanes:
        prog = tables.lane_for(ctl, conv)
        if prog is None:
            results[name] = None
            continue
        summary = _run_lane(tables, prog, conv, store, supply_voltage)
        results[name] = summary
        if summary is not None:
            steps_done += tables.steps
    h = _OBS.compiled_lane_steps
    if h is not None and steps_done:
        h.inc(steps_done)
    return results, tables.pc
