"""Compiled engine tier: a fused comparison lane kernel over a validated power LUT.

The scalar engine costs one Python object-soup step per node per ``dt``.
This tier fuses a comparison lane's whole per-step chain — controller
decision, converter transfer, supercapacitor exchange — into one tight
scalar loop per run, with every transcendental solve on the hot path
replaced by a :class:`~repro.pv.lut.CellPowerLUT` lookup that passed its
pre-run validation gate.

:func:`_lane_kernel` advances one *comparison lane* (one technique in
one scenario) through its whole horizon.  Controllers whose operating
point does not depend on storage state (ideal oracle, the S&H platform,
fixed-voltage, periodic FOCV, pilot cell, photodiode reference) are
compiled to precomputed per-step series; the storage-coupled ones
(no-MPPT direct, hill climbing, and every technique's bootstrap path)
run inside the kernel.

The lane kernel is jitted with Numba when it imports (and
``REPRO_DISABLE_NUMBA`` is unset); otherwise the identical Python body
runs interpreted.  The fallback is not a different algorithm — it is
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError, NumericalGuardError
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.lut import lut_for_models
from repro.sim.fleet import FleetMember, FleetSimulator
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
# inlined, and every P(V) evaluation an inline CellPowerLUT.power.
# It indexes only with `seq[i]`, so the same body runs on NumPy arrays
# (jitted) and plain lists (interpreted fallback).


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
    gm1,
    kmax,
    uniform,
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
                voc = voc_row[i]
                if 0.0 < vop < voc:
                    b_i = u_row[i] * grid_points
                    if uniform:
                        x = vop / voc
                        uu = 1.0 - math.sqrt(1.0 - x)
                        f = uu * gm1
                        k = int(f)
                        if k > kmax:
                            k = kmax
                        w = f - k
                    else:
                        klo = 0
                        khi = grid_points - 1
                        while khi - klo > 1:
                            kmid = (klo + khi) >> 1
                            if nodes_flat[b_i + kmid] <= vop:
                                klo = kmid
                            else:
                                khi = kmid
                        k = klo
                        n0 = nodes_flat[b_i + k]
                        n1 = nodes_flat[b_i + k + 1]
                        if n1 > n0:
                            w = (vop - n0) / (n1 - n0)
                        else:
                            w = 0.0
                    b = b_i + k
                    p0 = lut_flat[b]
                    pv = p0 + (lut_flat[b + 1] - p0) * w
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
                voc = voc_row[i]
                if 0.0 < vop < voc:
                    b_i = u_row[i] * grid_points
                    if uniform:
                        x = vop / voc
                        uu = 1.0 - math.sqrt(1.0 - x)
                        f = uu * gm1
                        k = int(f)
                        if k > kmax:
                            k = kmax
                        w = f - k
                    else:
                        klo = 0
                        khi = grid_points - 1
                        while khi - klo > 1:
                            kmid = (klo + khi) >> 1
                            if nodes_flat[b_i + kmid] <= vop:
                                klo = kmid
                            else:
                                khi = kmid
                        k = klo
                        n0 = nodes_flat[b_i + k]
                        n1 = nodes_flat[b_i + k + 1]
                        if n1 > n0:
                            w = (vop - n0) / (n1 - n0)
                        else:
                            w = 0.0
                    b = b_i + k
                    p0 = lut_flat[b]
                    pv = p0 + (lut_flat[b + 1] - p0) * w
        else:
            # hill climbing: probe at the held point, perturb, track.
            oh_w = oh_row[i] * supply
            if lit:
                voc = voc_row[i]
                if h_vop <= 0.0 or h_vop >= voc:
                    h_vop = h_frac * voc
                t_now = times[i]
                if t_now >= h_next:
                    probe = 0.0
                    if 0.0 < h_vop < voc:
                        b_i = u_row[i] * grid_points
                        if uniform:
                            x = h_vop / voc
                            uu = 1.0 - math.sqrt(1.0 - x)
                            f = uu * gm1
                            k = int(f)
                            if k > kmax:
                                k = kmax
                            w = f - k
                        else:
                            klo = 0
                            khi = grid_points - 1
                            while khi - klo > 1:
                                kmid = (klo + khi) >> 1
                                if nodes_flat[b_i + kmid] <= h_vop:
                                    klo = kmid
                                else:
                                    khi = kmid
                            k = klo
                            n0 = nodes_flat[b_i + k]
                            n1 = nodes_flat[b_i + k + 1]
                            if n1 > n0:
                                w = (h_vop - n0) / (n1 - n0)
                            else:
                                w = 0.0
                        b = b_i + k
                        p0 = lut_flat[b]
                        probe = p0 + (lut_flat[b + 1] - p0) * w
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
                if 0.0 < vop < voc:
                    b_i = u_row[i] * grid_points
                    if uniform:
                        x = vop / voc
                        uu = 1.0 - math.sqrt(1.0 - x)
                        f = uu * gm1
                        k = int(f)
                        if k > kmax:
                            k = kmax
                        w = f - k
                    else:
                        klo = 0
                        khi = grid_points - 1
                        while khi - klo > 1:
                            kmid = (klo + khi) >> 1
                            if nodes_flat[b_i + kmid] <= vop:
                                klo = kmid
                            else:
                                khi = kmid
                        k = klo
                        n0 = nodes_flat[b_i + k]
                        n1 = nodes_flat[b_i + k + 1]
                        if n1 > n0:
                            w = (vop - n0) / (n1 - n0)
                        else:
                            w = 0.0
                    b = b_i + k
                    p0 = lut_flat[b]
                    pv = p0 + (lut_flat[b + 1] - p0) * w

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
    items = []
    for k, val in sorted(vars(ctl).items()):
        if isinstance(val, (int, float, bool, str)):
            items.append((k, val))
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

        # Unique conditions in first-encounter (step) order — the same
        # dedup the fleet engine performs, so quantised-cache replay of
        # energy_ideal lands on identical values.
        seen: dict = {}
        unique: List[object] = []
        lux_u: List[float] = []
        u_row = np.empty(self.steps, dtype=np.int64)
        for i, model in enumerate(pc.models):
            key = id(model)
            u = seen.get(key)
            if u is None:
                u = len(unique)
                seen[key] = u
                unique.append(model)
                lux_u.append(float(lux_arr[i]))
            u_row[i] = u
        self.models = unique
        self.u_row = u_row
        self.lux_u = np.array(lux_u)
        self.voc_u = np.array([m.voc() for m in unique])
        self.lit_row = lux_arr > 0.0
        self.voc_row = np.ascontiguousarray(self.voc_u[u_row])

        vmpp = np.zeros(len(unique))
        pmpp = np.zeros(len(unique))
        for k, m in enumerate(unique):
            if lux_u[k] > 0.0 and self.voc_u[k] > 0.0:
                r = m.mpp()
                vmpp[k] = r.voltage
                pmpp[k] = r.power
        self.vmpp_u = vmpp
        self.pmpp_u = pmpp

        self.lut = lut_for_models(unique, voc=self.voc_u)
        self.params = self.lut.params
        self.lut_report = self.lut.validate()

        # energy_ideal replay: quantised (Iph, T) MPP cache, first claim
        # wins, in step order — bitwise the scalar engine's accumulator.
        mpp_cache: dict = {}
        ideal_u = np.empty(len(unique))
        for k, m in enumerate(unique):
            iph = m.photocurrent
            if lux_u[k] <= 0.0 or iph <= 0.0:
                ideal_u[k] = 0.0
            else:
                qkey = getattr(m, "ideal_cache_key", None)
                if qkey is None:
                    qkey = (round(math.log(iph) * 400.0), round(m.temperature * 2.0))
                cached = mpp_cache.get(qkey)
                if cached is None:
                    cached = m.mpp().power
                    mpp_cache[qkey] = cached
                ideal_u[k] = cached
        ideal_row = np.where(self.lit_row, ideal_u[u_row], 0.0).tolist()
        dt = self.dt
        e_id = 0.0
        dur = 0.0
        for x in ideal_row:
            e_id += x * dt
            dur += dt
        self.e_ideal = e_id
        self.duration = dur

        g = self.lut.grid_points
        self.gm1 = float(g - 1)
        self.kmax = g - 2
        # closed_form tables use the quadratic u-map; knee-aligned
        # (mixed/string) tables make the kernels binary-search their
        # per-row node voltages instead.
        self.uniform = bool(self.lut.closed_form)
        self.nodes_flat = self.lut._nodes_flat

        # List twins for the interpreted kernel.
        self.times_l = self.times.tolist()
        self.u_row_l = u_row.tolist()
        self.voc_row_l = self.voc_row.tolist()
        self.lit_row_l = self.lit_row.tolist()
        self.flat_l = self.lut._flat.tolist()
        self.nodes_l = self.nodes_flat.tolist()

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

    def _build_lane(self, ctl, conv) -> Optional[_LaneProgram]:
        name = type(ctl).__name__
        zeros = np.zeros(self.steps)

        if name == "IdealMPPT":
            valid = self.lit_row & (self.pmpp_u[self.u_row] > 0.0)
            vop = np.where(valid, self.vmpp_u[self.u_row], 0.0)
            pv = self._lut_series(vop, valid, 1.0)
            return _LaneProgram(
                mode=_MODE_SERIES,
                oh_type=_OH_CURRENT,
                min_supply=0.0,
                pv_row=pv,
                del_row=self._delivered_series(pv, vop, conv),
                oh_row=zeros,
            )

        if name == "FixedVoltage":
            valid = self.lit_row & (ctl.setpoint < self.voc_row)
            vop = np.where(valid, ctl.setpoint, 0.0)
            pv = self._lut_series(vop, valid, 1.0)
            return _LaneProgram(
                mode=_MODE_SERIES,
                oh_type=_OH_CURRENT,
                min_supply=float(ctl.min_supply),
                pv_row=pv,
                del_row=self._delivered_series(pv, vop, conv),
                oh_row=np.full(self.steps, float(ctl.reference_current)),
            )

        if name == "PeriodicFOCV":
            # The precomputed series assumes the held Voc refreshes every
            # lit step, which holds when dt >= sample_period; finer steps
            # couple the refresh grid to bootstrap history — scalar path.
            if self.dt < ctl.sample_period:
                return None
            valid = self.lit_row & (self.voc_row > 0.0)
            vop = np.where(valid, ctl.k * self.voc_row, 0.0)
            duty = 1.0 - ctl.disconnection_duty
            pv = self._lut_series(vop, valid, duty)
            return _LaneProgram(
                mode=_MODE_SERIES,
                oh_type=_OH_POWER,
                min_supply=float(ctl.min_supply),
                pv_row=pv,
                del_row=self._delivered_series(pv, vop, conv),
                oh_row=np.full(self.steps, float(ctl.overhead_power)),
            )

        if name == "PilotCell":
            valid = self.lit_row & (ctl.k * self.voc_row > 0.0)
            vop = np.where(valid, ctl.k * self.voc_row, 0.0)
            duty = 1.0 - ctl.pilot_area_fraction
            pv = self._lut_series(vop, valid, duty)
            return _LaneProgram(
                mode=_MODE_SERIES,
                oh_type=_OH_POWER,
                min_supply=float(ctl.min_supply),
                pv_row=pv,
                del_row=self._delivered_series(pv, vop, conv),
                oh_row=np.full(self.steps, float(ctl.overhead_power)),
            )

        if name == "PhotodiodeReference":
            oh = np.full(self.steps, float(ctl.overhead_current))
            lit_idx = np.nonzero(self.lit_row)[0]
            if lit_idx.size == 0:
                return _LaneProgram(
                    mode=_MODE_SERIES,
                    oh_type=_OH_CURRENT,
                    min_supply=float(ctl.min_supply),
                    pv_row=zeros,
                    del_row=zeros.copy(),
                    oh_row=oh,
                )
            ts = int(lit_idx[0])
            model_t = self.pc.models[ts]
            lux_t = float(np.asarray(self.pc.lux)[ts])
            scale = ctl.calibration_lux / lux_t
            cal_v = model_t.with_photocurrent(model_t.photocurrent * scale).mpp().voltage
            lux_row = self.lux_u[self.u_row]
            vop = np.zeros(self.steps)
            with np.errstate(divide="ignore", invalid="ignore"):
                decades = np.where(
                    self.lit_row, np.log10(lux_row / ctl.calibration_lux), 0.0
                )
            vop = np.where(self.lit_row, cal_v + ctl.volts_per_decade * decades, 0.0)
            vop = np.minimum(vop, self.voc_row * 0.999)
            valid = self.lit_row & (vop > 0.0)
            vop = np.where(valid, vop, 0.0)
            pv = self._lut_series(vop, valid, 1.0)
            return _LaneProgram(
                mode=_MODE_SERIES,
                oh_type=_OH_CURRENT,
                min_supply=float(ctl.min_supply),
                pv_row=pv,
                del_row=self._delivered_series(pv, vop, conv),
                oh_row=oh,
                cal_step=ts,
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

        A throwaway one-member :class:`FleetSimulator` performs the same
        constant extraction and loaded-point vector solve the fleet
        engine uses; the pulse/droop/sample/comparator chain — which
        never reads storage state — is then replayed once in Python.
        """
        if not (getattr(ctl, "assume_started", False) and getattr(ctl, "powered", True)):
            return None
        try:
            probe = FleetSimulator([FleetMember(controller=ctl, precomputed=self.pc)])
        except (ModelParameterError, NumericalGuardError):
            return None

        alpha = float(probe._alpha[0])
        t_on = float(probe._t_on[0])
        period = float(probe._period[0])
        metrology = float(probe._metrology[0])
        min_vin = float(probe._min_vin_cfg[0])
        sh_supply = float(probe._sh_supply[0])
        rtot = float(probe._rtot[0])
        sf = float(probe._sf[0])
        kick = float(probe._kick[0])
        soak = float(probe._soak[0])
        tau = float(probe._droop_tau[0])
        bias_c = float(probe._droop_bias_c[0])
        u4_off = float(probe._u4_off[0])
        u4_alive = bool(probe._u4_alive[0])
        cmp_thresh = float(probe._cmp_thresh[0])
        cmp_off = float(probe._cmp_off[0])
        cmp_half = float(probe._cmp_half[0])
        cmp_alive = bool(probe._cmp_alive[0])

        held = float(probe._held[0])
        pulse = float(probe._next_pulse[0])
        cmp_prev = bool(probe._cmp_high[0])
        target_l = probe._target_all[probe._u_global[:, 0]].tolist()

        dt = self.dt
        times_l = self.times_l
        voc_l = self.voc_row_l
        exp = math.exp

        vop_row = np.empty(self.steps)
        duty_row = np.empty(self.steps)
        oh_row = np.empty(self.steps)
        valid_row = np.empty(self.steps, dtype=bool)

        for i in range(self.steps):
            t = times_l[i]
            t_end = t + dt
            sampling = 0.0
            cursor = t
            while pulse < t_end:
                pulse_at = pulse if pulse > t else t
                d = pulse_at - cursor
                if d < 0.0:
                    d = 0.0
                held = held * exp(-d / tau) - bias_c * d
                if held < 0.0:
                    held = 0.0
                new = held + (target_l[i] - held) * sf
                new = new + kick
                new = new + soak * (held - new)
                if new < 0.0:
                    new = 0.0
                if new > sh_supply:
                    new = sh_supply
                held = new
                sampling += t_on
                cursor = pulse_at
                pulse += period
            d = t_end - cursor
            if d < 0.0:
                d = 0.0
            held = held * exp(-d / tau) - bias_c * d
            if held < 0.0:
                held = 0.0

            he = held + u4_off
            if he < 0.0:
                he = 0.0
            if he > sh_supply:
                he = sh_supply
            if not u4_alive:
                he = 0.0
            duty = 1.0 - sampling / dt
            if duty < 0.0:
                duty = 0.0
            oh = metrology
            if sampling > 0.0:
                oh = oh + (voc_l[i] / rtot) * sampling / dt

            diff = (he - cmp_thresh) + cmp_off
            if cmp_prev:
                latched = not (diff < -cmp_half)
            else:
                latched = diff > cmp_half
            cmp_prev = cmp_alive and latched
            v_op = he / alpha
            valid_row[i] = cmp_prev and (v_op >= min_vin) and (v_op < voc_l[i])
            vop_row[i] = v_op
            duty_row[i] = duty
            oh_row[i] = oh

        vop_row = np.where(valid_row, vop_row, 0.0)
        pv = self._lut_series(vop_row, valid_row, duty_row)
        return _LaneProgram(
            mode=_MODE_SERIES,
            oh_type=_OH_CURRENT,
            min_supply=0.0,
            pv_row=pv,
            del_row=self._delivered_series(pv, vop_row, conv),
            oh_row=oh_row,
        )


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


def _cell_area_cm2(cell) -> float:
    """Active area for thermal modelling — cells and strings alike."""
    params = getattr(cell, "parameters", None)
    if params is not None:
        return float(params.area_cm2)
    return float(cell.area_cm2)


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
        from repro.sim.precompute import precompute_conditions

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
        nodes = tables.nodes_flat
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
        tables.gm1,
        tables.kmax,
        tables.uniform,
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
    h = _OBS.fleet_steps
    if h is not None and steps_done:
        h.inc(steps_done)
    return results, tables.pc
