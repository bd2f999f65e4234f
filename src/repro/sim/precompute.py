"""Whole-run condition precomputation for the quasi-static engine.

A :class:`~repro.sim.quasistatic.QuasiStaticSimulator` spends most of a
24-hour run re-deriving things that do not depend on the controller:
the environment's lux at each step, the thermal state that follows it,
the single-diode model for each condition, and that model's Voc/MPP.
All of it is a pure function of ``(cell, environment, thermal, dt)`` —
so the nine-controller comparison recomputes the identical trace nine
times.

:func:`precompute_conditions` walks the run once, builds the per-step
model list (deduplicated on exact ``(lux, temperature)`` — plus the
shadow-map factors tuple when a :mod:`repro.env.shading` map drives a
string), and solves every unique condition's Voc/Isc/MPP in one
vectorized pass (:func:`repro.pv.batch.solve_models` for cells,
:func:`repro.pv.string.solve_string_models` for strings).  The
resulting :class:`PrecomputedConditions` plugs into the simulator's
``precomputed=`` argument; controllers then see exactly the models they
would have seen live, with the solves already memoised.

The dedup index (``unique`` / ``u_row``), the solve's per-condition
``voc`` / ``v_mpp`` / ``p_mpp`` arrays and the ideal-MPP replay
(:meth:`PrecomputedConditions.ideal_power`) are published, so the
compiled tier and the S&H replay read these conditions instead of
gathering them back from the models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.errors import ModelParameterError, NumericalGuardError
from repro.obs.tracing import TRACER
from repro.pv.batch import solve_models, string_population
from repro.pv.cells import PVCell
from repro.pv.irradiance import FLUORESCENT, LightSource
from repro.pv.single_diode import SingleDiodeModel
from repro.units import T_STC


def _cell_area_cm2(cell) -> float:
    """Thermal absorber area for cells and strings alike."""
    params = getattr(cell, "parameters", None)
    if params is not None:
        return float(params.area_cm2)
    return float(cell.area_cm2)


def ideal_cache_key(model) -> tuple:
    """Ideal-MPP memo key of a lit model: its own ``ideal_cache_key``
    (strings) or quantised ``(Iph, T)`` — 0.25 % Iph bins, 0.5 K steps."""
    key = getattr(model, "ideal_cache_key", None)
    if key is None:
        key = (round(math.log(model.photocurrent) * 400.0), round(model.temperature * 2.0))
    return key


@dataclass
class PrecomputedConditions:
    """Per-step operating conditions for one (environment, cell) run.

    Attributes:
        dt: the step the trace was sampled at, seconds.
        times: step start times, seconds (length = step count).
        lux: illuminance per step (already clamped at zero).
        temperature: cell temperature per step, kelvin.
        models: per-step single-diode models; repeated conditions share
            one instance, whose characteristic points are pre-solved.
        unique: the distinct condition models, in first-encounter order.
        u_row: per-step index into ``unique`` (``models[i] is
            unique[u_row[i]]``).
        voc: open-circuit voltage of each ``unique`` condition, volts.
        v_mpp: MPP voltage of each ``unique`` condition (0 when dark).
        p_mpp: MPP power of each ``unique`` condition (0 when dark).
            All three come from the batch solve and equal each model's
            memoised ``voc()`` / ``mpp()`` exactly.
        source: the light-source spectrum the models were built for.
    """

    dt: float
    times: np.ndarray
    lux: np.ndarray
    temperature: np.ndarray
    models: List[SingleDiodeModel]
    unique: List[SingleDiodeModel]
    u_row: np.ndarray
    voc: np.ndarray
    v_mpp: np.ndarray
    p_mpp: np.ndarray
    source: LightSource = FLUORESCENT

    def __len__(self) -> int:
        return len(self.models)

    @property
    def unique_conditions(self) -> int:
        """Number of distinct conditions (the batch-solve workload)."""
        return len(self.unique)

    def ideal_power(self) -> np.ndarray:
        """Ideal-MPP power per unique condition, replaying the scalar
        engine's memo: colliding :func:`ideal_cache_key` values reuse the
        first claimant's power in step order and dark conditions give 0,
        so ``ideal_power()[u_row]`` sums bitwise like ``energy_ideal``.
        Photocurrent is linear in lux, so ``photocurrent > 0`` is also
        the engine's ``lux > 0`` test."""
        memo: dict = {}
        out = np.zeros(len(self.unique))
        for k, (model, p_mpp) in enumerate(zip(self.unique, self.p_mpp.tolist())):
            if model.photocurrent > 0.0:
                key = ideal_cache_key(model)
                power = memo.get(key)
                if power is None:
                    power = memo[key] = p_mpp
                out[k] = power
        return out


def precompute_conditions(
    cell: PVCell,
    environment: Callable[[float], float],
    duration: float,
    dt: float,
    source: LightSource = FLUORESCENT,
    thermal=None,
    temperature: float = T_STC,
    start_time: float = 0.0,
    shading=None,
) -> PrecomputedConditions:
    """Sample a run's conditions once and batch-solve the unique ones.

    The walk replicates the live simulator exactly: the environment is
    evaluated at the same accumulated times, and a supplied thermal
    model is stepped through the same sequence (it is *consumed* — pass
    a fresh instance, not one shared with a live simulator).

    Args:
        cell: the harvesting cell.
        environment: callable ``lux(t)``.
        duration: run length, seconds.
        dt: quasi-static step, seconds.
        source: light-source spectrum.
        thermal: optional :class:`~repro.pv.thermal.CellThermalModel`
            driven by the lux trace (its state is advanced here).
        temperature: fixed cell temperature when ``thermal`` is None.
        start_time: trace start, seconds.
        shading: optional :class:`~repro.env.shading.ShadowMap`; its
            per-cell factors join the dedup key and are forwarded to the
            cell's ``model_at`` (requires a string-style cell such as
            :class:`~repro.pv.string.CellString`).

    Returns:
        A :class:`PrecomputedConditions` covering ``duration``.
    """
    if dt <= 0.0:
        raise ModelParameterError(f"dt must be positive, got {dt!r}")
    t_start = time.perf_counter()
    steps = int(round(duration / dt))

    times = np.empty(steps)
    lux = np.empty(steps)
    temps = np.empty(steps)
    t = start_time
    for i in range(steps):
        times[i] = t
        level = float(environment(t))
        if level != level:
            # Same guard as the live step: max(0.0, nan) would be darkness.
            raise NumericalGuardError(
                f"environment produced NaN lux at t={t:.6g} s", signal="lux", time=t
            )
        level = max(0.0, level)
        lux[i] = level
        if thermal is not None:
            temps[i] = thermal.step(level, dt, source.efficacy_lm_per_w)
        else:
            temps[i] = temperature
        t += dt

    unique: List[SingleDiodeModel] = []
    index: Dict[tuple, int] = {}
    u_row: List[int] = []
    for i in range(steps):
        if shading is not None:
            factors = shading.factors_at(float(times[i]))
            key = (lux[i], temps[i], factors)
        else:
            factors = None
            key = (lux[i], temps[i])
        u = index.get(key)
        if u is None:
            if factors is not None:
                model = cell.model_at(
                    float(lux[i]),
                    source=source,
                    temperature=float(temps[i]),
                    factors=factors,
                )
            else:
                model = cell.model_at(
                    float(lux[i]), source=source, temperature=float(temps[i])
                )
            u = index[key] = len(unique)
            unique.append(model)
        u_row.append(u)
    models = [unique[u] for u in u_row]

    if string_population(unique):
        from repro.pv.string import solve_string_models

        solved = solve_string_models(unique)
    else:
        solved = solve_models(unique, memoize=True)

    # One pre-timed span per scenario precompute; no-op while disabled.
    TRACER.add("precompute", time.perf_counter() - t_start)
    return PrecomputedConditions(
        dt=dt,
        times=times,
        lux=lux,
        temperature=temps,
        models=models,
        unique=unique,
        u_row=np.array(u_row, dtype=np.int64),
        voc=solved.voc,
        v_mpp=solved.v_mpp,
        p_mpp=solved.p_mpp,
        source=source,
    )
