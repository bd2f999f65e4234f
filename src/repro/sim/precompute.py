"""Whole-run condition precomputation: the quasi-static engine's one
condition walk.

The environment's lux at each step, the thermal state that follows it,
the single-diode model for each condition and that model's Voc/MPP do
not depend on the controller: all of it is a pure function of
``(cell, environment, thermal, dt)``.  So a
:class:`~repro.sim.quasistatic.QuasiStaticSimulator` only ever steps a
trace built here, and the nine-controller comparison shares one trace
per scenario.

:func:`precompute_conditions` walks the run once, builds the per-step
model list (deduplicated on exact ``(lux, temperature)`` — plus the
shadow-map factors tuple when a :mod:`repro.env.shading` map drives a
string), and solves the unique conditions in vectorized passes.  For
single cells it stacks their parameters once
(:attr:`PrecomputedConditions.endpoints`), solves every condition's
Voc/Isc, and runs the exact-MPP search
(:func:`repro.pv.batch.solve_models`) only where the ideal-MPP replay
reads it: the first claimant of each lit
:func:`ideal_cache_key`.  Dark
conditions take the zero MPP unsolved.  The remaining lit conditions
are *deferred*: :meth:`PrecomputedConditions.solve_deferred` solves them
in one more ``solve_models`` pass, which every
:class:`~repro.sim.quasistatic.QuasiStaticSimulator` over the trace (and
any reader of ``v_mpp`` / ``p_mpp``) runs first, so scalar consumers see
the memoised solves of one whole-trace batch.  Strings
(:func:`repro.pv.string.solve_string_models`) are solved whole.

The dedup index (``unique`` / ``u_row``), the per-condition ``voc``,
each condition's ideal-key claimant and the ideal-MPP replay
(:meth:`PrecomputedConditions.ideal_power`,
:meth:`PrecomputedConditions.ideal_mpp`) are published, so the
compiled tier and the S&H replay read these conditions instead of
gathering them back from the models.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ModelParameterError, NumericalGuardError
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    Endpoints,
    memoize_points,
    solve_endpoints,
    solve_models,
    stack_model_params,
    string_population,
)
from repro.pv.cells import PVCell
from repro.pv.irradiance import FLUORESCENT, LightSource
from repro.pv.single_diode import SingleDiodeModel
from repro.units import T_STC
from repro.validation import require_positive


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
            one instance, whose characteristic points are pre-solved
            (deferred ones by :meth:`solve_deferred`).
        unique: the distinct condition models, in first-encounter order.
        u_row: per-step index into ``unique`` (``models[i] is
            unique[u_row[i]]``).
        voc: open-circuit voltage of each ``unique`` condition, volts.
        claimant: per ``unique`` condition, the index of the first
            condition with its :func:`ideal_cache_key` (itself for a
            first claimant), or -1 when dark.  Claimants come first in
            step order; every lit condition is credited its claimant's
            exact MPP power (:meth:`ideal_power`).
        deferred: per ``unique`` condition, whether precompute left its
            exact MPP to :meth:`solve_deferred` (lit single-cell
            conditions that are not their key's first claimant).
        endpoints: for single cells, the unique conditions' stacked
            parameters with their Voc/Isc (``endpoints.voc is voc``);
            None for strings.

    ``v_mpp`` / ``p_mpp`` (properties) hold each condition's exact MPP.
    """

    dt: float
    times: np.ndarray
    lux: np.ndarray
    temperature: np.ndarray
    models: List[SingleDiodeModel]
    unique: List[SingleDiodeModel]
    u_row: np.ndarray
    voc: np.ndarray
    claimant: np.ndarray
    deferred: np.ndarray
    _v_mpp: np.ndarray
    _p_mpp: np.ndarray
    endpoints: Optional[Endpoints] = None

    def __post_init__(self) -> None:
        self._pending = bool(self.deferred.any())
        # Cached compiled programs share one trace across service threads.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.models)

    @property
    def unique_conditions(self) -> int:
        """Number of distinct conditions (the batch-solve workload)."""
        return len(self.unique)

    @property
    def params(self):
        """The unique conditions' stacked single-cell parameters
        (:func:`~repro.pv.batch.stack_model_params`), or None for strings."""
        return None if self.endpoints is None else self.endpoints.params

    @property
    def v_mpp(self) -> np.ndarray:
        """MPP voltage of each ``unique`` condition (0 when dark); reading
        it runs :meth:`solve_deferred` first."""
        self.solve_deferred()
        return self._v_mpp

    @property
    def p_mpp(self) -> np.ndarray:
        """MPP power of each ``unique`` condition (0 when dark); reading
        it runs :meth:`solve_deferred` first.  Equal to each model's
        memoised ``mpp()`` exactly, like ``voc`` to ``voc()``."""
        self.solve_deferred()
        return self._p_mpp

    def solve_deferred(self) -> None:
        """Solve the exact MPP of every deferred condition, once.

        One :func:`~repro.pv.batch.solve_models` pass over them from the
        Voc/Isc already in :attr:`endpoints`, memoised onto their models:
        the search is elementwise, so arrays and memos are bitwise those
        of one whole-trace solve.  Scalar consumers must call this before
        reading a model's ``mpp()``, which would otherwise run the scalar
        search (whose last bits differ); a
        :class:`~repro.sim.quasistatic.QuasiStaticSimulator` does on
        construction.  Thread-safe: the first caller solves, and
        concurrent ones wait for it.
        """
        if not self._pending:
            return
        with self._lock:
            if not self._pending:
                return
            index = np.nonzero(self.deferred)[0]
            solved = solve_models(
                [self.unique[k] for k in index.tolist()], endpoints=self.endpoints.take(index)
            )
            self._v_mpp[index] = solved.v_mpp
            self._p_mpp[index] = solved.p_mpp
            self._pending = False

    def ideal_power(self) -> np.ndarray:
        """Ideal-MPP power per unique condition, the claimant replay:
        every lit condition takes its :attr:`claimant`'s exact power and
        dark conditions give 0.  ``ideal_power()[u_row]`` is the per-step
        power every tier integrates into ``energy_ideal``.  Reads no
        deferred solve."""
        return np.where(self.claimant >= 0, self._p_mpp[self.claimant], 0.0)

    def ideal_mpp(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(v_mpp, p_mpp)`` per unique condition for the ideal oracle,
        without the deferred solve: a condition's own exact MPP where
        precompute solved it, else its :attr:`claimant`'s (the point the
        ideal-MPP replay credits it with)."""
        at = np.where(self.deferred, self.claimant, np.arange(len(self.unique)))
        return self._v_mpp[at], self._p_mpp[at]


def precompute_conditions(
    cell: PVCell,
    environment: Callable[[float], float],
    duration: float,
    dt: float,
    source: LightSource = FLUORESCENT,
    thermal=None,
    temperature: float = T_STC,
    shading=None,
) -> PrecomputedConditions:
    """Sample a run's conditions once and batch-solve the unique ones.

    The environment is evaluated at accumulated times (``t += dt`` from
    0, the clock the simulator steps on), and a supplied
    thermal model is stepped through the same sequence (it is
    *consumed* — pass a fresh instance for each trace).

    Args:
        cell: the harvesting cell.
        environment: callable ``lux(t)``.
        duration: run length, seconds.
        dt: quasi-static step, seconds.
        source: light-source spectrum.
        thermal: optional :class:`~repro.pv.thermal.CellThermalModel`
            driven by the lux trace (its state is advanced here).
        temperature: fixed cell temperature when ``thermal`` is None,
            kelvin.
        shading: optional :class:`~repro.env.shading.ShadowMap`; its
            per-cell factors join the dedup key and are forwarded to the
            cell's ``model_at`` (requires a string-style cell such as
            :class:`~repro.pv.string.CellString`).

    Returns:
        A :class:`PrecomputedConditions` covering ``duration``.
    """
    if dt <= 0.0:
        raise ModelParameterError(f"dt must be positive, got {dt!r}")
    require_positive(temperature, "temperature")
    t_start = time.perf_counter()
    steps = int(round(duration / dt))

    times = np.empty(steps)
    lux = np.empty(steps)
    temps = np.empty(steps)
    t = 0.0
    for i in range(steps):
        times[i] = t
        level = float(environment(t))
        if level != level:
            # max(0.0, nan) would silently be darkness.
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
    claims: Dict[tuple, int] = {}
    claimants: List[int] = []
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
            if model.photocurrent > 0.0:
                claimants.append(claims.setdefault(ideal_cache_key(model), u))
            else:
                claimants.append(-1)
        u_row.append(u)
    models = [unique[u] for u in u_row]
    claimant = np.array(claimants, dtype=np.int64)

    if string_population(unique):
        from repro.pv.string import solve_string_models

        solved = solve_string_models(unique)
        endpoints = None
        voc, v_mpp, p_mpp = solved.voc, solved.v_mpp, solved.p_mpp
        deferred = np.zeros(len(unique), dtype=bool)
    else:
        endpoints = solve_endpoints(stack_model_params(unique))
        voc = endpoints.voc
        first_claim = claimant == np.arange(len(unique))
        deferred = (claimant >= 0) & ~first_claim
        v_mpp = np.full(len(unique), np.nan)
        p_mpp = np.full(len(unique), np.nan)
        first = np.nonzero(first_claim)[0]
        solved = solve_models([unique[k] for k in first.tolist()], endpoints=endpoints.take(first))
        v_mpp[first] = solved.v_mpp
        p_mpp[first] = solved.p_mpp
        # Dark conditions take the batch solver's zero MPP without a search.
        dark = np.nonzero(claimant < 0)[0]
        v_mpp[dark] = p_mpp[dark] = 0.0
        zeros = np.zeros(len(dark))
        memoize_points(
            [unique[k] for k in dark.tolist()], voc[dark], endpoints.isc[dark], zeros, zeros
        )

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
        voc=voc,
        claimant=claimant,
        deferred=deferred,
        _v_mpp=v_mpp,
        _p_mpp=p_mpp,
        endpoints=endpoints,
    )
