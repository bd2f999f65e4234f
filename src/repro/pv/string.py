"""Series strings of mismatched PV cells with optional bypass diodes.

The paper validates FOCV on a single uniformly-lit cell.  Real
deployments wire several cells in series, and indoor fixtures or
outdoor obstructions light them *unevenly*: the shaded cell limits the
chain current, gets driven into reverse bias, and — if a bypass diode
is fitted — is clamped at the diode drop, carving the string's P-V
curve into multiple local maxima ("knees").  Whether FOCV's fixed
Voc->Vmpp proportionality survives that is experiment E18.

Two classes mirror the single-cell pair:

* :class:`CellString` — condition-independent configuration (which
  cells, static mismatch, bypass drop); maps ``(lux, source,
  temperature, per-cell shading factors)`` to a concrete curve, exactly
  as :class:`~repro.pv.cells.PVCell.model_at` does for one cell.
* :class:`StringModel` — the curve at one condition.  It duck-types the
  :class:`~repro.pv.single_diode.SingleDiodeModel` surface the engines
  consume (``current_at`` / ``voltage_at`` / ``power_at`` / ``voc`` /
  ``isc`` / ``mpp`` / ``photocurrent`` / ``temperature``), so it drops
  into the quasi-static node engine, the fleet engine and the compiled
  LUT tier as a cell replacement.

All numerics live in :mod:`repro.pv.batch`'s string kernels (the ragged
cell-axis stack); a scalar model is simply a one-row stack, so the
scalar and fleet tiers execute the identical floating-point pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelParameterError
from repro.pv.batch import (
    STRING_BISECTION_ITERS,
    BatchSolveResult,
    StringParamArrays,
    _StringEval,
    stack_string_params,
    string_current_at,
    string_i_upper,
    string_isc,
    string_loaded_point,
    string_mpp,
    string_voc,
    string_voltage_at,
)
from repro.pv.cells import PVCell
from repro.pv.irradiance import FLUORESCENT, LightSource
from repro.pv.single_diode import MPPResult, SingleDiodeModel
from repro.units import T_STC

ArrayLike = Union[float, np.ndarray]

DEFAULT_BYPASS_DROP = 0.35
"""Forward drop of a Schottky bypass diode, volts."""


@dataclass(frozen=True)
class StringMPPResult(MPPResult):
    """MPP of a string curve, carrying the full multi-knee structure.

    Attributes:
        knees: every refined local maximum of the P-V curve as
            ``(voltage, current, power)`` tuples sorted by voltage.  A
            uniformly lit string has one; partial shading with bypass
            diodes produces one per distinct irradiance group.
    """

    knees: Tuple[Tuple[float, float, float], ...] = ()

    @property
    def n_knees(self) -> int:
        """Number of local maxima on the P-V curve."""
        return len(self.knees)


class StringModel:
    """A series string of single-diode cells at one fixed condition.

    Immutable like :class:`SingleDiodeModel`; characteristic points are
    memoised.  Engines treat it as a drop-in cell model.

    Args:
        cells: per-cell models, in series order (>= 1, finite Rsh).
        bypass_drop: ideal bypass-diode forward drop in volts per cell,
            or ``None`` for no bypass diodes (a shaded cell then sinks
            the chain through its shunt at large negative voltage).
    """

    __slots__ = (
        "cells",
        "bypass_drop",
        "_sp",
        "_ev1",
        "_voc_memo",
        "_isc_memo",
        "_mpp_memo",
        "_key_memo",
    )

    def __init__(
        self,
        cells: Sequence[SingleDiodeModel],
        bypass_drop: Optional[float] = DEFAULT_BYPASS_DROP,
    ):
        cells = tuple(cells)
        if not cells:
            raise ModelParameterError("a string needs at least one cell")
        self.cells = cells
        self.bypass_drop = bypass_drop
        self._sp: StringParamArrays = stack_string_params([cells], [bypass_drop])
        self._ev1 = None
        self._voc_memo: Optional[float] = None
        self._isc_memo: Optional[float] = None
        self._mpp_memo: Optional[StringMPPResult] = None
        self._key_memo = None

    # --- identity -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"StringModel({len(self.cells)} cells, "
            f"bypass={self.bypass_drop!r}, Iph={self.photocurrent:.3g} A)"
        )

    @property
    def n_cells(self) -> int:
        """Number of series cells."""
        return len(self.cells)

    @property
    def photocurrent(self) -> float:
        """Largest per-cell photocurrent, amps.

        The engines use ``photocurrent <= 0`` as the "dark curve" test;
        a string generates as long as its best-lit cell does.
        """
        return max(m.photocurrent for m in self.cells)

    @property
    def temperature(self) -> float:
        """Representative temperature (first cell), kelvin."""
        return self.cells[0].temperature

    @property
    def ideal_cache_key(self) -> tuple:
        """Condition key for the engines' ideal-MPP replay caches.

        The single-cell engines key their ideal-power cache on a
        quantised ``(log Iph, T)`` pair; two shading patterns can share
        a headline photocurrent while having very different MPPs, so
        strings publish a key covering every cell.
        """
        if self._key_memo is None:
            per_cell = tuple(
                (
                    round(math.log(max(m.photocurrent, 1e-300)) * 400.0),
                    round(m.temperature * 2.0),
                )
                for m in self.cells
            )
            self._key_memo = ("string", self.bypass_drop, per_cell)
        return self._key_memo

    def with_photocurrent(self, photocurrent: float) -> "StringModel":
        """A copy of the string rescaled to a headline ``photocurrent``.

        The photodiode-reference calibration scales a cell's curve to
        the irradiance its reference diode was calibrated at; the
        string analogue is uniform rescaling — every cell's
        photocurrent multiplied by the same ratio, keeping the shading
        pattern while shifting the overall light level.
        """
        scale = photocurrent / max(self.photocurrent, 1e-300)
        return StringModel(
            [m.with_photocurrent(m.photocurrent * scale) for m in self.cells],
            self.bypass_drop,
        )

    # --- curve solutions ------------------------------------------------------

    def _rows(self, count: int) -> np.ndarray:
        return np.zeros(count, dtype=np.intp)

    def current_at(self, voltage: ArrayLike) -> ArrayLike:
        """Terminal current (amps, >= 0) at terminal voltage(s).

        Clamped to the generating quadrant: voltages at or above Voc
        return 0 (the engines clamp non-generating points to zero power
        anyway, so the string never reports the absorbing branch).
        """
        v = np.atleast_1d(np.asarray(voltage, dtype=float))
        if v.size == 1:
            if self._ev1 is None:
                self._ev1 = _StringEval(self._sp, self._rows(1))
            i = string_current_at(self._sp, self._rows(1), v, _ev=self._ev1)
        else:
            i = string_current_at(self._sp, self._rows(v.size), v)
        if np.ndim(voltage) == 0:
            return float(i[0])
        return i

    def voltage_at(self, current: ArrayLike) -> ArrayLike:
        """Terminal voltage (volts) at terminal current(s).

        Unlike the single-cell solver this has no Isc guard: past the
        string Isc the voltage simply goes negative (reverse bias /
        bypass clamp), which is a real operating point of a loaded
        string.
        """
        i = np.atleast_1d(np.asarray(current, dtype=float))
        v = string_voltage_at(self._sp, self._rows(i.size), i)
        if np.ndim(current) == 0:
            return float(v[0])
        return v

    def power_at(self, voltage: ArrayLike) -> ArrayLike:
        """Output power (watts) at terminal voltage(s)."""
        v = np.asarray(voltage, dtype=float)
        i = self.current_at(v if v.ndim else float(v))
        return v * i if v.ndim else float(v) * i

    def loaded_point(self, load_resistance: float) -> float:
        """Terminal voltage when loaded by ``load_resistance`` to ground.

        The S&H divider solves its sampling point through this instead
        of the MNA Newton walk — same bisection arithmetic as the fleet
        tier, so the tiers agree on string samples to the bracket width.
        """
        v = string_loaded_point(
            self._sp, np.asarray([self.voc()]), np.asarray([float(load_resistance)])
        )
        return float(v[0])

    # --- characteristic points ------------------------------------------------

    def voc(self) -> float:
        """Open-circuit voltage, volts."""
        if self._voc_memo is None:
            self._voc_memo = float(string_voc(self._sp)[0])
        return self._voc_memo

    def isc(self) -> float:
        """Short-circuit current, amps."""
        if self._isc_memo is None:
            self._isc_memo = float(string_isc(self._sp)[0])
        return self._isc_memo

    def mpp(self) -> StringMPPResult:
        """Global maximum power point plus every local maximum (knee)."""
        if self._mpp_memo is None:
            v, i, p, maxima = string_mpp(self._sp)
            self._mpp_memo = StringMPPResult(
                voltage=float(v[0]),
                current=float(i[0]),
                power=float(p[0]),
                voc=self.voc(),
                isc=self.isc(),
                knees=tuple(maxima[0]),
            )
        return self._mpp_memo

    def source_resistance_at_voc(self) -> float:
        """Small-signal ``-dV/dI`` at open circuit, ohms (finite difference)."""
        di = 1e-6 * max(float(string_i_upper(self._sp)[0]), 1e-12)
        v0 = self.voc()
        v1 = float(self.voltage_at(di))
        return max((v0 - v1) / di, 0.0)

    def iv_curve(self, points: int = 200) -> "tuple[np.ndarray, np.ndarray]":
        """``(voltages, currents)`` sweeping the generating quadrant 0..Voc."""
        if points < 2:
            raise ModelParameterError(f"points must be >= 2, got {points!r}")
        v = np.linspace(0.0, self.voc(), points)
        return v, np.asarray(self.current_at(v), dtype=float)


class CellString:
    """A configured string: which cells, their mismatch, bypass diodes.

    The condition-independent object experiments hand around, mirroring
    :class:`~repro.pv.cells.PVCell`.  ``model_at`` maps a lighting
    condition — plus optional per-cell shading factors from a
    :mod:`repro.env.shading` map — onto a :class:`StringModel`.

    Args:
        cell: the repeated cell type, or a sequence of per-position
            :class:`PVCell` objects for a heterogeneous string.
        n_cells: series length when ``cell`` is a single type.
        bypass_drop: bypass diode forward drop (volts), or ``None`` for
            no bypass diodes.
        mismatch: optional static per-cell irradiance scale factors
            (manufacturing spread, soiling); length ``n_cells``.
    """

    def __init__(
        self,
        cell: Union[PVCell, Sequence[PVCell]],
        n_cells: Optional[int] = None,
        bypass_drop: Optional[float] = DEFAULT_BYPASS_DROP,
        mismatch: Optional[Sequence[float]] = None,
    ):
        if isinstance(cell, PVCell):
            if n_cells is None or n_cells < 1:
                raise ModelParameterError(
                    f"n_cells must be >= 1 for a homogeneous string, got {n_cells!r}"
                )
            self.cells: Tuple[PVCell, ...] = (cell,) * n_cells
        else:
            self.cells = tuple(cell)
            if not self.cells:
                raise ModelParameterError("a string needs at least one cell")
            if n_cells is not None and n_cells != len(self.cells):
                raise ModelParameterError(
                    "n_cells disagrees with the explicit cell sequence"
                )
        if bypass_drop is not None and bypass_drop < 0.0:
            raise ModelParameterError(f"bypass_drop must be >= 0, got {bypass_drop!r}")
        self.bypass_drop = bypass_drop
        if mismatch is None:
            self.mismatch: Tuple[float, ...] = (1.0,) * len(self.cells)
        else:
            self.mismatch = tuple(float(f) for f in mismatch)
            if len(self.mismatch) != len(self.cells):
                raise ModelParameterError(
                    f"mismatch needs {len(self.cells)} factors, got {len(self.mismatch)}"
                )
            if any(f < 0.0 for f in self.mismatch):
                raise ModelParameterError("mismatch factors must be >= 0")

    @property
    def n_cells(self) -> int:
        """Series length."""
        return len(self.cells)

    @property
    def name(self) -> str:
        """Designation, e.g. ``'4s AM-1815'``."""
        return f"{len(self.cells)}s {self.cells[0].name}"

    @property
    def area_cm2(self) -> float:
        """Total active area (sum of the member cells'), cm^2.

        Thermal models size their absorber from this; a string heats as
        one panel.
        """
        return float(sum(c.parameters.area_cm2 for c in self.cells))

    def __repr__(self) -> str:
        return f"CellString({self.name!r}, bypass={self.bypass_drop!r})"

    def model_at(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
        factors: Optional[Sequence[float]] = None,
    ) -> StringModel:
        """String curve under ``lux`` with optional per-cell shading.

        Args:
            lux: unshaded illuminance shared by the string.
            source: light-source spectrum.
            temperature: cell temperature, kelvin (shared).
            factors: per-cell irradiance multipliers from a shadow map
                (1.0 = unshaded); ``None`` means uniform light.
        """
        if factors is None:
            factors = (1.0,) * len(self.cells)
        elif len(factors) != len(self.cells):
            raise ModelParameterError(
                f"shading factors need length {len(self.cells)}, got {len(factors)}"
            )
        models = [
            c.model_at(
                max(lux, 0.0) * m * max(float(f), 0.0),
                source=source,
                temperature=temperature,
            )
            for c, m, f in zip(self.cells, self.mismatch, factors)
        ]
        return StringModel(models, bypass_drop=self.bypass_drop)

    # --- convenience observables (PVCell-compatible) --------------------------

    def voc(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> float:
        """Open-circuit voltage (volts) under uniform light."""
        if lux <= 0.0:
            return 0.0
        return self.model_at(lux, source=source, temperature=temperature).voc()

    def isc(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> float:
        """Short-circuit current (amps) under uniform light."""
        if lux <= 0.0:
            return 0.0
        return self.model_at(lux, source=source, temperature=temperature).isc()

    def mpp(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> MPPResult:
        """Maximum power point under uniform light."""
        if lux <= 0.0:
            return MPPResult(voltage=0.0, current=0.0, power=0.0, voc=0.0, isc=0.0)
        return self.model_at(lux, source=source, temperature=temperature).mpp()

    def power_at(
        self,
        voltage: float,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> float:
        """Output power (watts) held at ``voltage`` under uniform light."""
        if lux <= 0.0 or voltage <= 0.0:
            return 0.0
        model = self.model_at(lux, source=source, temperature=temperature)
        current = float(model.current_at(voltage))
        if current <= 0.0:
            return 0.0
        return voltage * current


def solve_string_models(models: Sequence[StringModel]) -> BatchSolveResult:
    """Solve Voc/Isc/MPP of many string models in one pass.

    The string analogue of :func:`repro.pv.batch.solve_models`: stacks
    every string into one ragged cell-axis stack, runs the vectorized
    kernels once and pre-fills each instance's memos, so later
    per-instance calls are dictionary lookups.  The per-row arithmetic
    is identical to each instance's own one-row solve, so memoised
    values match lazy values exactly.

    Returns:
        A :class:`~repro.pv.batch.BatchSolveResult` aligned with ``models``.
    """
    models = list(models)
    if not models:
        empty = np.empty(0)
        return BatchSolveResult(voc=empty, isc=empty, v_mpp=empty, i_mpp=empty, p_mpp=empty)
    sp = stack_string_params(
        [m.cells for m in models], [m.bypass_drop for m in models]
    )
    voc = string_voc(sp)
    isc = string_isc(sp)
    v_mpp, i_mpp, p_mpp, maxima = string_mpp(sp)
    for j, m in enumerate(models):
        m._voc_memo = float(voc[j])
        m._isc_memo = float(isc[j])
        m._mpp_memo = StringMPPResult(
            voltage=float(v_mpp[j]),
            current=float(i_mpp[j]),
            power=float(p_mpp[j]),
            voc=float(voc[j]),
            isc=float(isc[j]),
            knees=tuple(maxima[j]),
        )
    return BatchSolveResult(voc=voc, isc=isc, v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=p_mpp)


__all__ = [
    "DEFAULT_BYPASS_DROP",
    "CellString",
    "StringModel",
    "StringMPPResult",
    "solve_string_models",
]
