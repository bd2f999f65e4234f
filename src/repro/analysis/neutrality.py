"""Energy-neutrality analysis: can this node live on this light forever?

The deployment question behind the whole paper: given a cell, an MPPT
technique, a lighting environment, and a node load, does the energy
budget close — and with how much storage margin?  These helpers compute
the long-run budget terms and size the storage for the worst dark gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import ModelParameterError
from repro.pv.cells import PVCell
from repro.pv.irradiance import FLUORESCENT, LightSource


@dataclass(frozen=True)
class NeutralityReport:
    """Long-run energy-budget assessment.

    Attributes:
        harvest_energy_per_day: expected delivered energy, joules/day.
        overhead_energy_per_day: MPPT metrology energy, joules/day.
        load_energy_per_day: node consumption, joules/day.
        margin_per_day: harvest - overhead - load, joules/day.
        longest_gap_seconds: longest interval with no net harvest.
        storage_needed_joules: energy needed to ride the longest gap.
    """

    harvest_energy_per_day: float
    overhead_energy_per_day: float
    load_energy_per_day: float
    margin_per_day: float
    longest_gap_seconds: float
    storage_needed_joules: float

    @property
    def is_neutral(self) -> bool:
        """Whether the long-run budget closes."""
        return self.margin_per_day >= 0.0

    @property
    def margin_fraction(self) -> float:
        """Margin relative to the load (how much slack the design has)."""
        if self.load_energy_per_day <= 0.0:
            return float("inf")
        return self.margin_per_day / self.load_energy_per_day


def assess_neutrality(
    cell: PVCell,
    environment: Callable[[float], float],
    load_power: Callable[[float], float],
    tracking_efficiency: float = 0.98,
    converter_efficiency: float = 0.88,
    overhead_power: float = 27.7e-6,
    day_seconds: float = 86400.0,
    dt: float = 30.0,
    source: LightSource = FLUORESCENT,
) -> NeutralityReport:
    """Close the daily energy budget for a deployment.

    A lightweight alternative to a full simulation run: integrates the
    cell's MPP power over one environment day, derates by tracking and
    converter efficiency, subtracts the metrology and load, and sizes
    storage for the longest net-negative stretch.

    Args:
        cell: the PV cell.
        environment: ``lux(t)`` over one representative day.
        load_power: ``watts(t)`` node consumption.
        tracking_efficiency: the MPPT technique's tracking quality.
        converter_efficiency: converter transfer efficiency.
        overhead_power: the technique's own draw, watts.
        day_seconds: environment period.
        dt: integration step.
        source: light spectrum.
    """
    if not 0.0 < tracking_efficiency <= 1.0:
        raise ModelParameterError("tracking_efficiency must be in (0, 1]")
    if not 0.0 < converter_efficiency <= 1.0:
        raise ModelParameterError("converter_efficiency must be in (0, 1]")

    times = np.arange(0.0, day_seconds, dt)
    harvest = 0.0
    load = 0.0
    net_series = np.empty(len(times))
    p_mpp_by_lux: dict = {}
    for i, t in enumerate(times):
        lux = max(0.0, float(environment(t)))
        key = round(lux, 1)
        p_mpp = p_mpp_by_lux.get(key)
        if p_mpp is None:
            p_mpp = cell.mpp(lux, source=source).power if lux > 0.0 else 0.0
            p_mpp_by_lux[key] = p_mpp
        delivered = p_mpp * tracking_efficiency * converter_efficiency
        p_load = max(0.0, float(load_power(t)))
        harvest += delivered * dt
        load += p_load * dt
        net_series[i] = delivered - overhead_power - p_load

    overhead = overhead_power * day_seconds

    # Longest net-negative stretch and the energy deficit across it
    # (evaluated over two concatenated days so overnight gaps that wrap
    # midnight are measured whole).
    doubled = np.concatenate([net_series, net_series])
    longest_gap = 0.0
    worst_deficit = 0.0
    gap_start: Optional[int] = None
    deficit = 0.0
    for i, net in enumerate(doubled):
        if net < 0.0:
            if gap_start is None:
                gap_start = i
                deficit = 0.0
            deficit += -net * dt
        else:
            if gap_start is not None:
                longest_gap = max(longest_gap, (i - gap_start) * dt)
                worst_deficit = max(worst_deficit, deficit)
                gap_start = None
    if gap_start is not None:
        longest_gap = max(longest_gap, (len(doubled) - gap_start) * dt)
        worst_deficit = max(worst_deficit, deficit)
    longest_gap = min(longest_gap, day_seconds)

    return NeutralityReport(
        harvest_energy_per_day=harvest,
        overhead_energy_per_day=overhead,
        load_energy_per_day=load,
        margin_per_day=harvest - overhead - load,
        longest_gap_seconds=longest_gap,
        storage_needed_joules=worst_deficit,
    )


def size_supercapacitor(
    report: NeutralityReport,
    v_max: float = 5.0,
    v_min: float = 2.2,
    margin: float = 2.0,
) -> float:
    """Capacitance (farads) to ride the report's worst gap.

    Usable energy between ``v_max`` and ``v_min`` must cover the gap's
    deficit times a safety ``margin``.
    """
    if v_max <= v_min:
        raise ModelParameterError("v_max must exceed v_min")
    if margin < 1.0:
        raise ModelParameterError("margin must be >= 1")
    usable_per_farad = 0.5 * (v_max**2 - v_min**2)
    return margin * report.storage_needed_joules / usable_per_farad
