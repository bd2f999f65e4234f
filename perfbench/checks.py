"""Output checks of the in-process workloads against the golden traces.

The golden fixtures ``tests/golden/comparison_<scenario>.json`` are only
read.  The tolerances restate the engine tiers' declared contracts from
``tests/integration/test_golden_traces.py``: ``fleet`` within a few ulp,
``compiled`` within its power LUT's error budget, ``scalar`` bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, List, Optional, Tuple

from inputs import SCENARIOS

SUMMARY_FIELDS = (
    "duration",
    "energy_ideal",
    "energy_at_cell",
    "energy_delivered",
    "energy_overhead",
    "energy_load",
    "final_storage_voltage",
)
ENERGY_FIELDS = ("energy_at_cell", "energy_delivered", "energy_overhead", "energy_load")
FLEET_RTOL = 1e-12
COMPILED_ENERGY_TOL = {"default": 1e-3, "hill-climbing": 2e-2}
COMPILED_VOLTAGE_TOL = {"default": 1e-3, "hill-climbing": 1e-2}


def load_golden(root: str) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{scenario: {technique: summary fields}}`` from the fixtures."""
    golden = {}
    for scenario in SCENARIOS:
        path = os.path.join(root, "tests", "golden", f"comparison_{scenario}.json")
        with open(path, encoding="utf-8") as fh:
            golden[scenario] = json.load(fh)["techniques"]
    return golden


def summary_fields(summary) -> Dict[str, float]:
    return {f: getattr(summary, f) for f in SUMMARY_FIELDS}


def _close(measured: float, expected: float, rel: float, abs_: float) -> bool:
    return abs(measured - expected) <= max(rel * abs(expected), abs_)


def lane_error(engine: str, technique: str, measured: Dict, golden: Dict) -> Optional[str]:
    """Why one lane breaks its engine's golden contract, or None."""
    if engine == "scalar":
        bad = [f for f in SUMMARY_FIELDS if measured[f] != golden[f]]
        return f"scalar fields differ bitwise: {bad}" if bad else None
    if engine == "fleet":
        bad = [f for f in SUMMARY_FIELDS if not _close(measured[f], golden[f], FLEET_RTOL, 1e-18)]
        return f"fleet fields beyond {FLEET_RTOL:g} rel: {bad}" if bad else None
    etol = COMPILED_ENERGY_TOL.get(technique, COMPILED_ENERGY_TOL["default"])
    vtol = COMPILED_VOLTAGE_TOL.get(technique, COMPILED_VOLTAGE_TOL["default"])
    if measured["duration"] != golden["duration"]:
        return "duration differs"
    if not _close(measured["energy_ideal"], golden["energy_ideal"], FLEET_RTOL, 1e-18):
        return "energy_ideal is not replayed exactly"
    scale = max(abs(golden["energy_ideal"]), 1e-9)
    for f in ENERGY_FIELDS:
        if abs(measured[f] - golden[f]) / scale > etol:
            return f"{f} beyond the compiled budget {etol:g}"
    if abs(measured["final_storage_voltage"] - golden["final_storage_voltage"]) > vtol:
        return f"final_storage_voltage beyond {vtol:g} V"
    return None


def golden_errors(
    lanes: Iterable[Tuple[str, str, Dict]],
    golden: Dict,
    engine_for,
) -> List[str]:
    """Every golden-contract violation among ``(scenario, technique, fields)``.

    ``engine_for(technique)`` names the tier whose contract the lane obeys.
    """
    errors = []
    seen = set()
    for scenario, technique, fields in lanes:
        seen.add((scenario, technique))
        why = lane_error(engine_for(technique), technique, fields, golden[scenario][technique])
        if why:
            errors.append(f"{scenario}/{technique}: {why}")
    expected = {(s, t) for s in golden for t in golden[s]}
    if seen != expected:
        errors.append(f"lanes differ from the golden set: {sorted(expected ^ seen)}")
    return errors


def finite_summary_errors(lanes: Iterable[Tuple[str, str, Dict]], duration: float) -> List[str]:
    """Sanity checks for a comparison without a golden fixture."""
    errors = []
    for scenario, technique, fields in lanes:
        if not all(math.isfinite(v) for v in fields.values()):
            errors.append(f"{scenario}/{technique}: non-finite summary")
        elif abs(fields["duration"] - duration) > 1e-6 * duration + 60.0:
            errors.append(f"{scenario}/{technique}: duration {fields['duration']} != {duration}")
    return errors
