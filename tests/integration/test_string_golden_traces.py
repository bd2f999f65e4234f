"""Golden traces for the shaded-string scenarios, on the comparison tiers.

Mirrors ``test_golden_traces.py`` for the heterogeneous-string
workload: a mismatched 4s AM-1815 string under the indoor edge-sweep
and the outdoor blob-occlusion shadow maps, frozen bit-for-bit from the
scalar engine.  The compiled tier, reading its knee-aligned string
LUT, is held to ~3x its measured error against them.  (Fleet members
step on the scalar engine and sample through the same string
bisection, so the fleet tier is bitwise here; the differential harness
pins that through a resilience clean-campaign spec.)

Re-baseline (after a reviewed numerical change)::

    pytest tests/integration/test_string_golden_traces.py --update-golden
"""

import json
import pathlib

import pytest

from repro.env.profiles import HOURS
from repro.experiments.comparison import run_comparison
from repro.pv.cells import am_1815
from repro.pv.string import CellString
from tests.integration.test_golden_traces import FLEET_RTOL

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
DURATION = 24.0 * HOURS
DT = 300.0
MISMATCH = (1.0, 0.9, 1.05, 0.85)
TECHNIQUES = (
    "ideal-oracle",
    "proposed-S&H-FOCV",
    "hill-climbing",
    "fixed-voltage",
    "no-MPPT-direct",
    "photodiode-ref",
)
#: label -> (scenario, shading spec)
STRING_SCENARIOS = {
    "indoor-edge-sweep": ("office-desk", "edge-sweep"),
    "outdoor-blob": ("outdoor", "blob:seed=3"),
}
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

# Compiled-tier declared tolerances, one for every lane: energies
# relative to the lane's ideal harvest, final voltage absolute, ~3x the
# worst error measured against these fixtures (energy 3.6e-5 on the
# indoor ideal oracle, voltage 2.0e-5 V on the indoor photodiode
# reference; hill climbing measures below both, 9.9e-6 / 6.8e-6 V).
# ``energy_ideal`` is replayed bitwise, held to FLEET_RTOL.
COMPILED_ENERGY_TOL = 1.1e-4
COMPILED_VOLTAGE_TOL = 6e-5


def golden_path(label: str) -> pathlib.Path:
    return GOLDEN_DIR / f"string_{label}.json"


def _string():
    return CellString(am_1815(), 4, mismatch=MISMATCH)


def run_label(label: str, engine: str):
    scenario, shading = STRING_SCENARIOS[label]
    results = run_comparison(
        cell=_string(),
        duration=DURATION,
        dt=DT,
        techniques=list(TECHNIQUES),
        scenarios=[scenario],
        engine=engine,
        shading=shading,
    )
    return {
        r.technique: {f: getattr(r.summary, f) for f in SUMMARY_FIELDS}
        for r in results
    }


def assert_matches_golden(engine, label, technique, measured, golden_fields):
    if engine == "scalar":
        for f, value in golden_fields.items():
            assert measured[f] == value, (
                f"{label}/{technique}/{f}: golden {value!r} != "
                f"measured {measured[f]!r} (bitwise regression — if "
                "intentional, re-baseline with --update-golden)"
            )
        return
    scale = max(abs(golden_fields["energy_ideal"]), 1e-9)
    assert measured["duration"] == golden_fields["duration"]
    assert measured["energy_ideal"] == pytest.approx(
        golden_fields["energy_ideal"], rel=FLEET_RTOL, abs=1e-18
    ), f"{label}/{technique}: energy_ideal is replayed exactly, not interpolated"
    for f in ENERGY_FIELDS:
        err = abs(measured[f] - golden_fields[f]) / scale
        assert err <= COMPILED_ENERGY_TOL, (
            f"{label}/{technique}/{f}: compiled error {err:.3e} exceeds "
            f"the declared budget {COMPILED_ENERGY_TOL:.1e} (relative to ideal harvest)"
        )
    dv = abs(measured["final_storage_voltage"] - golden_fields["final_storage_voltage"])
    assert dv <= COMPILED_VOLTAGE_TOL, (
        f"{label}/{technique}: compiled final storage voltage off by "
        f"{dv:.3e} V (declared budget {COMPILED_VOLTAGE_TOL:.1e} V)"
    )


def write_golden(label: str, techniques) -> None:
    from repro.ckpt.atomic import atomic_write_json

    scenario, shading = STRING_SCENARIOS[label]
    GOLDEN_DIR.mkdir(exist_ok=True)
    atomic_write_json(
        golden_path(label),
        {
            "experiment": "string-comparison",
            "scenario": scenario,
            "shading": shading,
            "cell": f"4s AM-1815 mismatch={list(MISMATCH)}",
            "duration": DURATION,
            "dt": DT,
            "techniques": techniques,
        },
    )


@pytest.mark.parametrize("label", sorted(STRING_SCENARIOS))
@pytest.mark.parametrize("engine", ("scalar", "compiled"))
def test_string_scenario_matches_golden(engine, label, update_golden):
    if update_golden:
        if engine != "scalar":
            pytest.skip("golden fixtures are written from the scalar engine")
        write_golden(label, run_label(label, "scalar"))
        pytest.skip("golden fixtures rewritten")
    path = golden_path(label)
    assert path.exists(), (
        f"missing golden fixture {path}; generate with --update-golden"
    )
    golden = json.loads(path.read_text())
    assert golden["duration"] == DURATION and golden["dt"] == DT
    measured = run_label(label, engine)
    assert set(golden["techniques"]) == set(measured)
    for technique, fields in golden["techniques"].items():
        assert_matches_golden(engine, label, technique, measured[technique], fields)
