"""Golden-trace regression: the 24 h comparison is frozen bit-for-bit.

``tests/golden/comparison_<scenario>.json`` holds the
:class:`~repro.sim.quasistatic.HarvestSummary` of every technique for
the canonical 24-hour, dt=60 s comparison.  Any PR that changes these
numbers — a perf optimisation that was supposed to be equivalence-
preserving, a refactor that accidentally reorders floating-point
operations — fails here instead of shipping a silent behaviour change.

JSON float serialisation uses ``repr`` round-tripping, so equality
below is exact binary equality, not approximate.

Every engine tier is held to the same fixtures, each at its declared
tolerance: ``scalar`` bit-for-bit (it produced the fixtures), ``fleet``
at a-few-ulp accumulation tolerance, ``compiled`` within ~3x its
measured table error (hill climbing looser — its perturb/observe
probes feed back through the table, so trajectory deviations compound
before self-correcting).  The comparison itself runs on ``scalar`` and
``compiled``; the ``fleet`` tier's S&H lanes are held to the same
fixtures through the resilience harness's clean campaign.

To intentionally re-baseline (after a *reviewed* numerical change)::

    pytest tests/integration/test_golden_traces.py --update-golden
"""

import json
import pathlib

import pytest

from repro.env.profiles import HOURS
from repro.experiments.comparison import run_comparison

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
DURATION = 24.0 * HOURS
DT = 60.0
SCENARIOS = ("office-desk", "semi-mobile", "outdoor")
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

# Fleet S&H lanes (resilience clean campaign) against the fixtures, and
# the compiled tier's replayed ``energy_ideal``: ~3x the measured worst
# case (9.2e-16 on the fleet lanes; the compiled replay is bitwise).
FLEET_RTOL = 3e-15
# Compiled-tier declared tolerances: energies relative to the lane's
# ideal harvest, final voltage absolute, each ~3x the worst error measured
# against these fixtures (default lanes 1.06e-4 / 1.12e-4 V; hill climbing,
# feedback-coupled through the table, 4.53e-3 / 1.48e-3 V).
COMPILED_ENERGY_TOL = {"default": 3.5e-4, "hill-climbing": 1.4e-2}
COMPILED_VOLTAGE_TOL = {"default": 3.5e-4, "hill-climbing": 4.5e-3}


def golden_path(scenario: str) -> pathlib.Path:
    return GOLDEN_DIR / f"comparison_{scenario}.json"


def summaries_by_scenario(engine: str = "scalar"):
    """One full comparison run, pivoted to {scenario: {technique: fields}}."""
    results = run_comparison(duration=DURATION, dt=DT, engine=engine)
    pivot = {}
    for r in results:
        pivot.setdefault(r.scenario, {})[r.technique] = {
            field: getattr(r.summary, field) for field in SUMMARY_FIELDS
        }
    return pivot


def assert_matches_golden(engine, scenario, technique, measured, golden_fields):
    """Per-engine equivalence contract against one golden lane."""
    if engine == "scalar":
        for field, value in golden_fields.items():
            assert measured[field] == value, (
                f"{scenario}/{technique}/{field}: "
                f"golden {value!r} != measured {measured[field]!r} "
                "(bitwise regression — if intentional, re-baseline "
                "with --update-golden)"
            )
        return
    if engine == "fleet":
        for field, value in golden_fields.items():
            assert measured[field] == pytest.approx(value, rel=FLEET_RTOL, abs=1e-18), (
                f"{scenario}/{technique}/{field}: fleet diverged beyond ulp "
                f"tolerance (golden {value!r}, measured {measured[field]!r})"
            )
        return
    # compiled: the declared-budget contract
    etol = COMPILED_ENERGY_TOL.get(technique, COMPILED_ENERGY_TOL["default"])
    vtol = COMPILED_VOLTAGE_TOL.get(technique, COMPILED_VOLTAGE_TOL["default"])
    scale = max(abs(golden_fields["energy_ideal"]), 1e-9)
    assert measured["duration"] == golden_fields["duration"]
    assert measured["energy_ideal"] == pytest.approx(
        golden_fields["energy_ideal"], rel=FLEET_RTOL, abs=1e-18
    ), f"{scenario}/{technique}: energy_ideal is replayed exactly, not interpolated"
    for field in ENERGY_FIELDS:
        err = abs(measured[field] - golden_fields[field]) / scale
        assert err <= etol, (
            f"{scenario}/{technique}/{field}: compiled error {err:.3e} exceeds "
            f"the declared budget {etol:.1e} (relative to ideal harvest)"
        )
    dv = abs(measured["final_storage_voltage"] - golden_fields["final_storage_voltage"])
    assert dv <= vtol, (
        f"{scenario}/{technique}: compiled final storage voltage off by "
        f"{dv:.3e} V (declared budget {vtol:.1e} V)"
    )


def write_golden(pivot) -> None:
    from repro.ckpt.atomic import atomic_write_json

    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario, techniques in pivot.items():
        payload = {
            "experiment": "comparison",
            "scenario": scenario,
            "duration": DURATION,
            "dt": DT,
            "techniques": techniques,
        }
        atomic_write_json(golden_path(scenario), payload)


@pytest.fixture(scope="module", params=("scalar", "compiled"))
def computed(request):
    return request.param, summaries_by_scenario(engine=request.param)


class TestGoldenComparison:
    def test_all_scenarios_match_golden(self, computed, update_golden):
        engine, pivot = computed
        if update_golden:
            if engine != "scalar":
                pytest.skip("golden fixtures are written from the scalar engine")
            write_golden(pivot)
            pytest.skip("golden fixtures rewritten")
        for scenario in SCENARIOS:
            path = golden_path(scenario)
            assert path.exists(), (
                f"missing golden fixture {path}; generate with --update-golden"
            )
            golden = json.loads(path.read_text())
            assert golden["duration"] == DURATION and golden["dt"] == DT
            assert set(golden["techniques"]) == set(pivot[scenario]), scenario
            for technique, fields in golden["techniques"].items():
                assert_matches_golden(
                    engine, scenario, technique, pivot[scenario][technique], fields
                )

    @pytest.mark.parametrize("engine", ("scalar", "fleet"))
    def test_resilience_clean_campaign_reproduces_golden(self, engine, update_golden):
        """The resilience harness's no-fault run IS the golden comparison.

        Scalar reproduces the golden bits exactly; fleet is held to the
        same fixtures at its declared tolerance (it only batches the S&H
        lanes — the rest of the techniques take the scalar walk inside
        the harness).
        """
        from repro.experiments.resilience import run_resilience

        if update_golden:
            pytest.skip("golden fixtures being rewritten")
        report = run_resilience(
            duration=DURATION,
            dt=DT,
            campaigns=["clean"],
            include_recovery=False,
            include_coldstart=False,
            engine=engine,
        )
        for cell in report.cells:
            golden = json.loads(golden_path(cell.scenario).read_text())
            expected = golden["techniques"][cell.technique]
            measured = {f: getattr(cell.summary, f) for f in SUMMARY_FIELDS}
            lane_engine = engine
            if engine != "scalar" and not cell.technique.startswith("proposed-S&H"):
                lane_engine = "scalar"  # non-S&H lanes take the scalar walk
            assert_matches_golden(
                lane_engine, cell.scenario, cell.technique, measured, expected
            )
