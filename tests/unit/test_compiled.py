"""Compiled-tier equivalence: fused lane kernel + LUT vs the exact engines.

Contracts covered here:

* every comparison lane run by the compiled tier matches the scalar
  engine within its declared tolerance (hill climbing looser — its
  probes feed back through the table);
* the LUT validation gate is wired into the comparison path;
* the photodiode calibration valve falls back to the scalar engine;
* engine resolution (``auto`` included) behaves across entry points,
  comparison/strings refuse the ``fleet`` tier and resilience the
  ``compiled`` tier;
* compiled lanes count into ``compiled.lane_steps``, not ``fleet.steps``;
* the S&H lanes build no :class:`~repro.sim.fleet.FleetSimulator`, and
  are keyed on their whole platform config, not their name.
"""

import pytest

from repro.converter.buck_boost import BuckBoostConverter
from repro.env.profiles import ConstantProfile
from repro.errors import LUTValidationError, ModelParameterError
from repro.experiments.comparison import default_controllers, run_comparison
from repro.pv.cells import am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.compiled import run_comparison_scenario
from repro.sim.engines import EXPERIMENT_ENGINES, available_engines, resolve_engine
from repro.sim.precompute import precompute_conditions
from repro.storage.supercap import Supercapacitor

DUR = 4 * 3600.0
DT = 60.0

# Declared compiled-tier tolerances (energies relative to the lane's
# ideal harvest; see tests/integration/test_golden_traces.py for the
# 24 h measurement these bounds envelope).
ENERGY_TOL = {"default": 1e-3, "hill-climbing": 2e-2}


@pytest.fixture(scope="module")
def conditions():
    cell = am_1815()
    env = ConstantProfile(500.0)
    thermal = CellThermalModel(area_cm2=cell.parameters.area_cm2)
    pc = precompute_conditions(cell, env, DUR, DT, thermal=thermal)
    return cell, env, pc


def _assert_within_budget(exact, compiled, tol):
    scale = max(abs(exact.energy_ideal), 1e-9)
    assert compiled.duration == exact.duration
    for name in ("energy_at_cell", "energy_delivered", "energy_overhead", "energy_load"):
        err = abs(getattr(compiled, name) - getattr(exact, name)) / scale
        assert err <= tol, f"{name}: {err:.3e} > {tol:.1e}"
    assert abs(compiled.final_storage_voltage - exact.final_storage_voltage) <= 1e-2


class TestComparisonLanes:
    @pytest.fixture(scope="class")
    def both(self):
        kwargs = dict(duration=DUR, dt=30.0, scenarios=["office-desk"])
        scalar = run_comparison(engine="scalar", **kwargs)
        compiled = run_comparison(engine="compiled", **kwargs)
        return scalar, compiled

    def test_every_lane_within_declared_tolerance(self, both):
        scalar, compiled = both
        assert [(c.technique, c.scenario) for c in scalar] == [
            (c.technique, c.scenario) for c in compiled
        ]
        for a, b in zip(scalar, compiled):
            tol = ENERGY_TOL.get(a.technique, ENERGY_TOL["default"])
            _assert_within_budget(a.summary, b.summary, tol)

    def test_ideal_energy_and_duration_replayed_exactly(self, both):
        scalar, compiled = both
        for a, b in zip(scalar, compiled):
            assert b.summary.duration == a.summary.duration
            assert b.summary.energy_ideal == pytest.approx(
                a.summary.energy_ideal, rel=1e-12, abs=1e-18
            )

    def test_photodiode_valve_falls_back_to_scalar(self, conditions):
        # A store that starts below the photodiode tracker's minimum
        # supply forces a bootstrap episode before its one-time
        # calibration; the compiled lane must decline rather than
        # calibrate at the wrong instant.
        cell, env, _ = conditions
        factories = default_controllers(cell)
        lanes = [
            (
                "photodiode-ref",
                factories["photodiode-ref"](),
                BuckBoostConverter(),
                Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=1.0),
            )
        ]
        out, pc = run_comparison_scenario(
            cell, "valve-test", lambda: ConstantProfile(500.0), lanes, DUR, DT
        )
        assert out["photodiode-ref"] is None
        assert pc is not None  # handed back for the scalar rerun

    def test_lut_validation_gate_wired(self, monkeypatch):
        # An undersized table must fail the run, not silently degrade it.
        from repro.sim import compiled

        build = compiled.lut_for_models
        monkeypatch.setattr(
            compiled,
            "lut_for_models",
            lambda models, **kwargs: build(models, grid_points=8, **kwargs),
        )
        compiled.clear_program_cache()
        with pytest.raises(LUTValidationError):
            run_comparison(
                engine="compiled",
                scenarios=["office-desk"],
                techniques=["proposed-S&H-FOCV"],
                duration=12 * 3600.0,
                dt=600.0,
            )


class TestEngineRegistry:
    def test_known_engines(self):
        assert available_engines() == ("scalar", "fleet", "compiled")

    def test_resolve_passthrough_and_auto(self):
        assert resolve_engine("scalar") == "scalar"
        assert resolve_engine("fleet") == "fleet"
        assert resolve_engine("compiled") == "compiled"
        assert resolve_engine("auto") == "compiled"
        assert resolve_engine("auto", allowed=("fleet", "scalar")) == "fleet"
        assert resolve_engine("auto", allowed=("scalar",)) == "scalar"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ModelParameterError):
            resolve_engine("quantum")
        with pytest.raises(ModelParameterError):
            resolve_engine("compiled", allowed=("fleet", "scalar"))
        with pytest.raises(ModelParameterError):
            resolve_engine(42)

    def test_tier_table(self):
        assert EXPERIMENT_ENGINES == {
            "comparison": ("scalar", "compiled"),
            "strings": ("scalar", "compiled"),
            "resilience": ("scalar", "fleet"),
            "montecarlo": ("scalar", "fleet"),
        }
        assert resolve_engine("auto", EXPERIMENT_ENGINES["resilience"]) == "fleet"

    def test_comparison_rejects_unknown_engine(self):
        with pytest.raises(ModelParameterError):
            run_comparison(duration=600.0, dt=60.0, engine="gpu")

    def test_comparison_and_strings_reject_fleet_tier(self):
        from repro.experiments.strings import run_strings

        with pytest.raises(ModelParameterError, match="fleet"):
            run_comparison(duration=600.0, dt=60.0, engine="fleet")
        with pytest.raises(ModelParameterError, match="fleet"):
            run_strings(duration=600.0, dt=60.0, engine="fleet")
        assert resolve_engine("auto", EXPERIMENT_ENGINES["comparison"]) == "compiled"

    def test_resilience_rejects_compiled_tier(self):
        from repro.experiments.resilience import run_resilience

        with pytest.raises(ModelParameterError, match="compiled"):
            run_resilience(duration=600.0, dt=60.0, engine="compiled")


class TestLaneStepCounter:
    def test_compiled_lanes_count_into_their_own_counter(self):
        import repro.obs as obs

        techniques = ["proposed-S&H-FOCV", "no-MPPT-direct"]
        obs.enable()
        obs.reset()
        try:
            run_comparison(
                duration=3600.0,
                dt=60.0,
                scenarios=["office-desk"],
                techniques=techniques,
                engine="compiled",
            )
            lane_steps = obs.REGISTRY.counter("compiled.lane_steps").value
            fleet_steps = obs.REGISTRY.counter("fleet.steps").value
        finally:
            obs.disable()
            obs.reset()
        assert lane_steps == len(techniques) * 60
        assert fleet_steps == 0


class TestSampleHoldLaneBuildsNoFleet:
    def test_office_desk_sample_hold_lanes_without_a_fleet(self, monkeypatch):
        """The S&H lanes read their constants without constructing a fleet."""
        import json

        from repro.experiments.comparison import default_scenarios
        from repro.sim import compiled
        from repro.sim.fleet import FleetSimulator
        from tests.integration.test_golden_traces import (
            DT as GOLDEN_DT,
            DURATION as GOLDEN_DURATION,
            SUMMARY_FIELDS,
            assert_matches_golden,
            golden_path,
        )

        def no_fleet(self, *args, **kwargs):
            raise AssertionError("the compiled tier constructed a FleetSimulator")

        monkeypatch.setattr(FleetSimulator, "__init__", no_fleet)
        compiled.clear_program_cache()
        cell = am_1815()
        factories = default_controllers(cell)
        techniques = ("proposed-S&H-FOCV", "proposed-S&H-trimmed")
        lanes = [
            (
                name,
                factories[name](),
                BuckBoostConverter(),
                Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
            )
            for name in techniques
        ]
        out, _ = run_comparison_scenario(
            cell,
            "office-desk",
            default_scenarios()["office-desk"],
            lanes,
            GOLDEN_DURATION,
            GOLDEN_DT,
            supply_voltage=3.0,
        )
        golden = json.loads(golden_path("office-desk").read_text())["techniques"]
        for name in techniques:
            assert out[name] is not None, f"{name} fell back to the scalar engine"
            measured = {f: getattr(out[name], f) for f in SUMMARY_FIELDS}
            assert_matches_golden("compiled", "office-desk", name, measured, golden[name])


class TestSampleHoldLaneKey:
    def test_same_name_different_config_gets_its_own_lane(self):
        """Two S&H lanes sharing a name but not a PlatformConfig must not
        share a lane program, within one call or across calls."""
        from repro.core.config import PlatformConfig
        from repro.core.system import SampleHoldMPPT
        from repro.experiments.comparison import default_scenarios
        from repro.sim import compiled

        def lane(label, config):
            return (
                label,
                SampleHoldMPPT(config=config, assume_started=True, name="sh"),
                BuckBoostConverter(),
                Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
            )

        def run(*lanes):
            out, _ = run_comparison_scenario(
                am_1815(),
                "office-desk",
                default_scenarios()["office-desk"],
                list(lanes),
                24 * 3600.0,
                300.0,
            )
            return out

        trimmed = lambda: PlatformConfig.trimmed_for_cell(am_1815())  # noqa: E731
        compiled.clear_program_cache()
        alone = run(lane("b", trimmed()))["b"]
        compiled.clear_program_cache()
        both = run(lane("a", PlatformConfig()), lane("b", trimmed()))
        assert both["b"].energy_at_cell == alone.energy_at_cell
        assert both["a"].energy_at_cell != alone.energy_at_cell
        # Warm program cache: the default-config lane must not be reused.
        assert run(lane("b", trimmed()))["b"].energy_at_cell == alone.energy_at_cell
