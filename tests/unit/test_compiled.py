"""Compiled-tier equivalence: fused lane kernel + LUT vs the exact engines.

Contracts covered here:

* every comparison lane run by the compiled tier matches the scalar
  engine within its declared tolerance (hill climbing looser — its
  probes feed back through the table);
* :class:`~repro.sim.compiled.CompiledFleetSimulator` matches
  :class:`~repro.sim.fleet.FleetSimulator` within the LUT budget on
  clean and fully-faulted campaigns;
* checkpoint/resume of the compiled fleet is bitwise;
* the LUT validation gate is wired into construction;
* the photodiode calibration valve falls back to the scalar engine;
* engine resolution (``auto`` included) behaves across entry points,
  and comparison/strings refuse the ``fleet`` tier.
"""

import json

import pytest

from repro.converter.buck_boost import BuckBoostConverter
from repro.core.config import PlatformConfig
from repro.core.system import SampleHoldMPPT
from repro.env.profiles import ConstantProfile
from repro.errors import LUTValidationError, ModelParameterError
from repro.experiments.comparison import default_controllers, run_comparison
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    StorageFault,
)
from repro.faults.schedule import FaultSchedule
from repro.node.scheduler import EnergyAwareScheduler
from repro.node.sensor_node import SensorNode
from repro.pv.cells import am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.compiled import CompiledFleetSimulator, run_comparison_scenario
from repro.sim.engines import (
    EXPERIMENT_ENGINES,
    available_engines,
    fleet_class,
    resolve_engine,
)
from repro.sim.fleet import FleetMember, FleetSimulator
from repro.sim.precompute import precompute_conditions
from repro.storage.supercap import Supercapacitor

ENERGY_FIELDS = (
    "duration",
    "energy_ideal",
    "energy_at_cell",
    "energy_delivered",
    "energy_overhead",
    "energy_load",
    "final_storage_voltage",
)

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


def _clean_member(pc):
    ctl = SampleHoldMPPT(config=PlatformConfig.paper_prototype(), assume_started=True)
    return FleetMember(
        controller=ctl,
        precomputed=pc,
        converter=BuckBoostConverter(),
        storage=Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
        supply_voltage=3.0,
    )


def _faulted_member(pc):
    ctl = SampleHoldMPPT(config=PlatformConfig.paper_prototype(), assume_started=True)
    ctl = HoldLeakageFault(
        ctl,
        FaultSchedule.bursts(duration=DUR, rate_per_hour=1.0, mean_width=900.0, seed=401),
        droop_multiplier=40.0,
    )
    conv = ConverterBrownoutFault(
        BuckBoostConverter(),
        FaultSchedule.periodic(first=3600.0, period=7200.0, width=300.0, count=2),
    )
    store = StorageFault(
        Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
        FaultSchedule.bursts(duration=DUR, rate_per_hour=0.5, mean_width=300.0, seed=307),
        mode="short",
        short_resistance=200.0,
    )
    node = SensorNode(payload_bytes=16)
    sched = EnergyAwareScheduler(
        node, store.base, v_survival=2.3, v_comfort=4.2, min_period=30, max_period=3600
    )
    return FleetMember(
        controller=ctl, precomputed=pc, converter=conv, storage=store,
        load=sched, supply_voltage=3.0,
    )


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


class TestCompiledFleet:
    @pytest.mark.parametrize("build", (_clean_member, _faulted_member))
    def test_matches_exact_fleet_within_budget(self, conditions, build):
        _, _, pc = conditions
        exact = FleetSimulator([build(pc)]).run()
        compiled = CompiledFleetSimulator([build(pc)]).run()
        for a, b in zip(exact, compiled):
            _assert_within_budget(a, b, ENERGY_TOL["default"])

    def test_checkpoint_resume_bitwise(self, conditions):
        _, _, pc = conditions

        def build():
            return CompiledFleetSimulator([_faulted_member(pc), _clean_member(pc)])

        full = build().run()
        first = build()
        first.run(steps=100)
        blob = json.loads(json.dumps(first.state_dict()))  # real serialise trip
        second = build()
        second.load_state(blob)
        resumed = second.run()
        for x, y in zip(full, resumed):
            for name in ENERGY_FIELDS:
                assert getattr(x, name) == getattr(y, name), name

    def test_validation_gate_wired_into_construction(self, conditions):
        _, _, pc = conditions
        with pytest.raises(LUTValidationError):
            CompiledFleetSimulator([_clean_member(pc)], grid_points=8)
        # ...and can be explicitly disarmed without dropping the table.
        sim = CompiledFleetSimulator([_clean_member(pc)], grid_points=8, validate_lut=False)
        assert sim.lut_report is None
        assert sim.lut.grid_points == 8


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

    def test_fleet_class_mapping(self):
        assert fleet_class("fleet") is FleetSimulator
        assert fleet_class("compiled") is CompiledFleetSimulator
        with pytest.raises(ModelParameterError):
            fleet_class("scalar")

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


def _span_count(node, name):
    own = node.count if node.name == name else 0
    return own + sum(_span_count(child, name) for child in node.children.values())


class TestKernelCompileSpan:
    def test_cold_lane_kernel_traced_once(self, monkeypatch):
        import repro.obs as obs
        from repro.sim import compiled

        kwargs = dict(
            duration=3600.0,
            dt=60.0,
            scenarios=["office-desk"],
            techniques=["proposed-S&H-FOCV", "no-MPPT-direct"],
            engine="compiled",
        )
        monkeypatch.setattr(compiled, "_LANE_KERNEL_WARM", False)
        obs.enable()
        obs.TRACER.reset()
        try:
            run_comparison(**kwargs)
            cold = _span_count(obs.TRACER.root, "compiled:kernel-compile[lane]")
            obs.TRACER.reset()
            run_comparison(**kwargs)
            warm = _span_count(obs.TRACER.root, "compiled:kernel-compile[lane]")
        finally:
            obs.disable()
            obs.TRACER.reset()
            obs.REGISTRY.reset()
        assert cold == 1
        assert warm == 0
