"""Unit tests for the transient and quasi-static engines."""

import math

import pytest

from repro.converter.buck_boost import BuckBoostConverter
from repro.env.scenarios import constant_bench
from repro.errors import ModelParameterError, SimulationError
from repro.pv.cells import am_1815
from repro.sim.quasistatic import ControlDecision, Observation, QuasiStaticSimulator
from repro.sim.transient import TransientSimulator
from repro.storage.supercap import Supercapacitor


class DecayingSystem:
    """A first-order test system: dv/dt = -v."""

    def __init__(self):
        self.v = 1.0

    def advance(self, t, dt):
        self.v *= math.exp(-dt)

    def signals(self):
        return {"v": self.v}


class TestTransientSimulator:
    def test_integrates_and_records(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.01)
        sim.run(1.0)
        trace = sim.traces["v"]
        assert trace.final() == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert len(trace) == 101

    def test_decimation(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.01, record_every=10)
        sim.run(1.0)
        assert len(sim.traces["v"]) == 11

    def test_selected_signals_only(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.1, record=["v"])
        sim.run(0.5)
        assert sim.traces.names() == ["v"]

    def test_unknown_signal_rejected(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.1, record=["nope"])
        with pytest.raises(SimulationError):
            sim.run(0.2)

    def test_run_until_predicate(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.001)
        t = sim.run_until(lambda s: s.v < 0.5, timeout=5.0)
        assert t == pytest.approx(math.log(2.0), rel=0.01)

    def test_run_until_times_out(self):
        sim = TransientSimulator(DecayingSystem(), dt=0.01)
        with pytest.raises(SimulationError):
            sim.run_until(lambda s: s.v > 2.0, timeout=0.5)

    def test_rejects_bad_dt(self):
        with pytest.raises(ModelParameterError):
            TransientSimulator(DecayingSystem(), dt=0.0)


class FixedRatioController:
    """Test controller: operate at a fixed fraction of Voc."""

    name = "fixed-ratio-test"

    def __init__(self, ratio=0.8, overhead=0.0):
        self.ratio = ratio
        self.overhead = overhead

    def decide(self, obs: Observation) -> ControlDecision:
        if obs.lux <= 0.0:
            return ControlDecision(operating_voltage=None, harvest_duty=0.0)
        return ControlDecision(
            operating_voltage=self.ratio * obs.cell_model.voc(),
            overhead_current=self.overhead,
        )


class TestQuasiStaticSimulator:
    def test_energy_accounting_consistent(self):
        sim = QuasiStaticSimulator(
            am_1815(), FixedRatioController(), constant_bench(1000.0)
        )
        summary = sim.run(120.0, dt=1.0)
        assert summary.duration == pytest.approx(120.0)
        assert 0.0 < summary.energy_at_cell <= summary.energy_ideal * 1.001
        assert summary.energy_delivered == pytest.approx(summary.energy_at_cell)

    def test_tracking_efficiency_bounds(self):
        sim = QuasiStaticSimulator(
            am_1815(), FixedRatioController(ratio=0.794), constant_bench(1000.0)
        )
        summary = sim.run(60.0)
        assert 0.98 < summary.tracking_efficiency <= 1.0001

    def test_overhead_accumulates(self):
        sim = QuasiStaticSimulator(
            am_1815(),
            FixedRatioController(overhead=10e-6),
            constant_bench(1000.0),
            supply_voltage=3.3,
        )
        summary = sim.run(100.0)
        assert summary.energy_overhead == pytest.approx(10e-6 * 3.3 * 100.0, rel=1e-6)

    def test_converter_losses_reduce_delivery(self):
        sim = QuasiStaticSimulator(
            am_1815(),
            FixedRatioController(),
            constant_bench(1000.0),
            converter=BuckBoostConverter(),
        )
        summary = sim.run(60.0)
        assert summary.energy_delivered < summary.energy_at_cell
        assert summary.energy_delivered > 0.7 * summary.energy_at_cell

    def test_storage_charges(self):
        storage = Supercapacitor(capacitance=0.1, voltage=2.0)
        sim = QuasiStaticSimulator(
            am_1815(), FixedRatioController(), constant_bench(5000.0), storage=storage
        )
        sim.run(600.0)
        assert storage.voltage > 2.0

    def test_load_drains_storage(self):
        storage = Supercapacitor(capacitance=0.1, voltage=3.0)
        sim = QuasiStaticSimulator(
            am_1815(),
            FixedRatioController(),
            constant_bench(0.0),
            storage=storage,
            load=lambda t: 1e-3,
        )
        sim.run(300.0)
        assert storage.voltage < 3.0

    def test_dark_environment_harvests_nothing(self):
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(0.0))
        summary = sim.run(60.0)
        assert summary.energy_at_cell == 0.0
        assert summary.tracking_efficiency == 0.0

    def test_traces_recorded(self):
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(500.0))
        sim.run(10.0)
        assert "v_pv" in sim.traces
        assert "p_pv" in sim.traces
        assert len(sim.traces["lux"]) == 10

    def test_thermal_model_heats_cell_and_reduces_power(self):
        from repro.pv.thermal import CellThermalModel

        hot = QuasiStaticSimulator(
            am_1815(),
            FixedRatioController(),
            constant_bench(105000.0),
            thermal=CellThermalModel(area_cm2=25.0, thermal_capacitance=1.0),
        )
        cold = QuasiStaticSimulator(
            am_1815(), FixedRatioController(), constant_bench(105000.0)
        )
        hot_summary = hot.run(600.0, dt=10.0)
        cold_summary = cold.run(600.0, dt=10.0)
        assert hot_summary.energy_ideal < cold_summary.energy_ideal

    def test_rejects_bad_dt(self):
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(100.0))
        with pytest.raises(ModelParameterError):
            sim.step(0.0)

    def test_constant_light_credits_its_one_condition(self):
        """run() builds its own trace; constant light is one condition,
        and energy_ideal sums the trace's claimant replay step by step."""
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(1000.0))
        summary = sim.run(30.0, dt=1.0)
        pc = sim.precomputed
        assert pc.unique_conditions == 1
        expected = 0.0
        for power in pc.ideal_power()[pc.u_row].tolist():
            expected += power * 1.0
        assert summary.energy_ideal == expected > 0.0

    def test_run_past_its_own_trace_raises(self):
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(1000.0))
        sim.run(30.0)
        with pytest.raises(ModelParameterError, match="off the precomputed trace"):
            sim.run(30.0)

    def test_step_without_a_trace_raises(self):
        sim = QuasiStaticSimulator(am_1815(), FixedRatioController(), constant_bench(1000.0))
        with pytest.raises(ModelParameterError, match="off the precomputed trace"):
            sim.step(1.0)

    def test_needs_an_environment_or_a_trace(self):
        with pytest.raises(ModelParameterError, match="environment or a precomputed trace"):
            QuasiStaticSimulator(am_1815(), FixedRatioController(), None)

    def test_resumed_run_rebuilds_its_trace_from_step_zero(self):
        """A snapshot carries no conditions: a resumed run rebuilds its
        trace from step 0, thermal walk included, and ends bitwise where
        the uninterrupted run does."""
        import json

        from repro.env.scenarios import step_change
        from repro.pv.thermal import CellThermalModel

        def build():
            return QuasiStaticSimulator(
                am_1815(),
                FixedRatioController(),
                step_change(300.0, 60000.0, step_time=200.0),
                storage=Supercapacitor(capacitance=0.1, voltage=2.0),
                thermal=CellThermalModel(area_cm2=25.0, thermal_capacitance=1.0),
                record=False,
            )

        whole = build().run(600.0, dt=10.0)
        first = build()
        first.run(300.0, dt=10.0)
        resumed = build()
        resumed.load_state(json.loads(json.dumps(first.state_dict())))
        assert resumed.run(300.0, dt=10.0).to_dict() == whole.to_dict()
