"""The fault-injection subsystem: schedules, wrappers, engine guards."""

import math

import pytest

from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import SampleHoldMPPT
from repro.env.profiles import ConstantProfile
from repro.errors import FaultConfigError, NumericalGuardError
from repro.faults import (
    ConverterBrownoutFault,
    FaultSchedule,
    FaultWindow,
    FlickerBurstFault,
    HoldLeakageFault,
    IrradianceRampFault,
    IrradianceStepFault,
    LightDropoutFault,
    SetpointDriftFault,
    StorageFault,
)
from repro.pv.cells import am_1815
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import Observation, QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor


class TestFaultSchedule:
    def test_windows_sorted_and_merged(self):
        s = FaultSchedule.from_windows([(50, 70), (10, 20), (15, 30)])
        assert [(w.start, w.end) for w in s.windows] == [(10, 30), (50, 70)]

    def test_active_boundaries(self):
        s = FaultSchedule.from_windows([(10.0, 20.0)])
        assert not s.active(9.999)
        assert s.active(10.0)  # inclusive start
        assert s.active(19.999)
        assert not s.active(20.0)  # exclusive end

    def test_empty_schedule_never_active(self):
        s = FaultSchedule()
        assert not s and not s.active(0.0) and s.total_active_time == 0.0

    def test_periodic(self):
        s = FaultSchedule.periodic(first=100.0, period=1000.0, width=50.0, count=3)
        assert len(s) == 3
        assert s.active(1120.0) and not s.active(1160.0)

    def test_bursts_deterministic_in_seed(self):
        a = FaultSchedule.bursts(86400.0, rate_per_hour=2.0, mean_width=120.0, seed=42)
        b = FaultSchedule.bursts(86400.0, rate_per_hour=2.0, mean_width=120.0, seed=42)
        c = FaultSchedule.bursts(86400.0, rate_per_hour=2.0, mean_width=120.0, seed=43)
        assert [(w.start, w.end) for w in a.windows] == [(w.start, w.end) for w in b.windows]
        assert [(w.start, w.end) for w in a.windows] != [(w.start, w.end) for w in c.windows]

    def test_bursts_respect_horizon(self):
        s = FaultSchedule.bursts(3600.0, rate_per_hour=20.0, mean_width=60.0, seed=0)
        assert all(0.0 <= w.start < w.end <= 3600.0 for w in s.windows)

    def test_invalid_configs_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultWindow(5.0, 5.0)
        with pytest.raises(FaultConfigError):
            FaultSchedule.periodic(first=0.0, period=10.0, width=10.0, count=1)
        with pytest.raises(FaultConfigError):
            FaultSchedule.bursts(0.0, rate_per_hour=1.0, mean_width=1.0)


class TestLightFaults:
    def test_dropout(self):
        p = LightDropoutFault(ConstantProfile(500.0), FaultSchedule.from_windows([(10, 20)]))
        assert p(5.0) == 500.0 and p(15.0) == 0.0 and p(25.0) == 500.0

    def test_dropout_residual(self):
        p = LightDropoutFault(
            ConstantProfile(500.0), FaultSchedule.from_windows([(10, 20)]), residual=0.1
        )
        assert p(15.0) == pytest.approx(50.0)

    def test_flicker_chops_inside_windows_only(self):
        p = FlickerBurstFault(
            ConstantProfile(400.0),
            FaultSchedule.from_windows([(100.0, 200.0)]),
            chop_period=2.0,
            depth=0.0,
            duty=0.5,
        )
        assert p(50.0) == 400.0  # outside: untouched
        assert p(100.5) == 400.0  # bright half-cycle (phase from window start)
        assert p(101.5) == 0.0  # dark half-cycle
        assert p(250.0) == 400.0

    def test_step_and_ramp(self):
        step = IrradianceStepFault(ConstantProfile(1000.0), at=100.0, factor=0.5)
        assert step(99.0) == 1000.0 and step(100.0) == 500.0
        ramp = IrradianceRampFault(ConstantProfile(1000.0), start=0.0, end=100.0, factor=0.2)
        assert ramp(0.0) == 1000.0
        assert ramp(50.0) == pytest.approx(600.0)
        assert ramp(100.0) == pytest.approx(200.0)
        assert ramp(1000.0) == pytest.approx(200.0)


def _observation(model, t=0.0, dt=1.0):
    return Observation(
        time=t, dt=dt, cell_model=model, lux=500.0, storage_voltage=3.0, supply_voltage=3.0
    )


class TestComponentFaults:
    def test_setpoint_drift_offsets_inside_windows(self):
        cell = am_1815()
        model = cell.model_at(500.0)
        base = SampleHoldMPPT(assume_started=True)
        faulty = SetpointDriftFault(
            base, FaultSchedule.from_windows([(100.0, 200.0)]), offset_volts=0.2
        )
        clean = SampleHoldMPPT(assume_started=True)
        v_clean = clean.decide(_observation(model, t=150.0)).operating_voltage
        v_fault = faulty.decide(_observation(model, t=150.0)).operating_voltage
        assert v_fault == pytest.approx(v_clean + 0.2)

    def test_hold_leakage_droops_extra(self):
        cell = am_1815()
        model = cell.model_at(500.0)
        schedule = FaultSchedule.from_windows([(0.0, 1e6)])
        clean = SampleHoldMPPT(assume_started=True)
        faulty = HoldLeakageFault(
            SampleHoldMPPT(assume_started=True), schedule, droop_multiplier=50.0
        )
        # First step samples; subsequent steps droop the held value.
        for t in range(0, 120, 10):
            clean.decide(_observation(model, t=float(t), dt=10.0))
            faulty.decide(_observation(model, t=float(t), dt=10.0))
        assert faulty.base.held_sample < clean.held_sample

    def test_hold_leakage_requires_sample_hold(self):
        with pytest.raises(FaultConfigError):
            HoldLeakageFault(object(), FaultSchedule(), droop_multiplier=10.0)

    def test_converter_brownout_gates_transfer(self):
        conv = ConverterBrownoutFault(
            BuckBoostConverter(), FaultSchedule.from_windows([(10.0, 20.0)])
        )
        conv.tick(5.0, 1.0)
        healthy = conv.output_power(1e-3, 2.0, 3.0)
        assert healthy > 0.0 and not conv.browned_out
        conv.tick(15.0, 1.0)
        assert conv.browned_out
        assert conv.output_power(1e-3, 2.0, 3.0) == 0.0
        assert conv.efficiency(1e-3, 2.0) == 0.0

    def test_storage_open_blocks_exchange(self):
        store = StorageFault(
            Supercapacitor(capacitance=1.0, voltage=2.0),
            FaultSchedule.from_windows([(10.0, 20.0)]),
            mode="open",
        )
        store.tick(15.0, 1.0)
        assert store.exchange(1.0, 1.0) == 0.0
        assert store.voltage == pytest.approx(2.0)
        store.tick(25.0, 1.0)
        assert store.exchange(1.0, 1.0) > 0.0

    def test_storage_short_bleeds(self):
        store = StorageFault(
            Supercapacitor(capacitance=1.0, voltage=3.0, leakage_current=0.0),
            FaultSchedule.from_windows([(0.0, 100.0)]),
            mode="short",
            short_resistance=10.0,
        )
        v0 = store.voltage
        store.tick(1.0, 1.0)
        assert store.voltage < v0

    def test_engine_ticks_wrappers(self):
        cell = am_1815()
        schedule = FaultSchedule.from_windows([(0.0, 1e6)])
        conv = ConverterBrownoutFault(BuckBoostConverter(), schedule)
        sim = QuasiStaticSimulator(
            SampleHoldMPPT(assume_started=True),
            precompute_conditions(cell, ConstantProfile(500.0), 120.0, 10.0),
            converter=conv,
            storage=Supercapacitor(capacitance=1.0, voltage=2.7),
            record=False,
        )
        summary = sim.run(120.0, dt=10.0)
        assert conv.browned_out
        assert summary.energy_delivered == 0.0


class TestNumericalGuards:
    def test_nan_lux_surfaces(self):
        with pytest.raises(NumericalGuardError):
            precompute_conditions(am_1815(), lambda t: float("nan"), 1.0, 1.0)

    def test_nan_lux_surfaces_in_precompute(self):
        """A NaN window raises in precompute too, not a silent dark stretch."""

        def flaky(t):
            return float("nan") if 600.0 <= t < 1200.0 else 500.0

        with pytest.raises(NumericalGuardError) as info:
            precompute_conditions(am_1815(), flaky, 3600.0, 60.0)
        assert info.value.signal == "lux"
        assert info.value.time == 600.0

    def test_transient_guard_rejects_nonfinite_signal(self):
        from repro.sim.transient import TransientSimulator

        class Exploding:
            def __init__(self):
                self.v = 1.0

            def advance(self, t, dt):
                self.v = math.inf

            def signals(self):
                return {"v": self.v}

        sim = TransientSimulator(Exploding(), dt=1e-3)
        with pytest.raises(NumericalGuardError) as err:
            sim.run(0.01)
        assert err.value.signal == "v"
