"""Unit tests for the energy-aware scheduler and neutrality analysis."""

import pytest

from repro.analysis.neutrality import assess_neutrality, size_supercapacitor
from repro.env.scenarios import constant_bench, office_desk_24h
from repro.errors import ModelParameterError
from repro.node.scheduler import EnergyAwareScheduler
from repro.node.sensor_node import SensorNode
from repro.pv.cells import am_1815
from repro.storage.supercap import Supercapacitor


class FakeStore:
    def __init__(self, voltage):
        self.voltage = voltage


class TestSchedulerPolicy:
    def make(self, voltage=3.0):
        return EnergyAwareScheduler(
            node=SensorNode(),
            storage=FakeStore(voltage),
            v_survival=2.2,
            v_comfort=4.0,
            min_period=30.0,
            max_period=1800.0,
        )

    def test_hibernates_below_survival(self):
        sched = self.make()
        assert sched.period_for_voltage(2.0) is None

    def test_full_rate_above_comfort(self):
        sched = self.make()
        assert sched.period_for_voltage(4.5) == pytest.approx(30.0)

    def test_period_monotone_in_voltage(self):
        sched = self.make()
        periods = [sched.period_for_voltage(v) for v in (2.3, 2.8, 3.4, 3.9)]
        assert all(b < a for a, b in zip(periods, periods[1:]))

    def test_boundary_values(self):
        sched = self.make()
        assert sched.period_for_voltage(2.2) == pytest.approx(1800.0, rel=0.01)
        assert sched.period_for_voltage(4.0) == pytest.approx(30.0, rel=0.01)

    def test_clamp_absorbs_exp_log_overshoot_at_survival(self):
        # At voltage == v_survival the interpolation fraction is exactly 0
        # and the unclamped period is exp(log(1800.0)) == 1800.0000000000005
        # — ~5e-13 *above* max_period.  The clamp must absorb it: commanded
        # periods never exceed the application ceiling, bitwise.
        import math

        sched = self.make()
        assert math.exp(math.log(sched.max_period)) > sched.max_period  # the hazard
        assert sched.period_for_voltage(2.2) == sched.max_period
        # One ulp above survival must still respect the ceiling exactly.
        eps_up = math.nextafter(2.2, 3.0)
        assert sched.period_for_voltage(eps_up) <= sched.max_period
        # And one ulp below comfort must respect the floor exactly.
        below_comfort = math.nextafter(4.0, 0.0)
        assert sched.min_period <= sched.period_for_voltage(below_comfort) <= sched.max_period

    def test_nan_voltage_raises_guard(self):
        from repro.errors import NumericalGuardError

        sched = self.make()
        with pytest.raises(NumericalGuardError):
            sched.period_for_voltage(float("nan"))

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ModelParameterError):
            EnergyAwareScheduler(
                node=SensorNode(), storage=FakeStore(3.0), v_survival=4.0, v_comfort=3.0
            )

    def test_rejects_bad_periods(self):
        with pytest.raises(ModelParameterError):
            EnergyAwareScheduler(
                node=SensorNode(),
                storage=FakeStore(3.0),
                min_period=100.0,
                max_period=50.0,
            )
        with pytest.raises(ModelParameterError):
            EnergyAwareScheduler(
                node=SensorNode(), storage=FakeStore(3.0), min_period=0.0, max_period=50.0
            )


class TestSchedulerDynamics:
    def test_reports_accumulate_when_comfortable(self):
        store = FakeStore(4.5)
        sched = EnergyAwareScheduler(
            node=SensorNode(), storage=store, min_period=30.0, max_period=600.0,
            update_interval=10.0,
        )
        t = 0.0
        for _ in range(100):
            sched.mean_power(t, 10.0)
            t += 10.0
        assert sched.reports_sent >= 30  # ~one per 30 s over 1000 s

    def test_hibernation_stops_reports(self):
        store = FakeStore(1.8)
        sched = EnergyAwareScheduler(node=SensorNode(), storage=store, update_interval=10.0)
        t = 0.0
        for _ in range(50):
            power = sched.mean_power(t, 10.0)
            t += 10.0
        assert sched.hibernating
        assert sched.reports_sent == 0
        assert power == pytest.approx(SensorNode().sleep_power)

    def test_recovers_from_hibernation(self):
        store = FakeStore(1.8)
        sched = EnergyAwareScheduler(node=SensorNode(), storage=store, update_interval=10.0)
        for i in range(10):
            sched.mean_power(i * 10.0, 10.0)
        store.voltage = 4.5
        for i in range(10, 400):
            sched.mean_power(i * 10.0, 10.0)
        assert not sched.hibernating
        assert sched.reports_sent > 0

    def test_average_power_at_matches_period(self):
        sched = EnergyAwareScheduler(node=SensorNode(), storage=FakeStore(3.0))
        avg = sched.average_power_at(4.5)
        node = SensorNode(report_period=30.0)
        assert avg == pytest.approx(
            node.sleep_power + node.energy_per_report() / 30.0, rel=1e-6
        )

    def test_integrates_with_simulator(self):
        from repro.baselines.ideal import IdealMPPT
        from repro.sim.precompute import precompute_conditions
        from repro.sim.quasistatic import QuasiStaticSimulator

        storage = Supercapacitor(capacitance=1.0, voltage=3.5)
        sched = EnergyAwareScheduler(node=SensorNode(), storage=storage)
        sim = QuasiStaticSimulator(
            IdealMPPT(), precompute_conditions(am_1815(), constant_bench(1000.0), 1200.0, 10.0),
            storage=storage, load=lambda t: sched.mean_power(t, 10.0), record=False,
        )
        sim.run(1200.0, dt=10.0)
        assert sched.reports_sent > 0

    @pytest.mark.parametrize("dt", [10.0, 20.0, 60.0])
    def test_charges_each_report_once_at_any_step(self, dt):
        # A day on a comfortable store: one report per 30 s min_period,
        # each charged its full energy, whatever the step length.
        node = SensorNode()
        sched = EnergyAwareScheduler(node=node, storage=FakeStore(4.5))
        steps = int(86400.0 / dt)
        energy = sum(sched.mean_power(k * dt, dt) * dt for k in range(steps))
        assert sched.reports_sent == 2880
        expected = 2880 * node.energy_per_report() + node.sleep_power * 86400.0
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_non_positive_step_raises(self):
        sched = EnergyAwareScheduler(node=SensorNode(), storage=FakeStore(4.5))
        with pytest.raises(ModelParameterError):
            sched.mean_power(0.0, 0.0)


class TestNeutrality:
    def test_desk_day_with_light_load_is_neutral(self):
        report = assess_neutrality(
            am_1815(), office_desk_24h(), load_power=lambda t: 20e-6
        )
        assert report.is_neutral
        assert report.harvest_energy_per_day > report.load_energy_per_day

    def test_heavy_load_is_not_neutral(self):
        report = assess_neutrality(
            am_1815(), office_desk_24h(), load_power=lambda t: 5e-3
        )
        assert not report.is_neutral

    def test_heavy_mppt_overhead_kills_the_budget(self):
        # The paper's indoor claim, in budget form: a 2 mW tracker eats
        # far more than the desk cell produces.
        report = assess_neutrality(
            am_1815(), office_desk_24h(), load_power=lambda t: 0.0,
            overhead_power=2e-3,
        )
        assert not report.is_neutral

    def test_overnight_gap_detected(self):
        report = assess_neutrality(
            am_1815(), office_desk_24h(), load_power=lambda t: 20e-6
        )
        # The desk is dark roughly 9 pm - 6 am.
        assert 6 * 3600 < report.longest_gap_seconds <= 14 * 3600
        assert report.storage_needed_joules > 0.0

    def test_constant_light_has_no_gap(self):
        report = assess_neutrality(
            am_1815(), constant_bench(500.0), load_power=lambda t: 20e-6
        )
        assert report.longest_gap_seconds == 0.0
        assert report.storage_needed_joules == 0.0

    def test_supercap_sizing(self):
        report = assess_neutrality(
            am_1815(), office_desk_24h(), load_power=lambda t: 20e-6
        )
        farads = size_supercapacitor(report, v_max=5.0, v_min=2.2)
        usable = 0.5 * farads * (5.0**2 - 2.2**2)
        assert usable == pytest.approx(2.0 * report.storage_needed_joules, rel=1e-9)

    def test_sizing_rejects_bad_window(self):
        report = assess_neutrality(
            am_1815(), constant_bench(500.0), load_power=lambda t: 0.0
        )
        with pytest.raises(ModelParameterError):
            size_supercapacitor(report, v_max=2.0, v_min=3.0)

    def test_rejects_bad_efficiencies(self):
        with pytest.raises(ModelParameterError):
            assess_neutrality(
                am_1815(), constant_bench(100.0), load_power=lambda t: 0.0,
                tracking_efficiency=0.0,
            )
