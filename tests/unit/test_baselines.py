"""Unit tests for the baseline MPPT techniques."""

import pytest

from repro.baselines import (
    FixedVoltage,
    HillClimbing,
    IdealMPPT,
    NoMPPT,
    PeriodicFOCV,
    PhotodiodeReference,
    PilotCell,
)
from repro.baselines.bootstrap import bootstrap_decision
from repro.env.scenarios import constant_bench
from repro.errors import ModelParameterError
from repro.pv.cells import am_1815
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import Observation, QuasiStaticSimulator


def observe(lux=1000.0, t=0.0, dt=1.0, storage=3.0, supply=3.0):
    model = am_1815().model_at(lux)
    return Observation(
        time=t, dt=dt, cell_model=model, lux=lux, storage_voltage=storage, supply_voltage=supply
    )


class TestIdealMPPT:
    def test_operates_exactly_at_mpp(self):
        obs = observe()
        decision = IdealMPPT().decide(obs)
        assert decision.operating_voltage == pytest.approx(obs.cell_model.mpp().voltage, rel=1e-6)
        assert decision.overhead_current == 0.0

    def test_dark_idles(self):
        decision = IdealMPPT().decide(observe(lux=0.0))
        assert decision.operating_voltage is None


class TestHillClimbing:
    def test_converges_to_mpp_under_constant_light(self):
        controller = HillClimbing(step_voltage=0.05, update_period=1.0)
        pc = precompute_conditions(am_1815(), constant_bench(1000.0), 300.0, 1.0)
        summary = QuasiStaticSimulator(controller, pc, record=False).run(300.0, dt=1.0)
        # After convergence it oscillates one step around the true MPP.
        mpp = am_1815().mpp(1000.0)
        assert abs(controller._v_op - mpp.voltage) < 3.0 * controller.step_voltage
        assert summary.tracking_efficiency > 0.9

    def test_overhead_is_mcu_class(self):
        controller = HillClimbing()
        assert controller.average_overhead_current() > 100e-6

    def test_brownout_falls_back_to_bootstrap(self):
        decision = HillClimbing().decide(observe(supply=1.0, storage=1.0))
        assert decision.note.startswith("bootstrap")
        assert decision.overhead_current == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ModelParameterError):
            HillClimbing(step_voltage=0.0)


class TestPeriodicFOCV:
    def test_tracks_k_voc(self):
        controller = PeriodicFOCV(k=0.6)
        obs = observe()
        decision = controller.decide(obs)
        assert decision.operating_voltage == pytest.approx(0.6 * obs.cell_model.voc(), rel=1e-6)

    def test_duty_loss_from_sampling(self):
        controller = PeriodicFOCV(sample_period=0.1, sample_duration=5e-3)
        decision = controller.decide(observe())
        assert decision.harvest_duty == pytest.approx(0.95)

    def test_overhead_is_2mw_class(self):
        controller = PeriodicFOCV()
        decision = controller.decide(observe(supply=3.0))
        assert decision.overhead_current * 3.0 == pytest.approx(2e-3, rel=1e-6)

    def test_rejects_sample_longer_than_period(self):
        with pytest.raises(ModelParameterError):
            PeriodicFOCV(sample_period=0.1, sample_duration=0.2)


class TestPilotCell:
    def test_area_cost_shows_as_duty(self):
        controller = PilotCell(pilot_area_fraction=0.1)
        decision = controller.decide(observe())
        assert decision.harvest_duty == pytest.approx(0.9)

    def test_reference_is_continuous_k_voc(self):
        controller = PilotCell(k=0.7)
        obs = observe(lux=3000.0)
        decision = controller.decide(obs)
        assert decision.operating_voltage == pytest.approx(0.7 * obs.cell_model.voc(), rel=1e-6)

    def test_overhead_300uw(self):
        decision = PilotCell().decide(observe(supply=3.0))
        assert decision.overhead_current * 3.0 == pytest.approx(300e-6, rel=1e-6)


class TestPhotodiodeReference:
    def test_exact_at_calibration_intensity(self):
        controller = PhotodiodeReference(calibration_lux=1000.0)
        obs = observe(lux=1000.0)
        decision = controller.decide(obs)
        assert decision.operating_voltage == pytest.approx(
            obs.cell_model.mpp().voltage, rel=0.01
        )

    def test_approximate_away_from_calibration(self):
        controller = PhotodiodeReference(calibration_lux=1000.0)
        controller.decide(observe(lux=1000.0))  # calibrate
        obs = observe(lux=200.0)
        decision = controller.decide(obs)
        true_vmpp = obs.cell_model.mpp().voltage
        assert decision.operating_voltage != pytest.approx(true_vmpp, rel=1e-4)
        assert abs(decision.operating_voltage - true_vmpp) < 0.5

    def test_overhead_500ua(self):
        decision = PhotodiodeReference().decide(observe())
        assert decision.overhead_current == pytest.approx(500e-6)


class TestFixedVoltage:
    def test_holds_setpoint(self):
        controller = FixedVoltage(setpoint=3.1)
        decision = controller.decide(observe())
        assert decision.operating_voltage == 3.1

    def test_idles_when_setpoint_above_voc(self):
        controller = FixedVoltage(setpoint=6.0)
        decision = controller.decide(observe(lux=200.0))
        assert decision.operating_voltage is None
        assert decision.overhead_current > 0.0  # reference IC still burns

    def test_reference_ic_draws_more_than_proposed_chain(self):
        # The paper's punchline: the S&H (7.6 uA) beats even the
        # fixed-voltage technique's reference IC.
        from repro.core.config import PlatformConfig

        assert FixedVoltage().reference_current > PlatformConfig().sampling_chain_current()


class TestNoMPPT:
    def test_operates_at_store_plus_diode(self):
        decision = NoMPPT(diode_drop=0.25).decide(observe(storage=3.0))
        assert decision.operating_voltage == pytest.approx(3.25)

    def test_idles_when_store_above_voc(self):
        decision = NoMPPT().decide(observe(lux=100.0, storage=5.0))
        assert decision.operating_voltage is None

    def test_zero_overhead(self):
        decision = NoMPPT().decide(observe())
        assert decision.overhead_current == 0.0


class TestBootstrap:
    def test_bootstrap_charges_when_possible(self):
        decision = bootstrap_decision(observe(storage=1.0))
        assert decision.operating_voltage == pytest.approx(1.25)
        assert decision.overhead_current == 0.0

    def test_bootstrap_dark(self):
        decision = bootstrap_decision(observe(lux=0.0, storage=1.0))
        assert decision.operating_voltage is None
