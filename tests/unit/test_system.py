"""Unit tests for the full MPPT platform (config, controller, transient)."""

import pytest

from repro.converter.buck_boost import BuckBoostConverter
from repro.core.config import PlatformConfig
from repro.core.platform_transient import TransientPlatform
from repro.core.system import SampleHoldMPPT
from repro.env.scenarios import constant_bench
from repro.errors import ConfigurationError
from repro.pv.cells import am_1815
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import Observation, QuasiStaticSimulator
from repro.sim.transient import TransientSimulator


def _run(controller, lux, duration, dt=1.0, cell=None):
    """Run ``controller`` at constant ``lux`` on ``cell`` (the AM-1815)."""
    cell = cell if cell is not None else am_1815()
    pc = precompute_conditions(cell, constant_bench(lux), duration, dt)
    return QuasiStaticSimulator(controller, pc, record=False).run(duration, dt=dt)


class TestPlatformConfig:
    def test_paper_prototype_timing(self, prototype_config):
        assert prototype_config.astable.t_on == pytest.approx(39e-3)
        assert prototype_config.astable.t_off == pytest.approx(69.0)

    def test_paper_prototype_k_target(self, prototype_config):
        assert prototype_config.k_target == pytest.approx(0.596, abs=0.002)

    def test_chain_current_is_7_6_uA(self, prototype_config):
        assert prototype_config.sampling_chain_current() == pytest.approx(7.6e-6, rel=0.02)

    def test_metrology_current_about_8_uA(self, prototype_config):
        assert prototype_config.metrology_current() == pytest.approx(8.4e-6, rel=0.05)

    def test_sampling_duty_tiny(self, prototype_config):
        assert prototype_config.sampling_duty() < 1e-3

    def test_operating_point_doubles_held(self, prototype_config):
        assert prototype_config.operating_point_from_held(1.6) == pytest.approx(3.2)

    def test_trimmed_for_cell_matches_cell_k(self):
        cell = am_1815()
        config = PlatformConfig.trimmed_for_cell(cell, lux=1000.0)
        assert config.k_target == pytest.approx(cell.mpp(1000.0).k, rel=1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(alpha=0.0)


class TestSampleHoldMPPT:
    def test_samples_on_astable_grid(self):
        controller = SampleHoldMPPT(assume_started=True)
        _run(controller, 1000.0, 3.0 * controller.config.astable.period + 2.0)
        assert controller.sample_count == 4  # t=0 plus three periods

    def test_operating_point_near_design_ratio(self):
        controller = SampleHoldMPPT(assume_started=True)
        _run(controller, 1000.0, 10.0)
        voc = am_1815().voc(1000.0)
        v_op = controller.config.operating_point_from_held(controller.held_sample)
        assert v_op == pytest.approx(0.5955 * voc, rel=0.01)

    def test_trimmed_config_tracks_near_mpp(self):
        cell = am_1815()
        controller = SampleHoldMPPT(
            config=PlatformConfig.trimmed_for_cell(cell, lux=1000.0), assume_started=True
        )
        summary = _run(controller, 1000.0, 300.0, cell=cell)
        assert summary.tracking_efficiency > 0.99

    def test_duty_loss_matches_astable(self):
        controller = SampleHoldMPPT(assume_started=True)
        summary = _run(controller, 1000.0, controller.config.astable.period * 10.0)
        # Duty loss is bounded by the astable duty cycle (~0.056 %).
        assert summary.tracking_efficiency > 0.8

    def test_overhead_current_near_8uA(self):
        controller = SampleHoldMPPT(assume_started=True)
        obs_model = am_1815().model_at(1000.0)
        obs = Observation(
            time=100.0, dt=1.0, cell_model=obs_model, lux=1000.0,
            storage_voltage=3.0, supply_voltage=3.3,
        )
        controller._next_pulse = 1e9  # no sample this step
        decision = controller.decide(obs)
        assert decision.overhead_current == pytest.approx(8.4e-6, rel=0.05)

    def test_cold_start_completes_at_200_lux(self):
        controller = SampleHoldMPPT()  # must cold-start
        _run(controller, 200.0, 10.0, dt=0.5)
        assert controller.powered

    def test_no_cold_start_in_darkness(self):
        controller = SampleHoldMPPT()
        summary = _run(controller, 0.5, 30.0)
        assert not controller.powered
        assert summary.energy_at_cell == 0.0

    def test_active_blocks_harvest_until_valid_sample(self):
        controller = SampleHoldMPPT(assume_started=True)
        model = am_1815().model_at(1000.0)
        controller._next_pulse = 1e9  # never sample -> held stays 0
        obs = Observation(
            time=0.0, dt=1.0, cell_model=model, lux=1000.0,
            storage_voltage=3.0, supply_voltage=3.3,
        )
        decision = controller.decide(obs)
        assert decision.operating_voltage is None
        assert decision.note == "ACTIVE low"

    def test_reset_returns_to_dead(self):
        controller = SampleHoldMPPT()
        _run(controller, 500.0, 5.0, dt=0.5)
        controller.reset()
        assert not controller.powered
        assert controller.sample_count == 0
        assert controller.held_sample == pytest.approx(0.0, abs=2e-3)

    def test_steady_state_helper_is_pure(self):
        controller = SampleHoldMPPT(assume_started=True)
        model = am_1815().model_at(1000.0)
        v1 = controller.steady_state_operating_voltage(model)
        v2 = controller.steady_state_operating_voltage(model)
        assert v1 == pytest.approx(v2)
        assert controller.config.sample_hold.held_voltage == 0.0  # untouched


class TestTransientPlatform:
    def test_warm_start_places_regulation_point(self):
        platform = TransientPlatform(cell=am_1815(), lux=1000.0)
        platform.warm_start(t_to_next_pulse=0.1)
        held = platform.config.sample_hold.held_sample
        assert platform.v_pv == pytest.approx(held / platform.config.alpha, rel=1e-9)

    def test_pulse_fires_on_schedule_after_warm_start(self):
        platform = TransientPlatform(cell=am_1815(), lux=1000.0)
        platform.warm_start(t_to_next_pulse=0.05)
        sim = TransientSimulator(platform, dt=50e-6)
        sim.run(0.2)
        pulse = sim.traces["PULSE"]
        rise = pulse.first_crossing(1.65)
        assert rise == pytest.approx(0.05, abs=0.02)

    def test_sampling_updates_held_to_divided_voc(self):
        platform = TransientPlatform(cell=am_1815(), lux=1000.0)
        platform.warm_start(t_to_next_pulse=0.02)
        sim = TransientSimulator(platform, dt=50e-6)
        sim.run(0.02 + 0.039 + 0.15)
        model = am_1815().model_at(1000.0)
        expected = model.voc() * platform.config.sample_hold.nominal_ratio
        assert sim.traces["HELD_SAMPLE"].final() == pytest.approx(expected, rel=0.01)

    def test_pv_relaxes_toward_voc_during_pulse(self):
        platform = TransientPlatform(cell=am_1815(), lux=1000.0)
        platform.warm_start(t_to_next_pulse=0.02)
        sim = TransientSimulator(platform, dt=50e-6)
        sim.run(0.02 + 0.039 + 0.05)
        model = am_1815().model_at(1000.0)
        assert sim.traces["PV_IN"].maximum() == pytest.approx(model.voc(), rel=0.01)

    def test_self_powered_cold_start(self):
        platform = TransientPlatform(cell=am_1815(), lux=500.0, self_powered=True)
        sim = TransientSimulator(platform, dt=2e-4, record_every=10)
        sim.run(2.0)
        assert platform.config.coldstart.powered
        assert sim.traces["V_C1"].final() > platform.config.coldstart.turn_off_voltage

    def test_signals_exposed(self):
        platform = TransientPlatform(cell=am_1815(), lux=1000.0)
        signals = platform.signals()
        for name in ("PULSE", "PV_IN", "HELD_SAMPLE", "ACTIVE", "V_C1"):
            assert name in signals
