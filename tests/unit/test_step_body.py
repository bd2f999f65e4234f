"""The scalar engine's shared step body and the arithmetic it inlines.

:meth:`QuasiStaticSimulator.step`, :meth:`QuasiStaticSimulator.run`
(with observability off and on) and the fleet lanes all step one body;
here they must agree to the bit on a fully-faulted lane, and an observed
run must report one technique span and exact step and energy counters.  The step body's
rewritten helpers are pinned against transcriptions of the formulas
they replace: :meth:`Supercapacitor.exchange` with its ESR loss and
stored energy inlined, and the memoised :meth:`_current_at_scalar`.
The immutable controller records and the step-averaged duty-cycled
load are covered too.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs import export
from repro.baselines.hill_climbing import HillClimbing
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import ReplayedSampleHold, SampleHoldMPPT
from repro.errors import ModelParameterError
from repro.faults.components import ConverterBrownoutFault, StorageFault
from repro.faults.schedule import FaultSchedule
from repro.node import SensorNode
from repro.node.loads import DutyCycledLoad, NodeState
from repro.pv.cells import am_1815
from repro.pv.single_diode import SingleDiodeModel, _lambertw_of_exp_scalar
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import ControlDecision, Observation, QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor

DT = 60.0
STEPS = 360


def _light(t: float) -> float:
    return 500.0 + 400.0 * math.sin(t / 1700.0)


@pytest.fixture(scope="module")
def conditions():
    return precompute_conditions(am_1815(), _light, STEPS * DT, DT)


def _lane(pc, mode: str) -> QuasiStaticSimulator:
    """Converter brownout, a storage fault and a duty-cycled load."""
    load = SensorNode(report_period=90.0).load()
    return QuasiStaticSimulator(
        HillClimbing(),
        pc,
        converter=ConverterBrownoutFault(
            BuckBoostConverter(), FaultSchedule.from_windows([(1800.0, 5400.0)])
        ),
        storage=StorageFault(
            Supercapacitor(capacitance=0.5, rated_voltage=5.0, voltage=2.5),
            FaultSchedule.from_windows([(7200.0, 9000.0), (14400.0, 16200.0)]),
            mode=mode,
            short_resistance=200.0,
        ),
        load=lambda t: load.mean_power(t, DT),
        record=False,
    )


class TestSharedStepBody:
    @pytest.mark.parametrize("mode", ["open", "short"])
    def test_run_step_and_observed_run_agree_bitwise(self, conditions, mode):
        ran = _lane(conditions, mode)
        ran.run(STEPS * DT, DT)

        stepped = _lane(conditions, mode)
        for _ in range(STEPS):
            stepped.step(DT)

        observed = _lane(conditions, mode)
        try:
            obs.enable()
            observed.run(STEPS * DT, DT)
        finally:
            obs.disable()
            obs.reset()

        assert ran.summary == stepped.summary == observed.summary
        assert ran.storage.voltage == stepped.storage.voltage == observed.storage.voltage
        assert ran.summary.final_storage_voltage == ran.storage.voltage
        assert ran.summary.energy_load > 0.0

    def test_chunked_observed_run_reports_one_span_and_exact_counters(self, conditions):
        sim = _lane(conditions, "open")
        name = sim.controller.name
        half = STEPS // 2
        try:
            obs.reset()
            obs.enable()
            sim.run(half * DT, DT)
            first = sim.summary.energy_delivered, sim.summary.energy_overhead
            after_first = export.counters_dict()
            sim.run((STEPS - half) * DT, DT)
            counters = export.counters_dict()
            span = obs.TRACER.root.children[f"technique:{name}"]
        finally:
            obs.disable()
            obs.reset()

        assert span.count == 2
        assert span.children == {}
        assert counters[f"sim.steps{{technique={name}}}"] == STEPS
        delivered, overhead = sim.summary.energy_delivered, sim.summary.energy_overhead
        assert after_first[f"sim.energy_delivered_j{{technique={name}}}"] == first[0]
        assert after_first[f"sim.energy_overhead_j{{technique={name}}}"] == first[1]
        assert counters[f"sim.energy_delivered_j{{technique={name}}}"] == first[0] + (
            delivered - first[0]
        )
        assert counters[f"sim.energy_overhead_j{{technique={name}}}"] == first[1] + (
            overhead - first[1]
        )

    def test_step_result_reports_the_summary_voltage(self, conditions):
        sim = _lane(conditions, "short")
        for _ in range(STEPS):
            result = sim.step(DT)
            assert result.storage_voltage == sim.summary.final_storage_voltage
            assert result.storage_voltage == sim.storage.voltage

    def test_replayed_sample_hold_raises_off_its_trace(self, conditions):
        ctl = ReplayedSampleHold(SampleHoldMPPT(assume_started=True), conditions)
        model = conditions.models[0]
        on = Observation(DT, DT, model, 500.0, 3.0, 3.0)
        assert isinstance(ctl.decide(on), ControlDecision)
        for time, dt in ((DT + 1.0, DT), (STEPS * DT, DT), (DT, DT / 2)):
            with pytest.raises(ModelParameterError, match="off the trace"):
                ctl.decide(Observation(time, dt, model, 500.0, 3.0, 3.0))


def _reference_exchange(cap: Supercapacitor, power: float, dt: float) -> float:
    """The store's exchange before its helpers were inlined."""

    def stored_energy():
        return 0.5 * cap.capacitance * cap.voltage * cap.voltage

    def esr_loss():
        if cap.voltage <= 1e-9:
            return 0.0
        current = abs(power) / cap.voltage
        return min(current * current * cap.esr, abs(power))

    loss = esr_loss()
    leak = cap.leakage_current * cap.voltage
    full = 0.5 * cap.capacitance * cap.rated_voltage * cap.rated_voltage
    if power >= 0.0:
        requested = power
        stored_delta = max(0.0, power - loss) - leak
        energy = max(0.0, stored_energy() + stored_delta * dt)
        if energy > full:
            fitted = full - stored_energy()
            if stored_delta > 0.0:
                requested = power * fitted / (stored_delta * dt)
            energy = full
        cap.voltage = math.sqrt(2.0 * energy / cap.capacitance)
        return requested
    drawn_internal = (-power + loss + leak) * dt
    available = stored_energy()
    if drawn_internal <= available:
        energy = available - drawn_internal
        requested = power
    else:
        energy = 0.0
        fraction = available / drawn_internal if drawn_internal > 0.0 else 0.0
        requested = power * fraction
    cap.voltage = math.sqrt(2.0 * energy / cap.capacitance)
    return requested


class TestSupercapacitorExchange:
    @settings(max_examples=300, deadline=None)
    @given(
        capacitance=st.floats(1e-3, 50.0),
        rated=st.floats(1.0, 6.0),
        esr=st.floats(0.0, 50.0),
        leakage=st.floats(0.0, 1e-3),
        fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        power=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        dt=st.floats(1e-3, 3600.0),
    )
    # charge, clamp at full, discharge, run empty, and a store at v <= 1e-9
    @example(capacitance=1.0, rated=5.0, esr=0.5, leakage=1e-6, fraction=0.5, power=1e-3, dt=60.0)
    @example(capacitance=0.1, rated=5.0, esr=0.5, leakage=1e-6, fraction=0.99, power=1.0, dt=60.0)
    @example(capacitance=1.0, rated=5.0, esr=0.5, leakage=1e-6, fraction=0.5, power=-1e-3, dt=60.0)
    @example(capacitance=0.01, rated=5.0, esr=0.5, leakage=1e-6, fraction=0.1, power=-1.0, dt=600.0)
    @example(capacitance=1.0, rated=5.0, esr=0.5, leakage=1e-6, fraction=1e-11, power=-1e-3, dt=60.0)
    @example(capacitance=1.0, rated=5.0, esr=0.5, leakage=1e-6, fraction=1e-11, power=1e-3, dt=60.0)
    def test_matches_the_reference_transcription(
        self, capacitance, rated, esr, leakage, fraction, power, dt
    ):
        def store():
            return Supercapacitor(
                capacitance=capacitance,
                rated_voltage=rated,
                esr=esr,
                leakage_current=leakage,
                voltage=fraction * rated,
            )

        cap, ref = store(), store()
        assert cap.exchange(power, dt) == _reference_exchange(ref, power, dt)
        assert cap.voltage == ref.voltage


def _reference_current(model: SingleDiodeModel, v: float) -> float:
    """The unmemoised scalar current formula."""
    a = model.modified_ideality
    iph, i0 = model.photocurrent, model.saturation_current
    rs, rsh = model.series_resistance, model.shunt_resistance
    if rs < 1e-9:
        shunt = v / rsh if math.isfinite(rsh) else 0.0
        return iph - i0 * math.expm1(min(v / a, 700.0)) - shunt
    if not math.isfinite(rsh):
        log_theta = math.log(i0 * rs / a) + (v + rs * (iph + i0)) / a
        return iph + i0 - (a / rs) * _lambertw_of_exp_scalar(log_theta)
    rt = rs + rsh
    log_theta = math.log(rs * rsh * i0 / (a * rt)) + rsh * (rs * (iph + i0) + v) / (a * rt)
    return (rsh * (iph + i0) - v) / rt - (a / rs) * _lambertw_of_exp_scalar(log_theta)


class TestMemoisedCurrent:
    @pytest.mark.parametrize(
        "model",
        [
            am_1815().model_at(300.0),
            am_1815().model_at(100_000.0),
            SingleDiodeModel(1e-3, 1e-9, 1.5, 8, 2.0, float("inf")),
            SingleDiodeModel(1e-3, 1e-9, 1.5, 8, 0.0, 5e4),
            SingleDiodeModel(1e-3, 1e-9, 1.5, 8, 1e-12, float("inf")),
        ],
        ids=["finite-rsh", "outdoor", "infinite-rsh", "rs-zero", "rs-below-1e-9"],
    )
    def test_matches_the_unmemoised_formula(self, model):
        for v in np.linspace(-0.5, 1.2 * model.voc(), 97).tolist():
            first = model._current_at_scalar(v)
            assert first == _reference_current(model, v)
            assert model._current_at_scalar(v) == first
            assert type(first) is float


class TestImmutableRecords:
    def test_fields_and_defaults(self):
        decision = ControlDecision(1.2)
        assert decision.operating_voltage == 1.2
        assert (decision.harvest_duty, decision.overhead_current, decision.note) == (1.0, 0.0, "")
        assert ControlDecision(None, 0.0, 2e-6, note="dark").note == "dark"

    def test_reject_attribute_assignment(self, am1815):
        decision = ControlDecision(1.2, 0.5, 1e-6)
        observation = Observation(0.0, 1.0, am1815.model_at(300.0), 300.0, 3.0, 3.0)
        for record, name in ((decision, "harvest_duty"), (observation, "lux")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
            with pytest.raises(AttributeError):
                record.extra = 1.0

    @pytest.mark.parametrize("duty", [-0.1, 1.5, float("nan")])
    def test_duty_outside_unit_interval_raises(self, duty):
        with pytest.raises(ModelParameterError, match="harvest_duty"):
            ControlDecision(1.0, harvest_duty=duty)

    def test_negative_overhead_raises(self):
        with pytest.raises(ModelParameterError, match="overhead_current"):
            ControlDecision(1.0, overhead_current=-1e-9)

    def test_replace_validates(self):
        decision = ControlDecision(1.0, 0.5)
        assert decision._replace(harvest_duty=0.25) == ControlDecision(1.0, 0.25)
        with pytest.raises(ModelParameterError, match="harvest_duty"):
            decision._replace(harvest_duty=2.0)


class TestMeanPower:
    @pytest.fixture
    def load(self):
        return DutyCycledLoad(
            period=10.0,
            phases=[(NodeState.SENSE, 0.5, 1e-3), (NodeState.TRANSMIT, 0.25, 2e-2)],
            sleep_power=1e-6,
        )

    def test_within_one_phase(self, load):
        assert load.mean_power(3.0, 2.0) == pytest.approx(1e-6, rel=1e-12)
        assert load.mean_power(20.1, 0.3) == pytest.approx(1e-3, rel=1e-12)

    def test_across_a_period_boundary(self, load):
        expected = (0.5 * 1e-6 + 0.5 * 1e-3) / 1.0
        assert load.mean_power(9.5, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_whole_periods_give_the_average(self, load):
        assert load.mean_power(0.0, 10.0) == pytest.approx(load.average_power(), rel=1e-12)
        assert load.mean_power(7.3, 30.0) == pytest.approx(load.average_power(), rel=1e-12)

    def test_steps_integrate_to_the_daily_energy(self):
        load = SensorNode(report_period=90.0).load()
        dt = 5.0
        energy = sum(load.mean_power(k * dt, dt) * dt for k in range(int(86400.0 / dt)))
        assert energy == pytest.approx(load.average_power() * 86400.0, rel=1e-9)

    def test_matches_fine_sampling(self, load):
        t, dt = 13.6, 7.9
        grid = t + (np.arange(79_000) + 0.5) * (dt / 79_000)
        sampled = np.mean([load.power(x) for x in grid.tolist()])
        assert load.mean_power(t, dt) == pytest.approx(sampled, rel=1e-4)

    def test_non_positive_step_raises(self, load):
        with pytest.raises(ModelParameterError, match="dt"):
            load.mean_power(0.0, 0.0)
