"""Replayed-vs-scalar equivalence: the chain replay must not change physics.

:class:`~repro.core.system.ReplayedSampleHold` replays a started S&H
chain once and hands the scalar :class:`QuasiStaticSimulator` each
step's decision; the lane keeps its own converter and storage.  Its
contract is that every result matches the scalar walk over the same
precomputed conditions to a-few-ulp tolerance: the replay solves the
loaded sample point in closed form where the scalar controller runs an
MNA solve, and folds the droop bias into one constant.

Covered here: a clean run, a fully-faulted run (hold leakage, converter
brownout, storage short), an open-mode storage fault, checkpoint/resume
mid-run through the engine's own JSON snapshot, lane-order invariance
of :class:`~repro.sim.fleet.FleetSimulator`, steps off the replayed
trace failing loudly, fleet lanes stepping without ever calling the S&H
controller (and journalling as one named fleet run), the closed-form
loaded sample point against the scalar MNA solve, and the Monte Carlo
board kernel against the scalar board walk.
"""

import json

import numpy as np
import pytest

from repro.analysis.montecarlo import run_sample_hold_montecarlo
from repro.core.sample_hold import SampleHoldCircuit
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.config import PlatformConfig
from repro.core.system import ReplayedSampleHold, SampleHoldMPPT, fleet_supported
from repro.env.profiles import ConstantProfile
from repro.errors import ModelParameterError
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    StorageFault,
)
from repro.faults.schedule import FaultSchedule
from repro.pv.batch import batch_loaded_point, stack_model_params
from repro.pv.cells import am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.fleet import FleetSimulator
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import QuasiStaticSimulator
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
# ~3x the worst error measured on the three cases below (4.2e-16).
FLEET_RTOL = 1.5e-15


@pytest.fixture(scope="module")
def conditions():
    cell = am_1815()
    env = ConstantProfile(500.0)
    thermal = CellThermalModel(area_cm2=cell.parameters.area_cm2)
    pc = precompute_conditions(cell, env, DUR, DT, thermal=thermal)
    return cell, env, pc


def _assert_summaries_match(scalar, fleet, rtol=FLEET_RTOL):
    for name in ENERGY_FIELDS:
        a, b = getattr(scalar, name), getattr(fleet, name)
        assert a == pytest.approx(b, rel=rtol, abs=1e-18), (
            f"{name}: scalar {a!r} != fleet {b!r}"
        )


def _build_clean():
    ctl = SampleHoldMPPT(config=PlatformConfig.paper_prototype(), assume_started=True)
    conv = BuckBoostConverter()
    store = Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7)
    return ctl, conv, store


def _build_faulted():
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
    return ctl, conv, store


def _scalar(chain, conditions):
    ctl, conv, store = chain
    cell, env, pc = conditions
    sim = QuasiStaticSimulator(
        cell=cell, environment=env, controller=ctl, converter=conv,
        storage=store, supply_voltage=3.0, record=False, precomputed=pc,
    )
    return sim.run(duration=DUR, dt=DT)


def _replayed(chain, pc):
    """A replayed lane: no cell and no environment, only the trace."""
    ctl, conv, store = chain
    assert fleet_supported(ctl)
    return QuasiStaticSimulator(
        None, ReplayedSampleHold(ctl, pc), None, converter=conv,
        storage=store, supply_voltage=3.0, record=False, precomputed=pc,
    )


def _build_open_mode():
    ctl = SampleHoldMPPT(config=PlatformConfig.paper_prototype(), assume_started=True)
    store = StorageFault(
        Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
        FaultSchedule.periodic(first=1800.0, period=3600.0, width=600.0, count=3),
        mode="open",
    )
    return ctl, BuckBoostConverter(), store


class TestFleetEquivalence:
    def test_clean_run_matches_scalar(self, conditions):
        pc = conditions[2]
        reference = _scalar(_build_clean(), conditions)
        summary = _replayed(_build_clean(), pc).run(duration=DUR, dt=DT)
        _assert_summaries_match(reference, summary)

    def test_faulted_run_matches_scalar(self, conditions):
        pc = conditions[2]
        reference = _scalar(_build_faulted(), conditions)
        summary = _replayed(_build_faulted(), pc).run(duration=DUR, dt=DT)
        _assert_summaries_match(reference, summary)

    def test_open_mode_storage_fault_matches_scalar(self, conditions):
        pc = conditions[2]
        reference = _scalar(_build_open_mode(), conditions)
        summary = _replayed(_build_open_mode(), pc).run(duration=DUR, dt=DT)
        _assert_summaries_match(reference, summary)

    def test_checkpoint_resume_mid_run_matches_scalar(self, conditions):
        """The replayed controller is stateless, so the engine's own
        snapshot (converter, storage, accumulators) is a full resume."""
        pc = conditions[2]
        reference = _scalar(_build_faulted(), conditions)

        sim = _replayed(_build_faulted(), pc)
        half = len(pc) // 2
        sim.run(duration=half * DT, dt=DT)
        snap = json.loads(json.dumps(sim.state_dict()))  # force JSON types
        assert snap["controller"] is None

        resumed = _replayed(_build_faulted(), pc)
        resumed.load_state(snap)
        summary = resumed.run(duration=(len(pc) - half) * DT, dt=DT)
        _assert_summaries_match(reference, summary)

    def test_member_order_invariance(self, conditions):
        """Swapping lane order changes no lane's summary."""
        pc = conditions[2]

        def lanes():
            return [("clean", *_build_clean()), ("faulted", *_build_faulted())]

        forward = FleetSimulator(pc, lanes()).run()
        backward = FleetSimulator(pc, lanes()[::-1]).run()

        assert list(forward) == ["clean", "faulted"]
        for name in forward:
            assert forward[name].__dict__ == backward[name].__dict__


class TestOffTrace:
    """A replayed lane runs only on its trace; leaving it fails loudly."""

    @pytest.fixture
    def short(self):
        return precompute_conditions(am_1815(), ConstantProfile(500.0), 3600.0, DT)

    def test_step_past_the_horizon_raises(self, short):
        sim = _replayed(_build_clean(), short)
        sim.run(duration=3600.0, dt=DT)
        assert sim._step_index == 60
        with pytest.raises(ModelParameterError, match="off the precomputed trace"):
            sim.step(DT)

    def test_misaligned_dt_raises(self, short):
        sim = _replayed(_build_clean(), short)
        with pytest.raises(ModelParameterError, match="dt=30.0"):
            sim.step(DT / 2)

    @pytest.mark.parametrize("step_index", [-3, 10**6, -1])
    def test_off_trace_step_index_raises(self, short, step_index):
        """A snapshot whose step index is outside the horizon cannot step,
        even when its time is that of the step a negative index wraps to."""
        sim = _replayed(_build_clean(), short)
        sim.step(DT)
        state = sim.state_dict()
        state["step_index"] = step_index
        if step_index < 0:
            state["time"] = float(short.times[step_index])
        resumed = _replayed(_build_clean(), short)
        resumed.load_state(state)
        with pytest.raises(ModelParameterError, match="off the precomputed trace"):
            resumed.step(DT)

    def test_corrupted_snapshot_time_raises(self, short):
        sim = _replayed(_build_clean(), short)
        sim.step(DT)
        state = sim.state_dict()
        state["time"] = 61.5
        resumed = _replayed(_build_clean(), short)
        resumed.load_state(state)
        with pytest.raises(ModelParameterError, match="t=61.5"):
            resumed.step(DT)

    def test_controller_checks_the_step_on_a_self_built_trace(self, short):
        """On a trace the engine built at another dt, the controller
        itself refuses a step its replay does not hold."""
        ctl, conv, store = _build_clean()
        sim = QuasiStaticSimulator(
            am_1815(), ReplayedSampleHold(ctl, short), ConstantProfile(500.0),
            converter=conv, storage=store, supply_voltage=3.0, record=False,
        )
        with pytest.raises(ModelParameterError, match="off the trace"):
            sim.run(3600.0, dt=DT / 2)

    def test_unsupported_controller_is_rejected(self, short):
        cold = SampleHoldMPPT(config=PlatformConfig.paper_prototype())
        assert not fleet_supported(cold)
        with pytest.raises(ModelParameterError, match="scalar engine"):
            ReplayedSampleHold(cold, short)


class TestMembersStepOnTheScalarEngine:
    def test_fleet_replays_the_chain_and_journals_as_fleet(self, conditions, monkeypatch):
        """Lanes never call the S&H controller, and their scalar steps
        are journalled as one fleet run naming its lanes, not as scalar
        runs."""
        from repro.obs import journal

        pc = conditions[2]

        def no_decide(self, obs):
            raise AssertionError("fleet lanes replay the S&H chain")

        monkeypatch.setattr(SampleHoldMPPT, "decide", no_decide)
        events = []
        j = journal.RunJournal(path=None)
        j.subscribe(events.append)
        monkeypatch.setattr(journal, "JOURNAL", j)

        fleet = FleetSimulator(pc, [("proposed-S&H-FOCV", *_build_clean())])
        assert (fleet.n, fleet._step_index) == (1, 0)
        summaries = fleet.run()

        assert fleet._step_index == len(pc)
        assert summaries["proposed-S&H-FOCV"].duration == DUR
        runs = [e for e in events if e["event"] == journal.ENGINE_RUN]
        assert [e["engine"] for e in runs] == ["fleet"]
        assert runs[0]["nodes"] == 1
        assert runs[0]["lanes"] == ["proposed-S&H-FOCV"]


class TestLoadedPoint:
    def test_closed_form_matches_scalar_mna_solve(self):
        """The fleet's loaded divider point equals the scalar MNA solve."""
        cell = am_1815()
        sh = SampleHoldCircuit()
        models = [cell.model_at(float(lux)) for lux in np.geomspace(5.0, 50000.0, 25)]
        expected = np.array([sh.loaded_sample_point(m)[0] for m in models])
        r_divider = sh.divider.top.ohms + sh.divider.bottom.ohms
        got = batch_loaded_point(
            stack_model_params(models),
            np.array([m.voc() for m in models]),
            np.full(len(models), r_divider),
        )
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


class TestMonteCarloFleetKernel:
    def test_fleet_population_matches_scalar_boards(self):
        scalar = run_sample_hold_montecarlo(boards=64, engine="scalar")
        fleet = run_sample_hold_montecarlo(boards=64, engine="fleet")
        np.testing.assert_allclose(
            np.asarray(scalar.ratios), np.asarray(fleet.ratios),
            rtol=1e-9, atol=1e-12,
        )

    def test_engine_validated(self):
        with pytest.raises(ModelParameterError):
            run_sample_hold_montecarlo(boards=4, engine="gpu")
        # The fleet pass is the fastest Monte Carlo tier; no compiled alias.
        with pytest.raises(ModelParameterError, match="compiled"):
            run_sample_hold_montecarlo(boards=4, engine="compiled")
