"""Fleet-vs-scalar equivalence: the chain replay must not change physics.

The fleet engine (:mod:`repro.sim.fleet`) replays each member's S&H
chain once and steps the member on the scalar
:class:`QuasiStaticSimulator` with its own converter and storage.  Its
contract is that every per-node result matches the scalar walk over the
same precomputed conditions to a-few-ulp tolerance: the replay solves
the loaded sample point in closed form where the scalar controller runs
an MNA solve, and folds the droop bias into one constant.

Covered here: a clean run, a fully-faulted run (hold leakage, converter
brownout, storage short), an open-mode storage
fault, checkpoint/resume mid-run through a JSON round trip, member-order
invariance, checkpoint validation, members stepping without ever calling
the S&H controller (and journalling as one fleet run), the closed-form
loaded sample point against the scalar MNA solve, and the Monte Carlo
fleet kernel against the scalar board walk.
"""

import json

import numpy as np
import pytest

from repro.analysis.montecarlo import run_sample_hold_montecarlo
from repro.core.sample_hold import SampleHoldCircuit
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.config import PlatformConfig
from repro.core.system import SampleHoldMPPT
from repro.env.profiles import ConstantProfile
from repro.errors import ModelParameterError, StateFormatError
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    StorageFault,
)
from repro.faults.schedule import FaultSchedule
from repro.pv.batch import batch_loaded_point, stack_model_params
from repro.pv.cells import am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.fleet import FleetMember, FleetSimulator, fleet_supported
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


@pytest.fixture(scope="module")
def conditions():
    cell = am_1815()
    env = ConstantProfile(500.0)
    thermal = CellThermalModel(area_cm2=cell.parameters.area_cm2)
    pc = precompute_conditions(cell, env, DUR, DT, thermal=thermal)
    return cell, env, pc


def _assert_summaries_match(scalar, fleet, rtol=1e-12):
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


class TestFleetEquivalence:
    def test_clean_run_matches_scalar(self, conditions):
        cell, env, pc = conditions
        ctl, conv, store = _build_clean()
        sim = QuasiStaticSimulator(
            cell=cell, environment=env, controller=ctl, converter=conv,
            storage=store, supply_voltage=3.0, record=False, precomputed=pc,
        )
        sim.run(duration=DUR, dt=DT)

        ctl2, conv2, store2 = _build_clean()
        assert fleet_supported(ctl2)
        fleet = FleetSimulator(
            [FleetMember(controller=ctl2, precomputed=pc, converter=conv2,
                         storage=store2, supply_voltage=3.0)]
        )
        summary = fleet.run()[0]
        _assert_summaries_match(sim.summary, summary)

    def test_faulted_run_matches_scalar(self, conditions):
        cell, env, pc = conditions
        ctl, conv, store = _build_faulted()
        sim = QuasiStaticSimulator(
            cell=cell, environment=env, controller=ctl, converter=conv,
            storage=store, supply_voltage=3.0, record=False, precomputed=pc,
        )
        sim.run(duration=DUR, dt=DT)

        ctl2, conv2, store2 = _build_faulted()
        assert fleet_supported(ctl2)
        fleet = FleetSimulator(
            [FleetMember(controller=ctl2, precomputed=pc, converter=conv2,
                         storage=store2, supply_voltage=3.0)]
        )
        summary = fleet.run()[0]
        _assert_summaries_match(sim.summary, summary)

    def test_open_mode_storage_fault_matches_scalar(self, conditions):
        cell, env, pc = conditions

        def build():
            ctl = SampleHoldMPPT(
                config=PlatformConfig.paper_prototype(), assume_started=True
            )
            store = StorageFault(
                Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
                FaultSchedule.periodic(first=1800.0, period=3600.0, width=600.0, count=3),
                mode="open",
            )
            return ctl, BuckBoostConverter(), store

        ctl, conv, store = build()
        sim = QuasiStaticSimulator(
            cell=cell, environment=env, controller=ctl, converter=conv,
            storage=store, supply_voltage=3.0, record=False, precomputed=pc,
        )
        sim.run(duration=DUR, dt=DT)

        ctl2, conv2, store2 = build()
        fleet = FleetSimulator(
            [FleetMember(controller=ctl2, precomputed=pc, converter=conv2,
                         storage=store2, supply_voltage=3.0)]
        )
        _assert_summaries_match(sim.summary, fleet.run()[0])

    def test_checkpoint_resume_mid_run_matches_scalar(self, conditions):
        cell, env, pc = conditions
        ctl, conv, store = _build_faulted()
        sim = QuasiStaticSimulator(
            cell=cell, environment=env, controller=ctl, converter=conv,
            storage=store, supply_voltage=3.0, record=False, precomputed=pc,
        )
        sim.run(duration=DUR, dt=DT)

        ctl2, conv2, store2 = _build_faulted()
        fleet = FleetSimulator(
            [FleetMember(controller=ctl2, precomputed=pc, converter=conv2,
                         storage=store2, supply_voltage=3.0)]
        )
        for _ in range(fleet.steps // 2):
            fleet.step()
        snap = json.loads(json.dumps(fleet.state_dict()))  # force JSON types

        ctl3, conv3, store3 = _build_faulted()
        resumed = FleetSimulator(
            [FleetMember(controller=ctl3, precomputed=pc, converter=conv3,
                         storage=store3, supply_voltage=3.0)]
        )
        resumed.load_state(snap)
        summary = resumed.run()[0]
        _assert_summaries_match(sim.summary, summary)

    def test_member_order_invariance(self, conditions):
        """Swapping member order swaps summaries and changes nothing else."""
        cell, env, pc = conditions

        def members():
            ctl_a, conv_a, store_a = _build_clean()
            ctl_b, conv_b, store_b = _build_faulted()
            return (
                FleetMember(controller=ctl_a, precomputed=pc, converter=conv_a,
                            storage=store_a, supply_voltage=3.0),
                FleetMember(controller=ctl_b, precomputed=pc, converter=conv_b,
                            storage=store_b, supply_voltage=3.0),
            )

        a, b = members()
        forward = FleetSimulator([a, b]).run()
        a2, b2 = members()
        backward = FleetSimulator([b2, a2]).run()

        for lhs, rhs in zip(forward, reversed(backward)):
            assert lhs.__dict__ == rhs.__dict__

    def test_load_state_rejects_wrong_population(self, conditions):
        cell, env, pc = conditions
        ctl, conv, store = _build_clean()
        fleet = FleetSimulator(
            [FleetMember(controller=ctl, precomputed=pc, converter=conv,
                         storage=store, supply_voltage=3.0)]
        )
        state = fleet.state_dict()
        state["n"] = 3
        ctl2, conv2, store2 = _build_clean()
        fresh = FleetSimulator(
            [FleetMember(controller=ctl2, precomputed=pc, converter=conv2,
                         storage=store2, supply_voltage=3.0)]
        )
        with pytest.raises(StateFormatError):
            fresh.load_state(state)


    @pytest.mark.parametrize("step_index", [-3, 10**6])
    def test_load_state_rejects_step_index_outside_horizon(self, step_index):
        cell = am_1815()
        pc = precompute_conditions(cell, ConstantProfile(500.0), 3600.0, DT)
        ctl, conv, store = _build_clean()
        fleet = FleetSimulator(
            [FleetMember(controller=ctl, precomputed=pc, converter=conv,
                         storage=store, supply_voltage=3.0)]
        )
        assert fleet.steps == 60
        state = fleet.state_dict()
        state["step_index"] = step_index
        with pytest.raises(StateFormatError, match="step_index"):
            fleet.load_state(state)
        assert fleet._step_index == 0


class TestMembersStepOnTheScalarEngine:
    def test_fleet_replays_the_chain_and_journals_as_fleet(self, conditions, monkeypatch):
        """Members never call the S&H controller, and their scalar steps
        are journalled as one fleet run, not as scalar runs."""
        from repro.obs import journal

        cell, env, pc = conditions

        def no_decide(self, obs):
            raise AssertionError("fleet members replay the S&H chain")

        monkeypatch.setattr(SampleHoldMPPT, "decide", no_decide)
        events = []
        j = journal.RunJournal(path=None)
        j.subscribe(events.append)
        monkeypatch.setattr(journal, "JOURNAL", j)

        ctl, conv, store = _build_clean()
        fleet = FleetSimulator(
            [FleetMember(controller=ctl, precomputed=pc, converter=conv,
                         storage=store, supply_voltage=3.0)]
        )
        (summary,) = fleet.run()

        assert summary.duration == DUR
        runs = [e for e in events if e["event"] == journal.ENGINE_RUN]
        assert [e["engine"] for e in runs] == ["fleet"]
        assert runs[0]["nodes"] == 1


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
