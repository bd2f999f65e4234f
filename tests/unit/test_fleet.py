"""Fleet-vs-scalar equivalence: the vectorized engine must not change physics.

The fleet engine (:mod:`repro.sim.fleet`) exists purely for throughput;
its contract is that every per-node result matches the scalar
:class:`QuasiStaticSimulator` walk over the same precomputed conditions
— bitwise where the scalar path is deterministic NumPy arithmetic, and
to a-few-ulp tolerance on long energy accumulations (the fleet sums the
population axis in a different association order).

Covered here: a clean run, a fully-faulted run (hold leakage, converter
brownout, storage short), an open-mode storage
fault, checkpoint/resume mid-run through a JSON round trip, member-order
invariance, and the Monte Carlo fleet kernel against the scalar board
walk.
"""

import json

import numpy as np
import pytest

from repro.analysis.montecarlo import run_sample_hold_montecarlo
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
        assert fleet_supported(ctl2, conv2, store2)
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
        assert fleet_supported(ctl2, conv2, store2)
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
