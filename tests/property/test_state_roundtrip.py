"""Property: a state round-trip at an arbitrary step is invisible.

Snapshot any stateful link of the harvesting chain mid-run, push the
snapshot through JSON (what a checkpoint file does), load it into a
freshly constructed twin, and the twin's subsequent trajectory must be
*bitwise* identical to the original's — no drift, no approximation.
This is the property the whole resume subsystem rests on.  The fleet
engine's replayed S&H lanes are held to it too: a clean and a faulted
lane snapshotted at any step resume to the uninterrupted lanes' bits
through the scalar engine's own snapshot.
"""

import functools
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hill_climbing import HillClimbing
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import ReplayedSampleHold, SampleHoldMPPT
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    StorageFault,
)
from repro.faults.schedule import FaultSchedule
from repro.pv.cells import am_1815
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor


def _wavy_office(t: float) -> float:
    """A deterministic, non-trivial light profile (module-level: rebuildable)."""
    return 600.0 + 400.0 * math.sin(t / 700.0) + 150.0 * math.sin(t / 131.0)


ENGINE_TRACE_STEPS = 600


@functools.lru_cache(maxsize=None)
def _engine_conditions(dt: float):
    return precompute_conditions(am_1815(), _wavy_office, ENGINE_TRACE_STEPS * dt, dt)


def _build_sim(dt: float) -> QuasiStaticSimulator:
    return QuasiStaticSimulator(
        am_1815(),
        HillClimbing(),
        _wavy_office,
        storage=Supercapacitor(capacitance=0.05, voltage=2.5),
        load=lambda t: 150e-6,
        record=False,
        precomputed=_engine_conditions(dt),
    )


def _json_round_trip(state: dict) -> dict:
    """What a checkpoint does to the snapshot: serialize, parse back."""
    return json.loads(json.dumps(state))


@settings(max_examples=20, deadline=None)
@given(
    before=st.integers(min_value=1, max_value=300),
    after=st.integers(min_value=1, max_value=300),
    dt=st.sampled_from([1.0, 5.0, 30.0]),
)
def test_engine_roundtrip_is_bitwise_invisible(before, after, dt):
    original = _build_sim(dt)
    for _ in range(before):
        original.step(dt)
    snapshot = _json_round_trip(original.state_dict())

    twin = _build_sim(dt)
    twin.load_state(snapshot)

    for _ in range(after):
        original.step(dt)
        twin.step(dt)

    assert twin.summary.to_dict() == original.summary.to_dict()
    assert twin.time == original.time
    assert twin.storage.voltage == original.storage.voltage
    assert twin.state_dict() == original.state_dict()


@settings(max_examples=20, deadline=None)
@given(
    steps=st.integers(min_value=0, max_value=500),
    dt=st.sampled_from([0.5, 2.0, 10.0]),
)
def test_snapshot_at_any_step_is_json_stable(steps, dt):
    """The snapshot itself survives JSON exactly (floats round-trip)."""
    sim = _build_sim(dt)
    for _ in range(steps):
        sim.step(dt)
    state = sim.state_dict()
    assert _json_round_trip(state) == json.loads(json.dumps(_json_round_trip(state)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.1, max_value=5.0),
    probes=st.lists(
        st.floats(min_value=0.0, max_value=86400.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
)
def test_fault_schedule_roundtrip_preserves_every_query(seed, rate, probes):
    schedule = FaultSchedule.bursts(
        86400.0, rate_per_hour=rate, mean_width=300.0, seed=seed
    )
    clone = FaultSchedule.from_state(_json_round_trip(schedule.state_dict()))
    for t in probes:
        assert clone.active(t) == schedule.active(t)
    assert clone.state_dict() == schedule.state_dict()


FLEET_DURATION = 4 * 3600.0
FLEET_DT = 60.0


@functools.lru_cache(maxsize=1)
def _fleet_conditions():
    return precompute_conditions(am_1815(), _wavy_office, FLEET_DURATION, FLEET_DT)


def _build_replayed() -> "list[QuasiStaticSimulator]":
    """Replayed S&H lanes on the scalar engine: one clean, one under hold
    leakage, brownout and a short."""
    pc = _fleet_conditions()

    def lane(controller, converter, storage):
        return QuasiStaticSimulator(
            None,
            ReplayedSampleHold(controller, pc),
            None,
            converter=converter,
            storage=storage,
            supply_voltage=3.0,
            record=False,
            precomputed=pc,
        )

    clean = lane(
        SampleHoldMPPT(assume_started=True),
        BuckBoostConverter(),
        Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
    )
    faulted = lane(
        HoldLeakageFault(
            SampleHoldMPPT(assume_started=True),
            FaultSchedule.bursts(
                FLEET_DURATION, rate_per_hour=1.0, mean_width=900.0, seed=401
            ),
            droop_multiplier=40.0,
        ),
        ConverterBrownoutFault(
            BuckBoostConverter(),
            FaultSchedule.periodic(first=3600.0, period=7200.0, width=300.0, count=2),
        ),
        StorageFault(
            Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
            FaultSchedule.bursts(
                FLEET_DURATION, rate_per_hour=0.5, mean_width=300.0, seed=307
            ),
            mode="short",
            short_resistance=200.0,
        ),
    )
    return [clean, faulted]


def _step_to(sim: QuasiStaticSimulator, step: int) -> QuasiStaticSimulator:
    while sim._step_index < step:
        sim.step(FLEET_DT)
    return sim


FLEET_STEPS = int(FLEET_DURATION / FLEET_DT)


@functools.lru_cache(maxsize=1)
def _uninterrupted_replayed():
    return [_step_to(sim, FLEET_STEPS).summary.to_dict() for sim in _build_replayed()]


@settings(max_examples=15, deadline=None)
@given(step=st.integers(min_value=0, max_value=FLEET_STEPS))
def test_fleet_roundtrip_is_bitwise_invisible(step):
    original = [_step_to(sim, step) for sim in _build_replayed()]

    resumed = _build_replayed()
    for sim, source in zip(resumed, original):
        sim.load_state(_json_round_trip(source.state_dict()))
        assert sim.time == source.time

    finished = [_step_to(sim, FLEET_STEPS).summary.to_dict() for sim in resumed]
    assert finished == _uninterrupted_replayed()
