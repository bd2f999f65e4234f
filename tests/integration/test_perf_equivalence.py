"""The fast paths change wall time, not physics.

A run over an explicitly precomputed (shared) condition trace is
asserted bit-for-bit against a run that builds its own trace from the
simulator's environment, source and thermal model — generically, and
for every (technique, scenario) lane of the comparison with that lane's
thermal model, storage and converter.  That pins the wiring of
``run()``'s self-built trace to what the comparison shares.
"""

import pytest

from repro.baselines import IdealMPPT
from repro.converter.buck_boost import BuckBoostConverter
from repro.env.profiles import HOURS
from repro.env.scenarios import office_desk_24h, outdoor_day
from repro.errors import ModelParameterError
from repro.experiments.comparison import default_controllers, default_scenarios
from repro.pv.cells import am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor


def _summaries_identical(a, b):
    assert a.__dict__ == b.__dict__, (
        f"fast-path summary deviates from reference:\n{a.__dict__}\nvs\n{b.__dict__}"
    )


def _make_sim(cell, controller, environment, **kwargs):
    return QuasiStaticSimulator(
        cell,
        controller,
        environment,
        converter=BuckBoostConverter(),
        storage=Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
        supply_voltage=3.0,
        record=False,
        **kwargs,
    )


def test_precomputed_run_is_bitwise_identical():
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    self_built = _make_sim(cell, IdealMPPT(), office_desk_24h())
    pc = precompute_conditions(cell, office_desk_24h(), duration, dt)
    fast = _make_sim(cell, IdealMPPT(), office_desk_24h(), precomputed=pc)
    _summaries_identical(fast.run(duration, dt=dt), self_built.run(duration, dt=dt))


def test_precomputed_run_with_thermal_is_bitwise_identical():
    # The simulator's own thermal model drives its self-built trace — the
    # outdoor scenario's sun-heated temperature trace must come out the same.
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    self_built = _make_sim(
        cell,
        IdealMPPT(),
        outdoor_day(),
        thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
    )
    pc = precompute_conditions(
        cell,
        outdoor_day(),
        duration,
        dt,
        thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
    )
    fast = _make_sim(cell, IdealMPPT(), outdoor_day(), precomputed=pc)
    _summaries_identical(fast.run(duration, dt=dt), self_built.run(duration, dt=dt))


def test_precomputed_and_thermal_are_mutually_exclusive():
    cell = am_1815()
    pc = precompute_conditions(cell, office_desk_24h(), 60.0, 10.0)
    with pytest.raises(ModelParameterError):
        QuasiStaticSimulator(
            cell,
            IdealMPPT(),
            office_desk_24h(),
            thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
            precomputed=pc,
        )


@pytest.mark.parametrize("scenario", list(default_scenarios()))
@pytest.mark.parametrize("technique", list(default_controllers()))
def test_comparison_lane_precomputed_is_bitwise_identical(technique, scenario):
    duration, dt = 0.5 * HOURS, 10.0
    cell = am_1815()
    controller = default_controllers(cell)[technique]
    environment = default_scenarios()[scenario]
    self_built = _make_sim(
        cell,
        controller(),
        environment(),
        thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
    )
    pc = precompute_conditions(
        cell,
        environment(),
        duration,
        dt,
        thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
    )
    fast = _make_sim(cell, controller(), environment(), precomputed=pc)
    _summaries_identical(fast.run(duration, dt=dt), self_built.run(duration, dt=dt))


def test_run_beyond_precomputed_trace_raises():
    # The trace covers 30 min; the step past it has no conditions to read.
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    pc = precompute_conditions(cell, office_desk_24h(), 0.5 * HOURS, dt)
    fast = _make_sim(cell, IdealMPPT(), office_desk_24h(), precomputed=pc)
    with pytest.raises(ModelParameterError, match="t=1800.0 s, dt=10.0 s is off the precomputed"):
        fast.run(duration, dt=dt)
    assert fast._step_index == len(pc)


@pytest.mark.parametrize("geometry", ["plain-cell", "edge-sweep-4s"])
def test_precomputed_solve_arrays_match_model_memos(geometry):
    """The per-condition arrays the precompute publishes are the batch
    solve's values: each equals its unique model's memoised solve."""
    from repro.env.shading import build_shadow_map
    from repro.pv.string import CellString

    if geometry == "plain-cell":
        cell, shading = am_1815(), None
    else:
        cell = CellString(am_1815(), 4, mismatch=(1.0, 0.9, 1.05, 0.85))
        shading = build_shadow_map("edge-sweep", 4)
    pc = precompute_conditions(cell, office_desk_24h(), 24.0 * HOURS, 600.0, shading=shading)
    assert len(pc.voc) == len(pc.v_mpp) == len(pc.p_mpp) == pc.unique_conditions
    assert (pc.p_mpp > 0.0).any()
    for k, model in enumerate(pc.unique):
        mpp = model.mpp()
        assert pc.voc[k] == model.voc()
        assert pc.v_mpp[k] == mpp.voltage
        assert pc.p_mpp[k] == mpp.power


def test_compiled_comparison_searches_only_ideal_key_claimants():
    """A compiled comparison runs the exact-MPP search only for the first
    claimant of each lit ideal key; a scalar run over the same trace then
    solves every other lit condition in one more batch pass, and the
    arrays and memos equal one whole-trace solve bit for bit."""
    import dataclasses

    import numpy as np

    import repro.obs as obs
    from repro.pv.batch import solve_models
    from repro.sim.compiled import clear_program_cache, run_comparison_scenario

    cell = am_1815()
    lanes = [
        (
            "ideal-oracle",
            IdealMPPT(),
            BuckBoostConverter(),
            Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
        )
    ]
    clear_program_cache()
    obs.enable()
    obs.reset()
    try:
        solved = obs.REGISTRY.counter("solver.batch_conditions")
        _, pc = run_comparison_scenario(
            cell, "office-desk", office_desk_24h, lanes, 24.0 * HOURS, 300.0
        )
        lit = pc.claimant >= 0
        first = pc.claimant == np.arange(pc.unique_conditions)
        assert 0 < solved.value == int(first.sum()) < pc.unique_conditions
        assert np.array_equal(pc.deferred, lit & ~first) and pc.deferred.any()
        for k in np.nonzero(pc.deferred)[0].tolist():
            assert "_mpp_memo" not in vars(pc.unique[k])

        QuasiStaticSimulator(cell, IdealMPPT(), None, record=False, precomputed=pc)
        assert solved.value == int(lit.sum())
    finally:
        obs.disable()
        obs.reset()
        clear_program_cache()

    for k, model in enumerate(pc.unique):
        mpp = model.mpp()
        assert pc.v_mpp[k] == mpp.voltage
        assert pc.p_mpp[k] == mpp.power
    whole = solve_models([dataclasses.replace(m) for m in pc.unique], memoize=False)
    assert np.array_equal(pc.v_mpp, whole.v_mpp)
    assert np.array_equal(pc.p_mpp, whole.p_mpp)
    assert np.array_equal(pc.voc, whole.voc)


def test_concurrent_simulators_solve_the_deferred_conditions_once():
    """Service threads share cached traces: simulators starting on one
    trace at once solve its deferred conditions in a single pass."""
    import sys
    import threading

    import repro.obs as obs

    cell = am_1815()
    pc = precompute_conditions(
        cell,
        office_desk_24h(),
        24.0 * HOURS,
        600.0,
        thermal=CellThermalModel(area_cm2=cell.parameters.area_cm2),
    )
    assert pc.deferred.any()
    interval = sys.getswitchinterval()
    obs.enable()
    obs.reset()
    sys.setswitchinterval(1e-6)
    try:
        solved = obs.REGISTRY.counter("solver.batch_conditions")
        threads = [
            threading.Thread(
                target=QuasiStaticSimulator,
                args=(cell, IdealMPPT(), None),
                kwargs={"record": False, "precomputed": pc},
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert solved.value == int(pc.deferred.sum())
    finally:
        sys.setswitchinterval(interval)
        obs.disable()
        obs.reset()
