"""The fast paths change wall time, not physics.

The precomputed condition trace the simulator consumes is asserted
bit-for-bit against the live per-step path — generically, and for every
(technique, scenario) lane of the comparison with that lane's thermal
model, storage and converter.
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
    live = _make_sim(cell, IdealMPPT(), office_desk_24h())
    pc = precompute_conditions(cell, office_desk_24h(), duration, dt)
    fast = _make_sim(cell, IdealMPPT(), office_desk_24h(), precomputed=pc)
    _summaries_identical(fast.run(duration, dt=dt), live.run(duration, dt=dt))


def test_precomputed_run_with_thermal_is_bitwise_identical():
    # Thermal stepping moves to the precompute — the outdoor scenario's
    # sun-heated temperature trace must come out the same.
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    live = _make_sim(
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
    _summaries_identical(fast.run(duration, dt=dt), live.run(duration, dt=dt))


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
    live = _make_sim(
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
    _summaries_identical(fast.run(duration, dt=dt), live.run(duration, dt=dt))


def test_run_beyond_precomputed_trace_falls_back_to_live_path():
    # The trace covers 30 min; running 60 min must keep going (live path)
    # and match an entirely-live run.
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    pc = precompute_conditions(cell, office_desk_24h(), 0.5 * HOURS, dt)
    fast = _make_sim(cell, IdealMPPT(), office_desk_24h(), precomputed=pc)
    live = _make_sim(cell, IdealMPPT(), office_desk_24h())
    _summaries_identical(fast.run(duration, dt=dt), live.run(duration, dt=dt))


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
