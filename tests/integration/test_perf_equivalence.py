"""The fast paths change wall time, not physics.

Two layers are asserted bit-for-bit against the original per-step
path: the precomputed condition trace consumed by the simulator, and
the precompute+batch path inside ``run_comparison``.
"""

import pytest

from repro.baselines import IdealMPPT
from repro.converter.buck_boost import BuckBoostConverter
from repro.env.profiles import HOURS
from repro.env.scenarios import office_desk_24h, outdoor_day
from repro.errors import ModelParameterError
from repro.experiments.comparison import run_comparison
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


def test_run_comparison_fast_path_is_bitwise_identical():
    kwargs = dict(duration=0.5 * HOURS, dt=10.0)
    fast = run_comparison(precompute=True, **kwargs)
    slow = run_comparison(precompute=False, **kwargs)
    assert len(fast) == len(slow) == 27
    for f, s in zip(fast, slow):
        assert (f.technique, f.scenario) == (s.technique, s.scenario)
        _summaries_identical(f.summary, s.summary)


def test_run_beyond_precomputed_trace_falls_back_to_live_path():
    # The trace covers 30 min; running 60 min must keep going (live path)
    # and match an entirely-live run.
    duration, dt = 1.0 * HOURS, 10.0
    cell = am_1815()
    pc = precompute_conditions(cell, office_desk_24h(), 0.5 * HOURS, dt)
    fast = _make_sim(cell, IdealMPPT(), office_desk_24h(), precomputed=pc)
    live = _make_sim(cell, IdealMPPT(), office_desk_24h())
    _summaries_identical(fast.run(duration, dt=dt), live.run(duration, dt=dt))
