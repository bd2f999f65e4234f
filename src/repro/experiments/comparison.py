"""E8 — the state-of-the-art comparison the paper's Sec. I/IV-B argues.

Quiescent draws (from the cited works) and 24-hour net-harvest runs of
every technique under three scenarios:

* office desk (indoor; ~1 mW-class cell output at best),
* semi-mobile (the paper's motivating case: mixed lighting),
* outdoor day (where the power-hungry trackers traditionally live).

Outdoor and semi-mobile runs heat the cell (a sun-loaded module runs
25-30 K over ambient), which is where FOCV earns its keep over the
fixed-voltage state of the art: Voc tracks the -0.34 %/K temperature
slide automatically, a fixed setpoint does not.  Storage is a real
supercapacitor, so the no-MPPT direct connection operates wherever the
store's voltage happens to sit.

The expected shape: indoors the proposed 8 uA S&H is the only *tracking*
technique that nets more than fixed-voltage / no-MPPT; outdoors all
trackers converge near the oracle and the overhead differences wash out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.reporting import format_table
from repro.errors import ModelParameterError
from repro.obs import journal
from repro.obs.tracing import TRACER
from repro.baselines import (
    FixedVoltage,
    HillClimbing,
    IdealMPPT,
    NoMPPT,
    PeriodicFOCV,
    PhotodiodeReference,
    PilotCell,
)
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import SampleHoldMPPT
from repro.core.config import PlatformConfig
from repro.env.profiles import HOURS
from repro.env.scenarios import office_desk_24h, outdoor_day, semi_mobile_24h
from repro.pv.cells import PVCell, am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.engines import EXPERIMENT_ENGINES, resolve_engine
from repro.sim.precompute import _cell_area_cm2, precompute_conditions
from repro.sim.quasistatic import HarvestSummary, QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor

QUIESCENT_CLAIMS = [
    ("proposed-S&H-FOCV", "8 uA @3.3 V", 8.4e-6 * 3.3),
    ("fixed-voltage [8]", "reference IC ~12 uA", 12e-6 * 3.3),
    ("pilot-cell [5]", "~300 uW when off", 300e-6),
    ("photodiode [6]", "~500 uA", 500e-6 * 3.3),
    ("periodic-uC-FOCV [4]", "2 mW overall", 2e-3),
    ("no-MPPT [7]", "none", 0.0),
]
"""(technique, paper's quoted consumption, watts) for the overhead table."""


def default_controllers(cell: PVCell | None = None) -> Dict[str, Callable[[], object]]:
    """Fresh-controller factories, one per technique under comparison.

    Args:
        cell: the cell under test; needed by the trimmed variant (the
            paper's R2 potentiometer trimmed to the cell's k) and to
            design the fixed-voltage setpoint (its indoor MPP).
    """
    cell = cell if cell is not None else am_1815()
    indoor_vmpp = cell.mpp(500.0).voltage

    def trimmed() -> SampleHoldMPPT:
        return SampleHoldMPPT(
            config=PlatformConfig.trimmed_for_cell(cell),
            assume_started=True,
            name="proposed-S&H-trimmed",
        )

    return {
        "ideal-oracle": IdealMPPT,
        "proposed-S&H-FOCV": lambda: SampleHoldMPPT(assume_started=True),
        "proposed-S&H-trimmed": trimmed,
        "hill-climbing": HillClimbing,
        "periodic-uC-FOCV": PeriodicFOCV,
        "pilot-cell": PilotCell,
        "photodiode-ref": PhotodiodeReference,
        "fixed-voltage": lambda: FixedVoltage(setpoint=indoor_vmpp),
        "no-MPPT-direct": NoMPPT,
    }


def default_scenarios() -> Dict[str, Callable[[], object]]:
    """Scenario factories for the three 24-hour environments."""
    return {
        "office-desk": office_desk_24h,
        "semi-mobile": semi_mobile_24h,
        "outdoor": outdoor_day,
    }


@dataclass
class ComparisonCell:
    """One (technique, scenario) outcome.

    Attributes:
        technique: controller label.
        scenario: environment label.
        summary: the run's harvest accounting.
    """

    technique: str
    scenario: str
    summary: HarvestSummary


@dataclass(frozen=True)
class _ScenarioSpec:
    """Description of one scenario's batch of runs."""

    cell: PVCell
    scenario: str
    techniques: "tuple[str, ...]"
    duration: float
    dt: float
    use_storage: bool
    use_thermal: bool
    engine: str = "scalar"
    shading: "str | None" = None


def parse_shading_spec(spec_str: str) -> "tuple[str, dict]":
    """Split a shading spec string into (registry name, kwargs).

    Specs are either a bare :data:`~repro.env.shading.SHADOW_MAPS` name
    (``"edge-sweep"``) or a name with constructor overrides
    (``"edge-sweep:depth=0.5,period=1e9"``).  Values parse as int when
    they look integral, float otherwise — matching the numeric knobs
    every registered map takes.  The string form keeps specs picklable
    and CLI-friendly.
    """
    name, _, tail = spec_str.partition(":")
    kwargs: dict = {}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ModelParameterError(
                    f"bad shading spec item {item!r} in {spec_str!r}; "
                    "expected name:key=value,key=value"
                )
            try:
                kwargs[key.strip()] = int(raw)
            except ValueError:
                try:
                    kwargs[key.strip()] = float(raw)
                except ValueError:
                    raise ModelParameterError(
                        f"shading spec value {raw!r} in {spec_str!r} is not numeric"
                    ) from None
    return name, kwargs


def _build_shading(spec: _ScenarioSpec):
    """Rebuild the spec's shadow map (spec string -> instance)."""
    if spec.shading is None:
        return None
    from repro.env.shading import build_shadow_map

    n_cells = getattr(spec.cell, "n_cells", None)
    if n_cells is None:
        raise ModelParameterError(
            "shading requires a string-style cell (CellString); "
            f"got {type(spec.cell).__name__}"
        )
    name, kwargs = parse_shading_spec(spec.shading)
    return build_shadow_map(name, int(n_cells), **kwargs)


def _fresh_storage(spec: _ScenarioSpec):
    return (
        Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7)
        if spec.use_storage
        else None
    )


def _run_scalar_lane(spec, cell, scenario_factory, controller, precomputed):
    """One technique through the scalar reference engine."""
    sim = QuasiStaticSimulator(
        cell,
        controller,
        scenario_factory(),
        converter=BuckBoostConverter(),
        storage=_fresh_storage(spec),
        supply_voltage=3.0,
        record=False,
        precomputed=precomputed,
    )
    return sim.run(spec.duration, dt=spec.dt)


def _run_scenario(spec: _ScenarioSpec) -> List[ComparisonCell]:
    """Run every requested technique through one scenario.

    The scenario's condition chain — lux trace, thermal trace, per-step
    models and their Voc/MPP solves — is identical for every technique,
    so it is computed once and shared; each controller then replays it
    against its own storage/converter state.

    Engine tiers: ``scalar`` steps each lane through
    :class:`QuasiStaticSimulator`; ``compiled`` fuses each lane into
    :func:`repro.sim.compiled.run_comparison_scenario`'s kernel (lanes
    the compiled tier declines fall back to the scalar engine over the
    same precomputed conditions, which the compiled tier always builds).
    """
    cell = spec.cell
    controller_factories = default_controllers(cell)
    scenario_factory = default_scenarios()[spec.scenario]

    if spec.engine == "compiled":
        return _run_scenario_compiled(spec, cell, controller_factories, scenario_factory)

    thermal = (
        CellThermalModel(area_cm2=_cell_area_cm2(cell)) if spec.use_thermal else None
    )
    precomputed = precompute_conditions(
        cell,
        scenario_factory(),
        spec.duration,
        spec.dt,
        thermal=thermal,
        shading=_build_shading(spec),
    )

    results: List[ComparisonCell] = []
    with TRACER.span(f"scenario:{spec.scenario}"):
        for technique_name in spec.techniques:
            controller = controller_factories[technique_name]()
            summary = _run_scalar_lane(spec, cell, scenario_factory, controller, precomputed)
            results.append(
                ComparisonCell(technique=technique_name, scenario=spec.scenario, summary=summary)
            )
    return results


def _run_scenario_compiled(spec, cell, controller_factories, scenario_factory):
    """Compiled tier: every lane through the fused kernel, scalar fallback."""
    from repro.sim.compiled import run_comparison_scenario

    lanes = [
        (name, controller_factories[name](), BuckBoostConverter(), _fresh_storage(spec))
        for name in spec.techniques
    ]
    results: List[ComparisonCell] = []
    with TRACER.span(f"scenario:{spec.scenario}"):
        compiled_out, precomputed = run_comparison_scenario(
            cell,
            spec.scenario,
            scenario_factory,
            lanes,
            spec.duration,
            spec.dt,
            use_thermal=spec.use_thermal,
            supply_voltage=3.0,
            shading=_build_shading(spec),
            shading_name=spec.shading,
        )
        for technique_name in spec.techniques:
            summary = compiled_out.get(technique_name)
            if summary is None:
                controller = controller_factories[technique_name]()
                summary = _run_scalar_lane(spec, cell, scenario_factory, controller, precomputed)
            results.append(
                ComparisonCell(technique=technique_name, scenario=spec.scenario, summary=summary)
            )
    return results


def run_comparison(
    cell: PVCell | None = None,
    duration: float = 24.0 * HOURS,
    dt: float = 5.0,
    techniques: Sequence[str] | None = None,
    scenarios: Sequence[str] | None = None,
    use_storage: bool = True,
    use_thermal: bool = True,
    engine: str = "scalar",
    shading: str | None = None,
) -> List[ComparisonCell]:
    """Run every technique through every scenario.

    Args:
        cell: the harvesting cell (paper: AM-1815).
        duration: simulated span per run, seconds.
        dt: quasi-static step, seconds.
        techniques: subset of technique names (default: all).
        scenarios: subset of scenario names (default: all).
        use_storage: charge a real supercapacitor (vs an ideal 3 V sink).
        use_thermal: let sunlight heat the cell (the fixed-voltage
            technique's weak spot).
        engine: ``"scalar"`` (the bitwise reference — golden traces
            encode its bits), ``"compiled"`` (fused lane kernels over a
            validated power LUT — fastest, matches scalar within the
            table's declared error budget), or ``"auto"``.
        shading: optional :data:`~repro.env.shading.SHADOW_MAPS` name
            driving per-cell factors; requires ``cell`` to be a
            :class:`~repro.pv.string.CellString`.
    """
    engine = resolve_engine(engine, EXPERIMENT_ENGINES["comparison"], context="comparison")
    cell = cell if cell is not None else am_1815()
    controller_factories = default_controllers(cell)
    scenario_factories = default_scenarios()
    selected_techniques = list(techniques) if techniques is not None else list(controller_factories)
    selected_scenarios = list(scenarios) if scenarios is not None else list(scenario_factories)

    specs = [
        _ScenarioSpec(
            cell=cell,
            scenario=scenario_name,
            techniques=tuple(selected_techniques),
            duration=duration,
            dt=dt,
            use_storage=use_storage,
            use_thermal=use_thermal,
            engine=engine,
            shading=shading,
        )
        for scenario_name in selected_scenarios
    ]
    steps_per_run = int(round(duration / dt))
    spec_summary = {
        "experiment": "comparison",
        "scenarios": list(selected_scenarios),
        "techniques": list(selected_techniques),
        "duration": duration,
        "dt": dt,
        "engine": engine,
        "shading": shading,
    }
    total_steps = steps_per_run * len(selected_scenarios) * len(selected_techniques)
    with TRACER.trace("comparison"), journal.run_scope(
        "comparison", spec=spec_summary, total_steps=total_steps
    ) as scope:
        batch_steps = steps_per_run * len(selected_techniques)
        results: List[ComparisonCell] = []
        for spec in specs:
            results.extend(_run_scenario(spec))
            scope.advance(batch_steps)
    return results


def net_energy_by_scenario(results: Sequence[ComparisonCell]) -> Dict[str, Dict[str, float]]:
    """``{scenario: {technique: net_energy_joules}}`` pivot of the results."""
    pivot: Dict[str, Dict[str, float]] = {}
    for r in results:
        pivot.setdefault(r.scenario, {})[r.technique] = r.summary.net_energy
    return pivot


def render_quiescent() -> str:
    """The overhead table the paper's introduction builds its case on."""
    rows = [
        [name, claim, f"{watts * 1e6:.1f}"]
        for name, claim, watts in sorted(QUIESCENT_CLAIMS, key=lambda x: x[2])
    ]
    return format_table(
        ["technique", "paper's quoted consumption", "model (uW)"],
        rows,
        title="State-of-the-art MPPT overhead (papers [4][5][6][8] vs proposed)",
        align_right=False,
    )


def render(results: Sequence[ComparisonCell]) -> str:
    """Printable comparison: net harvested energy and efficiency ratios."""
    scenarios: List[str] = []
    for r in results:
        if r.scenario not in scenarios:
            scenarios.append(r.scenario)
    blocks = []
    for scenario in scenarios:
        rows = []
        members = [r for r in results if r.scenario == scenario]
        members.sort(key=lambda r: r.summary.net_energy, reverse=True)
        for r in members:
            s = r.summary
            rows.append(
                [
                    r.technique,
                    f"{s.net_energy:.3f}",
                    f"{s.energy_delivered:.3f}",
                    f"{s.energy_overhead:.3f}",
                    f"{s.tracking_efficiency * 100:.1f}",
                    f"{s.net_harvest_ratio * 100:.1f}",
                ]
            )
        blocks.append(
            format_table(
                ["technique", "net(J)", "delivered(J)", "overhead(J)", "track.eff(%)", "net/ideal(%)"],
                rows,
                title=f"24 h comparison — scenario '{scenario}'",
            )
        )
    return "\n\n".join(blocks)
