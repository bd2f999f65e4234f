"""E16 — robustness of the nine techniques under injected faults.

The comparison (E8) always feeds every technique clean, well-behaved
light.  Real deployments are not that kind: indoor lighting is bursty
and intermittent, converters brown out, storage develops parasitic
paths, sample-and-hold capacitors leak.  This harness re-runs the
nine-technique comparison under deterministic fault campaigns from
:mod:`repro.faults` and reports three degradation metrics:

* **energy retention** — net harvested energy under fault as a fraction
  of the clean run (and the absolute energy lost);
* **recovery time** — how long each technique needs after a light
  dropout to return to 90 % of its pre-fault harvest power;
* **cold-start success rate** — whether the paper's platform still cold
  starts when the light flickers instead of holding steady.

Everything is seeded: the same ``seed`` reproduces the same fault
windows, the same runs and the same report, so robustness regressions
are testable.  The ``clean`` campaign is a straight pass-through of the
E8 comparison path.  On ``engine="scalar"`` it reproduces the golden
traces in ``tests/golden/`` bit-for-bit.  On the default ``fleet``
engine every lane but the replayed S&H ones still does; those match at
the fleet tier's declared few-ulp tolerance (bitwise on strings).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.ckpt.checkpoint import check_spec_match, load_checkpoint, save_checkpoint
from repro.ckpt.drain import check_drain
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.system import SampleHoldMPPT, fleet_supported
from repro.env.profiles import HOURS, ConstantProfile, LightProfile
from repro.errors import FaultConfigError, ModelParameterError
from repro.experiments.comparison import (
    _build_shading,
    default_controllers,
    default_scenarios,
)
from repro.faults.components import (
    ConverterBrownoutFault,
    HoldLeakageFault,
    SetpointDriftFault,
    StorageFault,
)
from repro.faults.light import FlickerBurstFault, IrradianceRampFault, LightDropoutFault
from repro.faults.schedule import FaultSchedule
from repro.obs import journal
from repro.pv.cells import PVCell, am_1815
from repro.pv.thermal import CellThermalModel
from repro.sim.engines import EXPERIMENT_ENGINES, resolve_engine
from repro.sim.fleet import FleetSimulator
from repro.sim.precompute import _cell_area_cm2, precompute_conditions
from repro.sim.quasistatic import HarvestSummary, QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor


class FaultPlan:
    """How one named campaign perturbs the harvesting chain.

    Attributes:
        name: campaign label.
        description: one-line summary for reports.
        environment: wrapper applied to the scenario's light profile.
        controller: wrapper applied to each fresh controller.
        converter: wrapper applied to the converter.
        storage: wrapper applied to the energy store.
    """

    def __init__(
        self,
        name: str,
        description: str,
        environment: Optional[Callable[[LightProfile], LightProfile]] = None,
        controller: Optional[Callable[[object], object]] = None,
        converter: Optional[Callable[[object], object]] = None,
        storage: Optional[Callable[[object], object]] = None,
    ):
        self.name = name
        self.description = description
        self._environment = environment
        self._controller = controller
        self._converter = converter
        self._storage = storage

    def wrap_environment(self, profile: LightProfile) -> LightProfile:
        return self._environment(profile) if self._environment else profile

    def wrap_controller(self, controller):
        return self._controller(controller) if self._controller else controller

    def wrap_converter(self, converter):
        return self._converter(converter) if self._converter else converter

    def wrap_storage(self, storage):
        return self._storage(storage) if self._storage else storage


# --- the builtin campaign suite ----------------------------------------------------


def _plan_clean(seed: int, duration: float) -> FaultPlan:
    return FaultPlan("clean", "no faults injected (reference run)")


def _plan_light_dropout(seed: int, duration: float) -> FaultPlan:
    schedule = FaultSchedule.bursts(
        duration, rate_per_hour=1.5, mean_width=240.0, seed=seed + 101
    )
    return FaultPlan(
        "light-dropout",
        "Poisson light dropouts, ~1.5/h, mean 4 min, total darkness",
        environment=lambda p: LightDropoutFault(p, schedule, residual=0.0),
    )


def _plan_flicker_burst(seed: int, duration: float) -> FaultPlan:
    schedule = FaultSchedule.bursts(
        duration, rate_per_hour=2.0, mean_width=600.0, seed=seed + 211
    )
    return FaultPlan(
        "flicker-burst",
        "flicker bursts, ~2/h, mean 10 min, 2 s chop to darkness",
        environment=lambda p: FlickerBurstFault(
            p, schedule, chop_period=2.0, depth=0.0, duty=0.5
        ),
    )


def _plan_irradiance_ramp(seed: int, duration: float) -> FaultPlan:
    return FaultPlan(
        "irradiance-ramp",
        "slow attenuation ramp to 35 % between hours 8 and 16 (dust/fog)",
        environment=lambda p: IrradianceRampFault(
            p, start=8.0 * HOURS, end=16.0 * HOURS, factor=0.35
        ),
    )


def _plan_converter_brownout(seed: int, duration: float) -> FaultPlan:
    count = max(1, int(duration // (2.0 * HOURS)))
    schedule = FaultSchedule.periodic(
        first=1.0 * HOURS, period=2.0 * HOURS, width=300.0, count=count
    )
    return FaultPlan(
        "converter-brownout",
        "converter browns out for 5 min every 2 h",
        converter=lambda c: ConverterBrownoutFault(c, schedule),
    )


def _plan_storage_short(seed: int, duration: float) -> FaultPlan:
    schedule = FaultSchedule.bursts(
        duration, rate_per_hour=0.5, mean_width=300.0, seed=seed + 307
    )
    return FaultPlan(
        "storage-short",
        "200 ohm parasitic path across the store, ~0.5/h, mean 5 min",
        storage=lambda s: StorageFault(s, schedule, mode="short", short_resistance=200.0),
    )


def _plan_component_drift(seed: int, duration: float) -> FaultPlan:
    schedule = FaultSchedule.bursts(
        duration, rate_per_hour=1.0, mean_width=900.0, seed=seed + 401
    )

    def wrap(controller):
        config = getattr(controller, "config", None)
        if config is not None and hasattr(config, "sample_hold"):
            return HoldLeakageFault(controller, schedule, droop_multiplier=40.0)
        return SetpointDriftFault(controller, schedule, offset_volts=0.12)

    return FaultPlan(
        "component-drift",
        "S&H hold-cap leakage spikes (40x droop) / 120 mV setpoint offset bursts",
        controller=wrap,
    )


CAMPAIGNS: Dict[str, Callable[[int, float], FaultPlan]] = {
    "clean": _plan_clean,
    "light-dropout": _plan_light_dropout,
    "flicker-burst": _plan_flicker_burst,
    "irradiance-ramp": _plan_irradiance_ramp,
    "converter-brownout": _plan_converter_brownout,
    "storage-short": _plan_storage_short,
    "component-drift": _plan_component_drift,
}
"""Builders for the builtin fault campaigns, keyed by name."""


def build_plan(name: str, seed: int, duration: float) -> FaultPlan:
    """Construct a named campaign's :class:`FaultPlan` for one run."""
    builder = CAMPAIGNS.get(name)
    if builder is None:
        raise FaultConfigError(
            f"unknown fault campaign {name!r}; available: {sorted(CAMPAIGNS)}"
        )
    return builder(seed, duration)


# --- the faulted comparison --------------------------------------------------------


@dataclass
class ResilienceCell:
    """One (campaign, technique, scenario) outcome."""

    campaign: str
    technique: str
    scenario: str
    summary: HarvestSummary

    def to_dict(self) -> dict:
        """Serialise for checkpoints (exact float round-trip via JSON)."""
        return {
            "campaign": self.campaign,
            "technique": self.technique,
            "scenario": self.scenario,
            "summary": self.summary.to_dict(),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "ResilienceCell":
        """Rebuild a cell serialised by :meth:`to_dict`."""
        return cls(
            campaign=state["campaign"],
            technique=state["technique"],
            scenario=state["scenario"],
            summary=HarvestSummary.from_dict(state["summary"]),
        )


@dataclass(frozen=True)
class _CampaignSpec:
    """One campaign x scenario batch."""

    cell: PVCell
    campaign: str
    scenario: str
    techniques: "tuple[str, ...]"
    duration: float
    dt: float
    seed: int
    engine: str = "scalar"
    shading: "str | None" = None


def _run_campaign_scenario(spec: _CampaignSpec) -> List[ResilienceCell]:
    """Run every technique through one scenario under one campaign.

    Mirrors :func:`repro.experiments.comparison._run_scenario` — same
    cell, storage, converter and thermal settings — with the campaign's
    wrappers laid over the chain.  Light faults are pure functions of
    time, so the precomputed trace is the *faulted* trace; component
    faults are stateful wrappers ticked by the engine each step.
    """
    plan = build_plan(spec.campaign, spec.seed, spec.duration)
    cell = spec.cell
    controller_factories = default_controllers(cell)
    scenario_factory = default_scenarios()[spec.scenario]

    environment = plan.wrap_environment(scenario_factory())
    thermal = CellThermalModel(area_cm2=_cell_area_cm2(cell))
    precomputed = precompute_conditions(
        cell,
        environment,
        spec.duration,
        spec.dt,
        thermal=thermal,
        shading=_build_shading(spec),
    )

    chains = []
    for technique_name in spec.techniques:
        controller = plan.wrap_controller(controller_factories[technique_name]())
        converter = plan.wrap_converter(BuckBoostConverter())
        storage = plan.wrap_storage(
            Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7)
        )
        chains.append((technique_name, controller, converter, storage))

    summaries: Dict[str, HarvestSummary] = {}
    if spec.engine == "fleet":
        replayed = [chain for chain in chains if fleet_supported(chain[1])]
        if replayed:
            summaries = FleetSimulator(precomputed, replayed, supply_voltage=3.0).run()

    for technique_name, controller, converter, storage in chains:
        if technique_name in summaries:
            continue
        sim = QuasiStaticSimulator(
            cell,
            controller,
            environment,
            converter=converter,
            storage=storage,
            supply_voltage=3.0,
            record=False,
            precomputed=precomputed,
        )
        summaries[technique_name] = sim.run(spec.duration, dt=spec.dt)

    return [
        ResilienceCell(
            campaign=spec.campaign,
            technique=technique_name,
            scenario=spec.scenario,
            summary=summaries[technique_name],
        )
        for technique_name in spec.techniques
    ]


# --- recovery after a dropout ------------------------------------------------------


@dataclass
class RecoveryResult:
    """How one technique rides through a 10-minute blackout.

    Attributes:
        technique: controller label.
        baseline_power: mean pre-fault harvest power, watts.
        recovery_time: seconds after light restoration until harvest
            power first reaches 90 % of baseline; NaN if it never does
            within the observation window.
    """

    technique: str
    baseline_power: float
    recovery_time: float

    @property
    def recovered(self) -> bool:
        """Whether the technique returned to 90 % of baseline."""
        return self.recovery_time == self.recovery_time

    def to_dict(self) -> dict:
        """Serialise for checkpoints."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "RecoveryResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        return cls(**state)


def measure_recovery(
    techniques: Sequence[str],
    cell: PVCell | None = None,
    lux: float = 500.0,
    dropout_start: float = 1800.0,
    dropout_width: float = 600.0,
    observe: float = 1800.0,
    dt: float = 5.0,
    threshold: float = 0.9,
) -> List[RecoveryResult]:
    """Blackout-and-recover test: steady light, one total dropout.

    Args:
        techniques: technique names from the comparison set.
        cell: harvesting cell (paper's AM-1815 by default).
        lux: steady illuminance outside the dropout.
        dropout_start: blackout start, seconds.
        dropout_width: blackout length, seconds.
        observe: post-restoration observation window, seconds.
        dt: quasi-static step, seconds.
        threshold: recovered when harvest power reaches this fraction
            of the pre-fault mean.
    """
    cell = cell if cell is not None else am_1815()
    factories = default_controllers(cell)
    schedule = FaultSchedule.from_windows(
        [(dropout_start, dropout_start + dropout_width)]
    )
    restored = dropout_start + dropout_width
    duration = restored + observe

    results: List[RecoveryResult] = []
    for technique in techniques:
        environment = LightDropoutFault(ConstantProfile(lux), schedule)
        sim = QuasiStaticSimulator(
            cell,
            factories[technique](),
            environment,
            converter=BuckBoostConverter(),
            storage=Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
            supply_voltage=3.0,
            record=True,
        )
        sim.run(duration, dt=dt)
        p_pv = sim.traces["p_pv"]
        settled = p_pv.window(dropout_start / 2.0, dropout_start)
        baseline = float(np.mean(settled.values)) if len(settled) else 0.0
        after = p_pv.window(restored, duration)
        recovery = float("nan")
        if baseline > 0.0 and len(after):
            hit = np.nonzero(after.values >= threshold * baseline)[0]
            if len(hit):
                recovery = float(after.times[hit[0]] - restored)
        results.append(
            RecoveryResult(
                technique=technique, baseline_power=baseline, recovery_time=recovery
            )
        )
    return results


# --- cold start under flicker ------------------------------------------------------


@dataclass
class ColdStartStats:
    """Cold-start campaign outcome under flickering light.

    Attributes:
        lux: nominal illuminance of the attempts.
        attempts: number of seeded flicker patterns tried.
        successes: attempts whose metrology woke within the budget.
        budget: per-attempt time budget, seconds.
        mean_start_time: mean wake time of the successful attempts,
            seconds (NaN when none succeeded).
    """

    lux: float
    attempts: int
    successes: int
    budget: float
    mean_start_time: float

    @property
    def success_rate(self) -> float:
        """Fraction of attempts that cold-started."""
        return self.successes / self.attempts if self.attempts else 0.0

    def to_dict(self) -> dict:
        """Serialise for checkpoints."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "ColdStartStats":
        """Rebuild stats serialised by :meth:`to_dict`."""
        return cls(**state)


def coldstart_under_flicker(
    cell: PVCell | None = None,
    lux: float = 10.0,
    attempts: int = 8,
    budget: float = 30.0,
    dt: float = 0.25,
    seed: int = 0,
) -> ColdStartStats:
    """Cold-start the full platform repeatedly under seeded flicker.

    Each attempt chops the nominal light with its own seeded duty and
    period (drawn once per attempt), then runs the quasi-static cold
    start from a dead store; success means the metrology woke within
    the budget.  Deterministic in ``seed``.

    The defaults sit deliberately at the margin: ~10 lux is where the
    C1 charge time stretches to the same order as the budget, so the
    seeded duty/phase of the flicker decides each attempt — a change in
    the cold-start chain moves the success rate instead of saturating
    at 100 %.
    """
    cell = cell if cell is not None else am_1815()
    successes = 0
    start_times: List[float] = []
    for k in range(attempts):
        rng = np.random.default_rng(seed * 1009 + k)
        chop_period = float(rng.uniform(2.0, 12.0))
        duty = float(rng.uniform(0.2, 0.7))
        environment = FlickerBurstFault(
            ConstantProfile(lux),
            FaultSchedule.from_windows([(0.0, budget)]),
            chop_period=chop_period,
            depth=0.0,
            duty=duty,
        )
        controller = SampleHoldMPPT(assume_started=False)
        sim = QuasiStaticSimulator(
            cell,
            controller,
            environment,
            converter=BuckBoostConverter(),
            storage=Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=0.0),
            record=False,
            precomputed=precompute_conditions(cell, environment, budget, dt),
        )
        woke_at = float("nan")
        for _ in range(len(sim.precomputed)):
            sim.step(dt)
            if controller.powered:
                woke_at = sim.time
                break
        if woke_at == woke_at:
            successes += 1
            start_times.append(woke_at)
    mean_start = float(np.mean(start_times)) if start_times else float("nan")
    return ColdStartStats(
        lux=lux,
        attempts=attempts,
        successes=successes,
        budget=budget,
        mean_start_time=mean_start,
    )


# --- the full harness --------------------------------------------------------------


@dataclass
class ResilienceReport:
    """Everything one resilience run produced.

    Attributes:
        seed: campaign seed.
        duration: simulated span per run, seconds.
        dt: quasi-static step, seconds.
        campaigns: campaign names in run order ("clean" first).
        cells: every (campaign, technique, scenario) outcome.
        recovery: blackout-recovery results (empty if skipped).
        coldstart: flicker cold-start stats (None if skipped).
    """

    seed: int
    duration: float
    dt: float
    campaigns: List[str] = field(default_factory=list)
    cells: List[ResilienceCell] = field(default_factory=list)
    recovery: List[RecoveryResult] = field(default_factory=list)
    coldstart: Optional[ColdStartStats] = None

    def net_energy(self, campaign: str, scenario: str, technique: str) -> float:
        """Net harvested energy of one run, joules."""
        for cell in self.cells:
            if (cell.campaign, cell.scenario, cell.technique) == (
                campaign,
                scenario,
                technique,
            ):
                return cell.summary.net_energy
        raise FaultConfigError(
            f"no run for campaign={campaign!r} scenario={scenario!r} technique={technique!r}"
        )

    def retention(self, campaign: str, scenario: str, technique: str) -> float:
        """Net energy under fault as a fraction of the clean run.

        NaN when the clean run netted nothing (retention undefined).
        """
        clean = self.net_energy("clean", scenario, technique)
        if clean <= 0.0:
            return float("nan")
        return self.net_energy(campaign, scenario, technique) / clean

    def energy_lost(self, campaign: str, scenario: str, technique: str) -> float:
        """Net energy the campaign cost versus the clean run, joules."""
        return self.net_energy("clean", scenario, technique) - self.net_energy(
            campaign, scenario, technique
        )


def run_resilience(
    cell: PVCell | None = None,
    duration: float = 24.0 * HOURS,
    dt: float = 60.0,
    techniques: Sequence[str] | None = None,
    scenarios: Sequence[str] | None = None,
    campaigns: Sequence[str] | None = None,
    seed: int = 0,
    include_recovery: bool = True,
    include_coldstart: bool = True,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
    engine: str = "fleet",
    shading: str | None = None,
) -> ResilienceReport:
    """Run the comparison under every requested fault campaign.

    Args:
        cell: the harvesting cell (paper: AM-1815).
        duration: simulated span per run, seconds.
        dt: quasi-static step, seconds.
        techniques: subset of technique names (default: all nine).
        scenarios: subset of scenario names (default: all three).
        campaigns: subset of campaign names; "clean" is always included
            (it is the degradation reference).  Default: the full
            builtin suite.
        seed: campaign seed — fault windows, flicker patterns and hence
            the whole report are a pure function of it.
        include_recovery: run the blackout-recovery probe.
        include_coldstart: run the flicker cold-start campaign.
        checkpoint_path: where to write crash-recovery checkpoints; the
            checkpoint is rewritten (atomically) after each completed
            (campaign, scenario) batch, and a pending drain stops the
            run at that batch boundary.
        resume_from: checkpoint to resume; completed batches are reused
            verbatim (each batch is deterministic in the spec, so the
            report is identical to an uninterrupted run).
        engine: ``"fleet"`` (default) replays the chain of every
            fleet-supported technique of a batch once
            (:class:`~repro.core.system.ReplayedSampleHold`) and steps
            those lanes on the scalar engine through
            :class:`repro.sim.fleet.FleetSimulator`; unsupported
            techniques take the scalar walk.  ``"scalar"`` forces the
            per-technique :class:`QuasiStaticSimulator` path
            (bit-identical to the E8 comparison on the clean campaign).
            ``"auto"`` resolves to ``"fleet"``.
        shading: optional :data:`~repro.env.shading.SHADOW_MAPS` name
            laid over every campaign (requires a
            :class:`~repro.pv.string.CellString`) — "does the technique
            survive faults *and* partial shading at once".
    """
    engine = resolve_engine(engine, EXPERIMENT_ENGINES["resilience"], context="resilience")
    cell = cell if cell is not None else am_1815()
    selected_techniques = (
        list(techniques) if techniques is not None else list(default_controllers(cell))
    )
    selected_scenarios = (
        list(scenarios) if scenarios is not None else list(default_scenarios())
    )
    selected_campaigns = list(campaigns) if campaigns is not None else list(CAMPAIGNS)
    for name in selected_campaigns:
        if name not in CAMPAIGNS:
            raise FaultConfigError(
                f"unknown fault campaign {name!r}; available: {sorted(CAMPAIGNS)}"
            )
    if "clean" not in selected_campaigns:
        selected_campaigns.insert(0, "clean")
    else:
        selected_campaigns.remove("clean")
        selected_campaigns.insert(0, "clean")

    specs = [
        _CampaignSpec(
            cell=cell,
            campaign=campaign,
            scenario=scenario,
            techniques=tuple(selected_techniques),
            duration=duration,
            dt=dt,
            seed=seed,
            engine=engine,
            shading=shading,
        )
        for campaign in selected_campaigns
        for scenario in selected_scenarios
    ]

    run_spec = {
        "experiment": "resilience",
        "cell": getattr(cell, "name", type(cell).__name__),
        "duration": duration,
        "dt": dt,
        "techniques": list(selected_techniques),
        "scenarios": list(selected_scenarios),
        "campaigns": list(selected_campaigns),
        "seed": seed,
        "include_recovery": include_recovery,
        "include_coldstart": include_coldstart,
        "engine": engine,
    }
    # Older checkpoints predate the shading axis; only spec it when used.
    if shading is not None:
        run_spec["shading"] = shading
    done: Dict[str, List[ResilienceCell]] = {}
    cached_recovery: Optional[List[RecoveryResult]] = None
    cached_coldstart: Optional[ColdStartStats] = None
    if resume_from is not None:
        envelope = load_checkpoint(resume_from, kind="resilience")
        check_spec_match(envelope, run_spec, resume_from)
        state = envelope["state"]
        done = {
            key: [ResilienceCell.from_dict(c) for c in cells]
            for key, cells in state["batches"].items()
        }
        if state.get("recovery") is not None:
            cached_recovery = [RecoveryResult.from_dict(r) for r in state["recovery"]]
        if state.get("coldstart") is not None:
            cached_coldstart = ColdStartStats.from_dict(state["coldstart"])

    def batch_key(spec: _CampaignSpec) -> str:
        return f"{spec.campaign}|{spec.scenario}"

    def save_progress() -> None:
        if checkpoint_path is None:
            return
        save_checkpoint(
            checkpoint_path,
            kind="resilience",
            state={
                "batches": {
                    key: [c.to_dict() for c in cells] for key, cells in done.items()
                },
                "recovery": (
                    [r.to_dict() for r in cached_recovery]
                    if cached_recovery is not None
                    else None
                ),
                "coldstart": (
                    cached_coldstart.to_dict() if cached_coldstart is not None else None
                ),
            },
            spec=run_spec,
            meta={"batches_done": len(done), "batches_total": len(specs)},
        )

    pending = [spec for spec in specs if batch_key(spec) not in done]
    batch_steps = int(round(duration / dt)) * len(selected_techniques)
    with journal.run_scope(
        "resilience",
        spec=run_spec,
        total_steps=batch_steps * len(specs),
        resumed_steps=batch_steps * (len(specs) - len(pending)),
    ) as scope:
        current_campaign: Optional[str] = None
        for spec in pending:
            if spec.campaign != current_campaign:
                if current_campaign is not None:
                    scope.campaign_end(current_campaign)
                current_campaign = spec.campaign
                scope.campaign_start(current_campaign, seed=seed)
            done[batch_key(spec)] = _run_campaign_scenario(spec)
            save_progress()
            scope.advance(batch_steps)
            check_drain(checkpoint_path, "resilience", len(done), len(specs))
        if current_campaign is not None:
            scope.campaign_end(current_campaign)

        report = ResilienceReport(
            seed=seed, duration=duration, dt=dt, campaigns=selected_campaigns
        )
        for spec in specs:
            report.cells.extend(done[batch_key(spec)])

        if include_recovery:
            if cached_recovery is None:
                with scope.phase("recovery"):
                    cached_recovery = measure_recovery(selected_techniques, cell=cell)
                save_progress()
            report.recovery = cached_recovery
        if include_coldstart:
            if cached_coldstart is None:
                with scope.phase("coldstart"):
                    cached_coldstart = coldstart_under_flicker(cell=cell, seed=seed)
                save_progress()
            report.coldstart = cached_coldstart
    return report


def render(report: ResilienceReport) -> str:
    """Printable degradation report: retention, recovery, cold start."""
    blocks: List[str] = []

    scenarios: List[str] = []
    techniques: List[str] = []
    for cell in report.cells:
        if cell.scenario not in scenarios:
            scenarios.append(cell.scenario)
        if cell.technique not in techniques:
            techniques.append(cell.technique)
    fault_campaigns = [c for c in report.campaigns if c != "clean"]

    for scenario in scenarios:
        rows = []
        for technique in techniques:
            clean = report.net_energy("clean", scenario, technique)
            row = [technique, f"{clean:.3f}"]
            for campaign in fault_campaigns:
                retention = report.retention(campaign, scenario, technique)
                row.append("-" if retention != retention else f"{retention * 100.0:.1f}")
            rows.append(row)
        blocks.append(
            format_table(
                ["technique", "clean net(J)"] + [f"{c} ret(%)" for c in fault_campaigns],
                rows,
                title=f"resilience — scenario '{scenario}' (seed {report.seed})",
            )
        )

    if report.recovery:
        rows = []
        for r in report.recovery:
            rows.append(
                [
                    r.technique,
                    f"{r.baseline_power * 1e6:.1f}",
                    "never" if not r.recovered else f"{r.recovery_time:.0f}",
                ]
            )
        blocks.append(
            format_table(
                ["technique", "baseline (uW)", "recovery after 10 min dropout (s)"],
                rows,
                title="blackout recovery — 500 lux, 10 min total dropout",
            )
        )

    if report.coldstart is not None:
        cs = report.coldstart
        mean = "-" if cs.mean_start_time != cs.mean_start_time else f"{cs.mean_start_time:.0f} s"
        blocks.append(
            f"cold start under flicker @ {cs.lux:.0f} lux: "
            f"{cs.successes}/{cs.attempts} within {cs.budget:.0f} s "
            f"({cs.success_rate * 100.0:.0f} %, mean wake {mean})"
        )

    campaign_lines = ["fault campaigns:"]
    for name in report.campaigns:
        plan = build_plan(name, report.seed, report.duration)
        campaign_lines.append(f"  {name:<20} {plan.description}")
    blocks.append("\n".join(campaign_lines))
    return "\n\n".join(blocks)
