"""E12 (extension) — week-long endurance: perpetual operation indoors.

The paper's purpose statement — sensor nodes "designed to operate
indefinitely from energy harvested from their environment" — tested at
the week scale: the full platform (trimmed), a supercapacitor store, and
an energy-aware duty-cycled node ride five office days and a dim
weekend.  Pass criteria: the node never hibernates into death, the store
never empties, and the week ends with at least the charge it started.
"""

from __future__ import annotations

import math

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

from repro.analysis.reporting import format_table
from repro.ckpt.checkpoint import check_spec_match, load_checkpoint, save_checkpoint
from repro.ckpt.drain import drain_requested
from repro.errors import ModelParameterError, RunDrainedError, StateFormatError
from repro.converter.buck_boost import BuckBoostConverter
from repro.core.config import PlatformConfig
from repro.core.system import SampleHoldMPPT
from repro.env.profiles import HOURS
from repro.env.scenarios import weekly_office
from repro.node.scheduler import EnergyAwareScheduler
from repro.obs import journal
from repro.node.sensor_node import SensorNode
from repro.pv.cells import PVCell, am_1815
from repro.sim.engines import EXPERIMENT_ENGINES, resolve_engine
from repro.sim.parallel import parallel_map
from repro.sim.precompute import precompute_conditions
from repro.sim.quasistatic import QuasiStaticSimulator
from repro.storage.supercap import Supercapacitor

DAY = 24.0 * HOURS
WEEK = 7.0 * DAY


@dataclass
class DaySummary:
    """One day's telemetry from the endurance run."""

    day: int
    harvested_j: float
    consumed_j: float
    reports: int
    store_end_v: float
    min_store_v: float
    hibernated: bool

    def to_dict(self) -> dict:
        """Serialise for checkpoints (exact float round-trip via JSON)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "DaySummary":
        """Rebuild a summary serialised by :meth:`to_dict`."""
        try:
            return cls(**state)
        except TypeError as exc:
            raise StateFormatError(f"bad DaySummary state: {exc}") from exc


@dataclass
class EnduranceResult:
    """Outcome of the week-long run.

    Attributes:
        days: per-day telemetry.
        survived: the node never lost its store entirely.
        energy_neutral: final store >= initial store voltage.
        total_reports: reports delivered across the week.
    """

    days: List[DaySummary]
    initial_voltage: float
    final_voltage: float
    total_reports: int

    @property
    def survived(self) -> bool:
        return all(d.min_store_v > 2.0 for d in self.days)

    @property
    def energy_neutral(self) -> bool:
        return self.final_voltage >= self.initial_voltage - 0.05

    def to_dict(self) -> dict:
        """Serialise for checkpoints (exact float round-trip via JSON)."""
        return {
            "days": [d.to_dict() for d in self.days],
            "initial_voltage": self.initial_voltage,
            "final_voltage": self.final_voltage,
            "total_reports": self.total_reports,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "EnduranceResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        missing = [
            key
            for key in ("days", "initial_voltage", "final_voltage", "total_reports")
            if key not in state
        ]
        if missing:
            raise StateFormatError(f"EnduranceResult state missing {missing}")
        return cls(
            days=[DaySummary.from_dict(d) for d in state["days"]],
            initial_voltage=state["initial_voltage"],
            final_voltage=state["final_voltage"],
            total_reports=state["total_reports"],
        )


def _build_week(
    cell: Optional[PVCell],
    storage_farads: float,
    initial_voltage: float,
    dt: float,
    seed: int,
    precompute: bool,
    days: int,
):
    """Construct the endurance chain (sim, storage, scheduler).

    Everything here is a pure function of the arguments, so a resumed
    run rebuilds an identical chain before loading checkpointed state
    into it.
    """
    cell = cell if cell is not None else am_1815()
    storage = Supercapacitor(
        capacitance=storage_farads, rated_voltage=5.0, voltage=initial_voltage
    )
    node = SensorNode(payload_bytes=16)
    scheduler = EnergyAwareScheduler(
        node=node,
        storage=storage,
        v_survival=2.3,
        v_comfort=4.2,
        min_period=30.0,
        max_period=3600.0,
    )
    controller = SampleHoldMPPT(
        config=PlatformConfig.trimmed_for_cell(cell), assume_started=True
    )
    environment = weekly_office(seed=seed)
    horizon = days * DAY
    precomputed = (
        precompute_conditions(cell, environment, horizon, dt) if precompute else None
    )
    sim = QuasiStaticSimulator(
        cell,
        controller,
        environment,
        converter=BuckBoostConverter(),
        storage=storage,
        load=scheduler.power,
        record=False,
        precomputed=precomputed,
    )
    return sim, storage, scheduler


def _week_spec_echo(
    cell: Optional[PVCell],
    storage_farads: float,
    initial_voltage: float,
    dt: float,
    seed: int,
    days: int,
) -> dict:
    """The construction arguments echoed into checkpoints.

    A resume refuses to load a checkpoint whose echo differs — loading
    Monday's state into a differently-built week would not crash, it
    would silently produce wrong numbers.
    """
    return {
        "experiment": "endurance-week",
        "cell": getattr(cell, "name", type(cell).__name__) if cell is not None else "am-1815",
        "storage_farads": storage_farads,
        "initial_voltage": initial_voltage,
        "dt": dt,
        "seed": seed,
        "days": days,
    }


def run_week(
    cell: Optional[PVCell] = None,
    storage_farads: float = 10.0,
    initial_voltage: float = 3.2,
    dt: float = 10.0,
    seed: int = 4,
    precompute: bool = True,
    days: int = 7,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    resume_from: Optional[str] = None,
    on_checkpoint: Optional[Callable[[int, str], None]] = None,
) -> EnduranceResult:
    """Run the seven-day endurance scenario (checkpointable, resumable).

    Args:
        cell: harvesting cell (AM-1815 default).
        storage_farads: supercapacitor size.
        initial_voltage: store voltage at Monday 00:00.
        dt: quasi-static step.
        seed: environment seed.
        precompute: solve the whole week's light/model trace up front
            (batch Lambert-W) instead of per step; identical numerics.
        days: horizon in days (7 = the published scenario).
        checkpoint_path: where to write crash-recovery checkpoints
            (atomic write; the previous checkpoint is never corrupted).
        checkpoint_every: simulated seconds between checkpoints; None
            disables checkpointing (the default — zero overhead).
        resume_from: path of a checkpoint to resume; the run continues
            from the captured state and produces a bitwise-identical
            :class:`EnduranceResult` to an uninterrupted run.
        on_checkpoint: optional hook ``(count, path)`` called after each
            checkpoint write (used by the crash-injection tests).
    """
    sim, storage, scheduler = _build_week(
        cell, storage_farads, initial_voltage, dt, seed, precompute, days
    )
    spec = _week_spec_echo(cell, storage_farads, initial_voltage, dt, seed, days)

    steps_per_day = int(DAY / dt)
    total_steps = days * steps_per_day
    day_list: List[DaySummary] = []
    day_acc: Optional[dict] = None
    step = 0

    if resume_from is not None:
        envelope = load_checkpoint(resume_from, kind="endurance")
        check_spec_match(envelope, spec, resume_from)
        state = envelope["state"]
        sim.load_state(state["sim"])
        scheduler.load_state(state["scheduler"])
        day_list = [DaySummary.from_dict(d) for d in state["days_done"]]
        day_acc = state["day"]
        step = state["step"]

    next_ckpt = None
    if checkpoint_every is not None and checkpoint_path is not None:
        next_ckpt = (math.floor(sim.time / checkpoint_every) + 1) * checkpoint_every
    ckpt_count = 0

    def _snapshot() -> dict:
        return {
            "sim": sim.state_dict(),
            "scheduler": scheduler.state_dict(),
            "days_done": [d.to_dict() for d in day_list],
            "day": day_acc,
            "step": step,
        }

    with journal.run_scope(
        "endurance", spec=spec, total_steps=total_steps, resumed_steps=step
    ) as scope:
        while step < total_steps:
            if day_acc is None:
                day_acc = {
                    "harvested_before": sim.summary.energy_delivered,
                    "consumed_before": sim.summary.energy_load,
                    "reports_before": scheduler.reports_sent,
                    "min_v": storage.voltage,
                    "hibernated": False,
                }
            sim.step(dt)
            day_acc["min_v"] = min(day_acc["min_v"], storage.voltage)
            day_acc["hibernated"] = day_acc["hibernated"] or scheduler.hibernating
            step += 1
            if step % steps_per_day == 0:
                day_list.append(
                    DaySummary(
                        day=step // steps_per_day - 1,
                        harvested_j=sim.summary.energy_delivered - day_acc["harvested_before"],
                        consumed_j=sim.summary.energy_load - day_acc["consumed_before"],
                        reports=scheduler.reports_sent - day_acc["reports_before"],
                        store_end_v=storage.voltage,
                        min_store_v=day_acc["min_v"],
                        hibernated=day_acc["hibernated"],
                    )
                )
                day_acc = None
                scope.advance_to(step)
            if next_ckpt is not None and sim.time >= next_ckpt:
                save_checkpoint(
                    checkpoint_path,
                    kind="endurance",
                    state=_snapshot(),
                    spec=spec,
                    meta={"sim_time": sim.time},
                )
                ckpt_count += 1
                next_ckpt = (math.floor(sim.time / checkpoint_every) + 1) * checkpoint_every
                scope.advance_to(step)
                if on_checkpoint is not None:
                    on_checkpoint(ckpt_count, checkpoint_path)
            if checkpoint_path is not None and step < total_steps and drain_requested():
                save_checkpoint(
                    checkpoint_path,
                    kind="endurance",
                    state=_snapshot(),
                    spec=spec,
                    meta={"sim_time": sim.time, "drained": True},
                )
                scope.advance_to(step)
                raise RunDrainedError(
                    f"endurance run drained at step {step}/{total_steps}; "
                    f"resume from {checkpoint_path}",
                    checkpoint_path=str(checkpoint_path),
                    step=step,
                )

    return EnduranceResult(
        days=day_list,
        initial_voltage=initial_voltage,
        final_voltage=storage.voltage,
        total_reports=scheduler.reports_sent,
    )


@dataclass(frozen=True)
class _WeekSpec:
    """Picklable arguments for one ensemble member's week."""

    storage_farads: float
    initial_voltage: float
    dt: float
    seed: int
    precompute: bool


def _run_week_spec(spec: _WeekSpec) -> EnduranceResult:
    return run_week(
        storage_farads=spec.storage_farads,
        initial_voltage=spec.initial_voltage,
        dt=spec.dt,
        seed=spec.seed,
        precompute=spec.precompute,
    )


def _run_weeks_fleet(
    seeds: List[int],
    storage_farads: float,
    initial_voltage: float,
    dt: float,
    days: int = 7,
    engine: str = "fleet",
) -> List[EnduranceResult]:
    """One vectorized fleet advancing every seed's week in lockstep.

    Builds the identical scalar objects :func:`_build_week` would (so
    the parameters match bitwise), hands them to the fleet engine as one
    population over the seeds axis, and keeps the same per-day
    bookkeeping as :func:`run_week` — on arrays instead of one chain per
    seed.  ``engine="compiled"`` swaps in the LUT-accelerated
    :class:`~repro.sim.compiled.CompiledFleetSimulator`.
    """
    import numpy as np

    from repro.sim.engines import fleet_class
    from repro.sim.fleet import FleetMember

    cell = am_1815()
    members = []
    for seed in seeds:
        storage = Supercapacitor(
            capacitance=storage_farads, rated_voltage=5.0, voltage=initial_voltage
        )
        scheduler = EnergyAwareScheduler(
            node=SensorNode(payload_bytes=16),
            storage=storage,
            v_survival=2.3,
            v_comfort=4.2,
            min_period=30.0,
            max_period=3600.0,
        )
        controller = SampleHoldMPPT(
            config=PlatformConfig.trimmed_for_cell(cell), assume_started=True
        )
        precomputed = precompute_conditions(cell, weekly_office(seed=seed), days * DAY, dt)
        members.append(
            FleetMember(
                controller=controller,
                precomputed=precomputed,
                converter=BuckBoostConverter(),
                storage=storage,
                load=scheduler,
            )
        )

    fleet = fleet_class(engine)(members)
    n = len(seeds)
    steps_per_day = int(DAY / dt)
    total_steps = days * steps_per_day
    day_lists: List[List[DaySummary]] = [[] for _ in range(n)]
    harvested_before = fleet.energy_delivered
    consumed_before = fleet.energy_load
    reports_before = fleet.reports_sent
    voltages = fleet.storage_voltages
    min_v = voltages
    hibernated = np.zeros(n, dtype=bool)
    for step in range(1, total_steps + 1):
        fleet.step()
        voltages = fleet.storage_voltages
        min_v = np.minimum(min_v, voltages)
        hibernated |= fleet.hibernating
        if step % steps_per_day == 0:
            delivered = fleet.energy_delivered
            load = fleet.energy_load
            reports = fleet.reports_sent
            for j in range(n):
                day_lists[j].append(
                    DaySummary(
                        day=step // steps_per_day - 1,
                        harvested_j=float(delivered[j] - harvested_before[j]),
                        consumed_j=float(load[j] - consumed_before[j]),
                        reports=int(reports[j] - reports_before[j]),
                        store_end_v=float(voltages[j]),
                        min_store_v=float(min_v[j]),
                        hibernated=bool(hibernated[j]),
                    )
                )
            harvested_before, consumed_before, reports_before = delivered, load, reports
            min_v = voltages.copy()
            hibernated = np.zeros(n, dtype=bool)
    final_reports = fleet.reports_sent
    return [
        EnduranceResult(
            days=day_lists[j],
            initial_voltage=initial_voltage,
            final_voltage=float(voltages[j]),
            total_reports=int(final_reports[j]),
        )
        for j in range(n)
    ]


def run_week_ensemble(
    seeds: List[int],
    storage_farads: float = 10.0,
    initial_voltage: float = 3.2,
    dt: float = 10.0,
    precompute: bool = True,
    max_workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    engine: str = "fleet",
) -> List[EnduranceResult]:
    """Run the endurance week over an ensemble of environment seeds.

    Each seed is an independent week.  The default ``engine="fleet"``
    advances every seed in lockstep through one vectorized
    :class:`~repro.sim.fleet.FleetSimulator` (the seeds become a NumPy
    population axis); ``engine="compiled"`` (and ``"auto"``) does the
    same through the LUT-backed
    :class:`~repro.sim.compiled.CompiledFleetSimulator`;
    ``engine="scalar"`` fans one scalar week per seed
    over the process pool (:func:`repro.sim.parallel.parallel_map`).
    Results come back in seed order either way; fleet agrees with
    scalar to solver tolerance, compiled within the LUT's declared
    error budget.

    With ``checkpoint_path`` set, seeds run in pool-sized waves and the
    checkpoint is rewritten (atomically) after each wave with every
    completed seed's result; ``resume_from`` skips those seeds and
    recomputes only the remainder, returning results in the original
    seed order.  ``precompute`` affects only the scalar engine — the
    fleet always consumes a precomputed condition trace.
    """
    engine = resolve_engine(
        engine, EXPERIMENT_ENGINES["endurance"], context="endurance ensemble"
    )
    ensemble_spec = {
        "experiment": "endurance-ensemble",
        "storage_farads": storage_farads,
        "initial_voltage": initial_voltage,
        "dt": dt,
        "precompute": precompute,
        "engine": engine,
    }
    completed: dict = {}
    if resume_from is not None:
        envelope = load_checkpoint(resume_from, kind="endurance-ensemble")
        check_spec_match(envelope, ensemble_spec, resume_from)
        completed = {
            int(seed): EnduranceResult.from_dict(result)
            for seed, result in envelope["state"]["completed"].items()
        }

    def make_spec(seed: int) -> _WeekSpec:
        return _WeekSpec(
            storage_farads=storage_farads,
            initial_voltage=initial_voltage,
            dt=dt,
            seed=seed,
            precompute=precompute,
        )

    def run_batch(batch: List[int]) -> List[EnduranceResult]:
        if not batch:
            return []
        if engine in ("fleet", "compiled"):
            return _run_weeks_fleet(
                batch, storage_farads, initial_voltage, dt, engine=engine
            )
        return parallel_map(_run_week_spec, [make_spec(s) for s in batch],
                            max_workers=max_workers)

    pending = [seed for seed in seeds if seed not in completed]
    with journal.run_scope(
        "endurance-ensemble",
        spec=dict(ensemble_spec, seeds=list(seeds)),
        total_steps=len(seeds),
        resumed_steps=len(seeds) - len(pending),
    ) as scope:
        if checkpoint_path is None:
            completed.update(zip(pending, run_batch(pending)))
            scope.advance(len(pending))
        else:
            import os

            wave = max_workers if max_workers is not None else (os.cpu_count() or 1)
            for start in range(0, len(pending), wave):
                batch = pending[start : start + wave]
                completed.update(zip(batch, run_batch(batch)))
                save_checkpoint(
                    checkpoint_path,
                    kind="endurance-ensemble",
                    state={
                        "completed": {
                            str(seed): result.to_dict() for seed, result in completed.items()
                        }
                    },
                    spec=ensemble_spec,
                    meta={"seeds_done": len(completed), "seeds_total": len(seeds)},
                )
                scope.advance(len(batch))
    return [completed[seed] for seed in seeds]


def render(result: EnduranceResult) -> str:
    """Printable per-day endurance table."""
    names = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
    rows = [
        [
            names[d.day],
            f"{d.harvested_j:.2f}",
            f"{d.consumed_j:.3f}",
            f"{d.reports}",
            f"{d.store_end_v:.2f}",
            f"{d.min_store_v:.2f}",
            "yes" if d.hibernated else "no",
        ]
        for d in result.days
    ]
    verdict = (
        f"survived: {'yes' if result.survived else 'NO'}; "
        f"energy-neutral: {'yes' if result.energy_neutral else 'NO'} "
        f"({result.initial_voltage:.2f} V -> {result.final_voltage:.2f} V); "
        f"{result.total_reports} reports"
    )
    return (
        format_table(
            ["day", "harvest(J)", "load(J)", "reports", "V_end", "V_min", "hibernated"],
            rows,
            title="E12 — one week on the office desk (trimmed S&H platform)",
        )
        + "\n"
        + verdict
    )
