"""Quasi-static long-horizon harvesting simulation.

The MPPT dynamics in this paper are slow — one 39 ms sample every ~69 s —
so 24-hour runs treat each step (default 1 s) as an electrical
equilibrium: the controller picks an operating point for the current
light level, the converter transfers the resulting power into storage at
its efficiency, the controller's own supply current is debited, and any
node load is drawn.  Energy totals and tracking efficiencies accumulate
exactly the quantities the paper's evaluation (and our E8 comparison)
reports.

Controllers implement a two-method protocol:

* ``decide(obs) -> ControlDecision`` — pick the PV operating voltage (or
  None for disconnected), the fraction of the step spent harvesting, and
  the controller's supply current for the step.
* ``name`` — a label for reports.

Both the paper's S&H system (:class:`repro.core.system.SampleHoldMPPT`)
and every baseline in :mod:`repro.baselines` satisfy it, so one loop
compares them all.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

import repro.obs as obs
from repro.errors import ModelParameterError, NumericalGuardError
from repro.obs import journal as _journal
from repro.pv.single_diode import SingleDiodeModel
from repro.sim.precompute import PrecomputedConditions
from repro.sim.traces import TraceSet


@dataclass(frozen=True)
class Observation:
    """Everything a controller may look at for one quasi-static step.

    Attributes:
        time: step start time, seconds.
        dt: step duration, seconds.
        cell_model: the PV cell's single-diode curve for this condition.
        lux: illuminance during the step.
        storage_voltage: energy-store terminal voltage, volts.
        supply_voltage: rail available to power the controller, volts.
    """

    time: float
    dt: float
    cell_model: SingleDiodeModel
    lux: float
    storage_voltage: float
    supply_voltage: float


@dataclass(frozen=True)
class ControlDecision:
    """A controller's output for one step.

    Attributes:
        operating_voltage: PV terminal voltage commanded for the step,
            volts; None means the cell is disconnected (no harvest).
        harvest_duty: fraction of the step actually spent harvesting
            (sampling operations disconnect the cell; hill-climbing
            measurement dwell, etc.).
        overhead_current: controller supply current for the step, amps,
            drawn at the observation's supply voltage.
        note: free-form diagnostic tag.
    """

    operating_voltage: Optional[float]
    harvest_duty: float = 1.0
    overhead_current: float = 0.0
    note: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.harvest_duty <= 1.0:
            raise ModelParameterError(f"harvest_duty must be in [0, 1], got {self.harvest_duty!r}")
        if self.overhead_current < 0.0:
            raise ModelParameterError(
                f"overhead_current must be >= 0, got {self.overhead_current!r}"
            )


@runtime_checkable
class HarvestingController(Protocol):
    """The controller protocol shared by the proposed system and baselines."""

    name: str

    def decide(self, obs: Observation) -> ControlDecision:
        """Choose the operating point and account overheads for one step."""


@runtime_checkable
class EnergyStore(Protocol):
    """What the simulator needs from an energy store."""

    @property
    def voltage(self) -> float: ...

    def exchange(self, power: float, dt: float) -> float:
        """Add (+) or draw (-) ``power`` watts for ``dt``; returns the
        power actually exchanged (storage may be full or empty)."""


@dataclass
class StepResult:
    """Per-step telemetry (mostly for tests and debugging)."""

    time: float
    lux: float
    operating_voltage: Optional[float]
    pv_power: float
    delivered_power: float
    overhead_power: float
    storage_voltage: float


@dataclass
class HarvestSummary:
    """Accumulated energy accounting for one run.

    Attributes:
        duration: simulated time, seconds.
        energy_ideal: integral of the true MPP power — what a zero-cost
            perfect tracker could have extracted, joules.
        energy_at_cell: what the controller's operating points actually
            extracted from the cell, joules.
        energy_delivered: post-converter energy into storage, joules.
        energy_overhead: controller supply energy, joules.
        energy_load: energy delivered to the node load, joules.
        final_storage_voltage: storage voltage at the end, volts.
    """

    duration: float = 0.0
    energy_ideal: float = 0.0
    energy_at_cell: float = 0.0
    energy_delivered: float = 0.0
    energy_overhead: float = 0.0
    energy_load: float = 0.0
    final_storage_voltage: float = 0.0

    @property
    def tracking_efficiency(self) -> float:
        """Fraction of the ideal-MPP energy extracted at the cell."""
        if self.energy_ideal <= 0.0:
            return 0.0
        return self.energy_at_cell / self.energy_ideal

    @property
    def net_harvest_ratio(self) -> float:
        """(delivered - overhead) / ideal — the figure that decides whether
        MPPT circuitry pays for itself at a given light level."""
        if self.energy_ideal <= 0.0:
            return 0.0
        return (self.energy_delivered - self.energy_overhead) / self.energy_ideal

    @property
    def net_energy(self) -> float:
        """Delivered energy net of controller overhead, joules."""
        return self.energy_delivered - self.energy_overhead

    _FIELDS = (
        "duration",
        "energy_ideal",
        "energy_at_cell",
        "energy_delivered",
        "energy_overhead",
        "energy_load",
        "final_storage_voltage",
    )

    def to_dict(self) -> dict:
        """Serialise the accumulators (checkpoint protocol).

        JSON round-trips Python floats exactly (shortest-repr), so a
        summary restored from a checkpoint is bitwise-identical.
        """
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, state: dict) -> "HarvestSummary":
        """Rebuild a summary serialised by :meth:`to_dict`."""
        missing = [name for name in cls._FIELDS if name not in state]
        if missing:
            from repro.errors import StateFormatError

            raise StateFormatError(f"HarvestSummary state missing {missing}")
        return cls(**{name: state[name] for name in cls._FIELDS})


class QuasiStaticSimulator:
    """Run a harvesting controller over a precomputed condition trace.

    Every step reads its lux, cell model and ideal-MPP power from the
    ``precomputed`` trace; build it with
    :func:`~repro.sim.precompute.precompute_conditions`, which owns the
    cell, the environment, the light source and the thermal stepping.
    A step off that trace raises ModelParameterError.

    Args:
        controller: the MPPT controller under test.
        precomputed: the run's
            :class:`~repro.sim.precompute.PrecomputedConditions`; runs
            over the same conditions may share one trace.
        converter: optional converter with
            ``output_power(p_in, v_in, v_out) -> float``; identity if None.
        storage: optional energy store; if None an ideal infinite sink at
            ``supply_voltage`` is assumed.
        load: optional callable ``p_load(t)`` drawn from storage, watts.
        supply_voltage: rail powering the controller when no storage is
            modelled (with storage, its terminal voltage is used).
        record: whether to record traces.
    """

    def __init__(
        self,
        controller: HarvestingController,
        precomputed: PrecomputedConditions,
        converter=None,
        storage: Optional[EnergyStore] = None,
        load: Optional[Callable[[float], float]] = None,
        supply_voltage: float = 3.3,
        record: bool = True,
    ):
        from repro.validation import require_finite

        require_finite(supply_voltage, "supply_voltage")
        self.controller = controller
        self.converter = converter
        self.storage = storage
        self.load = load
        self.supply_voltage = supply_voltage
        self.record = record
        # Controllers read model.mpp() from the trace's memos.
        precomputed.solve_deferred()
        self.precomputed = precomputed
        # The ideal-MPP power each step is credited with: its condition's
        # ideal-key claimant replay (PrecomputedConditions.ideal_power).
        self._ideal = precomputed.ideal_power()[precomputed.u_row].tolist()
        self.traces = TraceSet()
        self.summary = HarvestSummary(final_storage_voltage=self._storage_voltage())
        self.time = 0.0
        self._step_index = 0
        # Fault wrappers (repro.faults.components) are time-aware but
        # present the ordinary converter/storage interfaces; they expose
        # a tick(t, dt) hook the engine calls at the top of each step.
        self._converter_tick = getattr(converter, "tick", None)
        self._storage_tick = getattr(storage, "tick", None)

    def _storage_voltage(self) -> float:
        if self.storage is not None:
            return self.storage.voltage
        return self.supply_voltage

    # --- checkpoint protocol --------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot everything needed to resume this run bitwise-identically.

        Captures the clock, step index, energy accumulators and the
        mutable children (controller, storage, converter) via their own
        ``state_dict``.  The condition trace — lux, thermal state,
        models and ideal-MPP powers — is a pure function of the
        arguments it was precomputed from, so a resumed run rebuilds it
        from the spec instead of serialising it.

        Recorded traces are not captured; run checkpointed simulations
        with ``record=False`` (the long-run drivers already do).
        """
        from repro.ckpt.state import child_state

        return {
            "time": self.time,
            "step_index": self._step_index,
            "summary": self.summary.to_dict(),
            "controller": child_state(self.controller),
            "storage": child_state(self.storage),
            "converter": child_state(self.converter),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly built run.

        The simulator must have been constructed with the same spec
        (trace, controller type, ...) as the checkpointed
        one; only the mutable state is restored here.
        """
        from repro.ckpt.state import load_child_state
        from repro.errors import StateFormatError

        missing = [key for key in ("time", "step_index", "summary") if key not in state]
        if missing:
            raise StateFormatError(f"QuasiStaticSimulator state missing {missing}")
        self.time = state["time"]
        self._step_index = state["step_index"]
        self.summary = HarvestSummary.from_dict(state["summary"])
        load_child_state(self.controller, state.get("controller"), "controller")
        load_child_state(self.storage, state.get("storage"), "storage")
        load_child_state(self.converter, state.get("converter"), "converter")

    def step(self, dt: float) -> StepResult:
        """Advance one quasi-static step of ``dt`` seconds along the trace."""
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        t = self.time
        pc = self.precomputed
        index = self._step_index
        if not (0 <= index < len(pc.models) and dt == pc.dt and t == pc.times[index]):
            raise ModelParameterError(f"step t={t!r} s, dt={dt!r} s is off the precomputed trace")
        if self._converter_tick is not None:
            self._converter_tick(t, dt)
        if self._storage_tick is not None:
            self._storage_tick(t, dt)
        lux = float(pc.lux[index])
        model = pc.models[index]
        storage_v = self._storage_voltage()
        supply_v = storage_v if self.storage is not None else self.supply_voltage

        obs = Observation(
            time=t,
            dt=dt,
            cell_model=model,
            lux=lux,
            storage_voltage=storage_v,
            supply_voltage=supply_v,
        )
        decision = self.controller.decide(obs)

        # Power extracted from the cell at the commanded operating point.
        if decision.operating_voltage is None or lux <= 0.0:
            pv_power = 0.0
        else:
            v = decision.operating_voltage
            current = float(model.current_at(v)) if v > 0.0 else 0.0
            pv_power = max(0.0, v * current) * decision.harvest_duty

        # Converter transfer.
        if self.converter is not None and pv_power > 0.0:
            delivered = self.converter.output_power(
                pv_power, decision.operating_voltage or 0.0, storage_v
            )
        else:
            delivered = pv_power

        if delivered < 0.0 or delivered != delivered or pv_power != pv_power:
            raise NumericalGuardError(
                f"power went invalid at t={t:.6g} s "
                f"(pv={pv_power!r} W, delivered={delivered!r} W)",
                signal="p_delivered",
                time=t,
            )

        overhead = decision.overhead_current * supply_v
        load_power = self.load(t) if self.load is not None else 0.0

        # Ideal benchmark for the same step.
        ideal = self._ideal[index]

        # Storage bookkeeping.
        if self.storage is not None:
            accepted = self.storage.exchange(delivered, dt)
            self.storage.exchange(-(overhead + load_power), dt)
        else:
            accepted = delivered

        final_storage_v = self._storage_voltage()
        if not math.isfinite(final_storage_v):
            raise NumericalGuardError(
                f"storage voltage went non-finite ({final_storage_v!r}) at t={t:.6g} s",
                signal="v_storage",
                time=t,
            )

        self.summary.duration += dt
        self.summary.energy_ideal += ideal * dt
        self.summary.energy_at_cell += pv_power * dt
        self.summary.energy_delivered += accepted * dt
        self.summary.energy_overhead += overhead * dt
        self.summary.energy_load += load_power * dt
        self.summary.final_storage_voltage = self._storage_voltage()

        if self.record:
            self.traces.record("lux", t, lux)
            self.traces.record(
                "v_pv", t, decision.operating_voltage if decision.operating_voltage is not None else 0.0
            )
            self.traces.record("p_pv", t, pv_power)
            self.traces.record("p_delivered", t, delivered)
            self.traces.record("p_overhead", t, overhead)
            self.traces.record("v_storage", t, self._storage_voltage())

        self.time += dt
        self._step_index += 1
        return StepResult(
            time=t,
            lux=lux,
            operating_voltage=decision.operating_voltage,
            pv_power=pv_power,
            delivered_power=delivered,
            overhead_power=overhead,
            storage_voltage=self._storage_voltage(),
        )

    def run(self, duration: float, dt: float = 1.0) -> HarvestSummary:
        """Run for ``duration`` seconds in steps of ``dt``; returns the summary.

        Successive calls continue along the trace, so a run in chunks
        needs a trace covering the whole horizon; a step past its end
        raises.

        With observability enabled (:func:`repro.obs.enable`) the run is
        wrapped in a ``technique:<name>`` span, step timing is sampled
        into ``step`` child spans and the ``sim.step_seconds`` histogram,
        and per-technique step/energy counters are flushed at the end.
        The disabled path is byte-for-byte the original loop.
        """
        steps = int(round(duration / dt))
        j = _journal.JOURNAL
        if j is not None:
            j.emit(
                _journal.ENGINE_RUN,
                engine="scalar",
                steps=steps,
                technique=getattr(
                    self.controller, "name", type(self.controller).__name__
                ),
            )
        if not obs.is_enabled():
            for _ in range(steps):
                self.step(dt)
            return self.summary
        return self._run_instrumented(steps, dt)

    def _run_instrumented(self, steps: int, dt: float) -> HarvestSummary:
        """The observed run loop: identical numerics, sampled span timing.

        Counters are accumulated locally and flushed to the registry
        once per run, so the enabled overhead stays within the perf
        gate's 10 % budget even at ~100 k steps/s.
        """
        from time import perf_counter

        name = getattr(self.controller, "name", type(self.controller).__name__)
        registry = obs.REGISTRY
        tracer = obs.TRACER
        delivered_before = self.summary.energy_delivered
        overhead_before = self.summary.energy_overhead
        step_hist = registry.histogram(
            "sim.step_seconds", "sampled quasi-static step wall time"
        )
        # ~16 timed steps per run keeps the timing shape without paying
        # two clock reads on every step (an equality test per step is
        # all the untimed majority spends on sampling).
        sample_every = max(1, steps // 16)
        next_sample = 0
        with tracer.span(f"technique:{name}"):
            for i in range(steps):
                if i == next_sample:
                    next_sample += sample_every
                    t0 = perf_counter()
                    self.step(dt)
                    elapsed = perf_counter() - t0
                    tracer.add("step", elapsed)
                    step_hist.observe(elapsed)
                else:
                    self.step(dt)
        labels = {"technique": name}
        registry.counter("sim.steps", "quasi-static steps simulated", labels).inc(steps)
        delivered = self.summary.energy_delivered - delivered_before
        overhead = self.summary.energy_overhead - overhead_before
        if delivered > 0.0:
            registry.counter(
                "sim.energy_delivered_j", "post-converter energy into storage", labels
            ).inc(delivered)
        if overhead > 0.0:
            registry.counter(
                "sim.energy_overhead_j", "controller supply energy", labels
            ).inc(overhead)
        return self.summary
