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

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Protocol, runtime_checkable

import repro.obs as obs
from repro.errors import ModelParameterError, NumericalGuardError
from repro.obs import journal as _journal
from repro.pv.single_diode import SingleDiodeModel
from repro.sim.precompute import PrecomputedConditions
from repro.sim.traces import TraceSet


class Observation(NamedTuple):
    """Everything a controller may look at for one quasi-static step.

    An immutable record (a named tuple).

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


class _DecisionFields(NamedTuple):
    operating_voltage: Optional[float]
    harvest_duty: float = 1.0
    overhead_current: float = 0.0
    note: str = ""


class ControlDecision(_DecisionFields):
    """A controller's output for one step.

    An immutable record (a named tuple) validated on construction.

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

    __slots__ = ()

    def __new__(cls, operating_voltage, harvest_duty=1.0, overhead_current=0.0, note=""):
        if not 0.0 <= harvest_duty <= 1.0:
            raise ModelParameterError(f"harvest_duty must be in [0, 1], got {harvest_duty!r}")
        if overhead_current < 0.0:
            raise ModelParameterError(f"overhead_current must be >= 0, got {overhead_current!r}")
        return tuple.__new__(cls, (operating_voltage, harvest_duty, overhead_current, note))

    @classmethod
    def _make(cls, iterable) -> "ControlDecision":
        """Validate like the constructor (``_replace`` builds through here)."""
        return cls(*iterable)


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
        load: optional callable ``p_load(t)`` drawn from storage, watts;
            ``load(t)`` at the step start is held for the whole step, so a
            load that changes within a step should pass its step average
            (e.g. :meth:`repro.node.loads.DutyCycledLoad.mean_power`).
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
        self._dt = precomputed.dt
        self._models = precomputed.models
        self._times, self._lux = precomputed.step_lists()
        # The ideal-MPP power each step is credited with: its condition's
        # ideal-key claimant replay (PrecomputedConditions.ideal_power).
        self._ideal = precomputed.ideal_power()[precomputed.u_row].tolist()
        self.traces = TraceSet()
        self.summary = HarvestSummary(
            final_storage_voltage=supply_voltage if storage is None else storage.voltage
        )
        self.time = 0.0
        self._step_index = 0
        # Fault wrappers (repro.faults.components) are time-aware but
        # present the ordinary converter/storage interfaces; they expose
        # a tick(t, dt) hook the engine calls at the top of each step.
        self._converter_tick = getattr(converter, "tick", None)
        self._storage_tick = getattr(storage, "tick", None)

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
        return StepResult(*self._advance(dt))

    def _advance(self, dt: float) -> tuple:
        """The step body :meth:`step`, :meth:`run` and the fleet lanes share.

        Returns :class:`StepResult`'s fields as a tuple, so loops that
        only need the summary build no record.
        """
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        t = self.time
        index = self._step_index
        times = self._times
        if not (0 <= index < len(times) and dt == self._dt and t == times[index]):
            raise ModelParameterError(f"step t={t!r} s, dt={dt!r} s is off the precomputed trace")
        if self._converter_tick is not None:
            self._converter_tick(t, dt)
        if self._storage_tick is not None:
            self._storage_tick(t, dt)
        lux = self._lux[index]
        model = self._models[index]
        storage = self.storage
        # With storage, the controller runs off the store's terminal.
        supply_v = self.supply_voltage if storage is None else storage.voltage

        # Observation(t, dt, model, lux, supply_v, supply_v), built the
        # way its _make does, without the keyword-binding __new__.
        observation = tuple.__new__(Observation, (t, dt, model, lux, supply_v, supply_v))
        decision = self.controller.decide(observation)
        v = decision.operating_voltage

        # Power extracted from the cell at the commanded operating point.
        if v is None or lux <= 0.0:
            pv_power = 0.0
        else:
            pv_power = v * float(model.current_at(v)) if v > 0.0 else 0.0
            if not pv_power > 0.0:  # max(0.0, v * current)
                pv_power = 0.0
            pv_power *= decision.harvest_duty

        # Converter transfer (a positive pv_power implies v > 0).
        if self.converter is not None and pv_power > 0.0:
            delivered = self.converter.output_power(pv_power, v, supply_v)
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

        # Storage bookkeeping: the charge first (leakage rides on it).
        if storage is not None:
            accepted = storage.exchange(delivered, dt)
            storage.exchange(-(overhead + load_power), dt)
            storage_v = storage.voltage
        else:
            accepted = delivered
            storage_v = supply_v
        if not math.isfinite(storage_v):
            raise NumericalGuardError(
                f"storage voltage went non-finite ({storage_v!r}) at t={t:.6g} s",
                signal="v_storage",
                time=t,
            )

        summary = self.summary
        summary.duration += dt
        summary.energy_ideal += self._ideal[index] * dt
        summary.energy_at_cell += pv_power * dt
        summary.energy_delivered += accepted * dt
        summary.energy_overhead += overhead * dt
        summary.energy_load += load_power * dt
        summary.final_storage_voltage = storage_v

        if self.record:
            self.traces.record("lux", t, lux)
            self.traces.record("v_pv", t, v if v is not None else 0.0)
            self.traces.record("p_pv", t, pv_power)
            self.traces.record("p_delivered", t, delivered)
            self.traces.record("p_overhead", t, overhead)
            self.traces.record("v_storage", t, storage_v)

        self.time = t + dt
        self._step_index = index + 1
        return t, lux, v, pv_power, delivered, overhead, storage_v

    def run(self, duration: float, dt: float = 1.0) -> HarvestSummary:
        """Run for ``duration`` seconds in steps of ``dt``; returns the summary.

        Successive calls continue along the trace, so a run in chunks
        needs a trace covering the whole horizon; a step past its end
        raises.  Each step is the body :meth:`step` runs, without
        building a :class:`StepResult`.

        The run is one ``technique:<name>`` span (a shared no-op while
        tracing is off).  With observability enabled
        (:func:`repro.obs.enable`) it adds its steps to
        ``sim.steps{technique=}`` and its energy deltas to
        ``sim.energy_delivered_j`` / ``sim.energy_overhead_j``, so the
        span's ``total_s`` over ``sim.steps`` is the wall time per step.
        """
        steps = int(round(duration / dt))
        name = getattr(self.controller, "name", type(self.controller).__name__)
        j = _journal.JOURNAL
        if j is not None:
            j.emit(_journal.ENGINE_RUN, engine="scalar", steps=steps, technique=name)
        summary = self.summary
        delivered_before = summary.energy_delivered
        overhead_before = summary.energy_overhead
        advance = self._advance
        with obs.TRACER.span(f"technique:{name}"):
            for _ in range(steps):
                advance(dt)
        if obs.is_enabled():
            registry = obs.REGISTRY
            labels = {"technique": name}
            registry.counter("sim.steps", "quasi-static steps simulated", labels).inc(steps)
            delivered = summary.energy_delivered - delivered_before
            overhead = summary.energy_overhead - overhead_before
            if delivered > 0.0:
                registry.counter(
                    "sim.energy_delivered_j", "post-converter energy into storage", labels
                ).inc(delivered)
            if overhead > 0.0:
                registry.counter(
                    "sim.energy_overhead_j", "controller supply energy", labels
                ).inc(overhead)
        return summary
