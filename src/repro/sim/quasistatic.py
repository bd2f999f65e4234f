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
from repro.pv.cells import PVCell
from repro.pv.irradiance import FLUORESCENT, LightSource
from repro.pv.single_diode import SingleDiodeModel
from repro.sim.precompute import PrecomputedConditions, ideal_cache_key
from repro.sim.traces import TraceSet
from repro.units import T_STC


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
    """Run a harvesting controller against a light environment.

    Args:
        cell: the PV cell (or any object with ``model_at``/``mpp``).
        controller: the MPPT controller under test.
        environment: callable ``lux(t)`` giving illuminance at time t;
            None for a run that only steps its ``precomputed`` trace
            (a step off that trace then raises ModelParameterError).
        converter: optional converter with
            ``output_power(p_in, v_in, v_out) -> float``; identity if None.
        storage: optional energy store; if None an ideal infinite sink at
            ``supply_voltage`` is assumed.
        load: optional callable ``p_load(t)`` drawn from storage, watts.
        source: light-source spectrum for lux-to-photocurrent conversion.
        supply_voltage: rail powering the controller when no storage is
            modelled (with storage, its terminal voltage is used).
        temperature: fixed cell temperature, kelvin (ignored if a
            thermal model is supplied).
        thermal: optional :class:`~repro.pv.thermal.CellThermalModel`;
            when given, the cell temperature follows the light level —
            which is what separates FOCV from fixed-voltage operation on
            a sun-heated outdoor cell.
        record: whether to record traces.
        precomputed: optional
            :class:`~repro.sim.precompute.PrecomputedConditions` for
            this (cell, environment) pair: steps aligned with the trace
            skip the environment/thermal/model solves entirely and
            consume the pre-solved operating points (identical
            numerics).  Mutually exclusive with ``thermal`` — the
            precompute owns the thermal stepping.
        shading: optional :class:`~repro.env.shading.ShadowMap`; its
            per-cell factors are forwarded to the cell's ``model_at``
            each step (requires a string-style cell such as
            :class:`~repro.pv.string.CellString`).  Precomputed traces
            bake the shading in, so this only drives the live path.
    """

    def __init__(
        self,
        cell: PVCell,
        controller: HarvestingController,
        environment: Callable[[float], float],
        converter=None,
        storage: Optional[EnergyStore] = None,
        load: Optional[Callable[[float], float]] = None,
        source: LightSource = FLUORESCENT,
        supply_voltage: float = 3.3,
        temperature: float = T_STC,
        thermal=None,
        record: bool = True,
        precomputed: Optional[PrecomputedConditions] = None,
        shading=None,
    ):
        from repro.validation import require_finite, require_positive

        require_finite(supply_voltage, "supply_voltage")
        require_positive(temperature, "temperature")
        if precomputed is not None and thermal is not None:
            raise ModelParameterError(
                "pass the thermal model to precompute_conditions, not the simulator, "
                "when running from a precomputed trace"
            )
        self.cell = cell
        self.controller = controller
        self.environment = environment
        self.converter = converter
        self.storage = storage
        self.load = load
        self.source = source
        self.supply_voltage = supply_voltage
        self.temperature = temperature
        self.thermal = thermal
        self.record = record
        self.precomputed = precomputed
        self.shading = shading
        self.traces = TraceSet()
        self.summary = HarvestSummary()
        self.time = 0.0
        self._step_index = 0
        # Fault wrappers (repro.faults.components) are time-aware but
        # present the ordinary converter/storage interfaces; they expose
        # a tick(t, dt) hook the engine calls at the top of each step.
        self._converter_tick = getattr(converter, "tick", None)
        self._storage_tick = getattr(storage, "tick", None)
        # MPP solves are the cost centre of long runs; light levels are
        # smooth, so cache the ideal-MPP power on a quantised
        # photocurrent grid (0.25 % bins -> well under 0.1 % power error).
        self._mpp_cache: dict = {}

    def _storage_voltage(self) -> float:
        if self.storage is not None:
            return self.storage.voltage
        return self.supply_voltage

    # --- checkpoint protocol --------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot everything needed to resume this run bitwise-identically.

        Captures the clock, step index, energy accumulators, the
        quantised MPP cache, and the mutable children (controller,
        storage, converter, thermal) via their own ``state_dict``.  The
        environment, cell, and precompute are pure functions of the
        run's construction arguments, so a resumed run rebuilds them
        from the spec instead of serialising them.

        The MPP cache *must* travel with the checkpoint: its keys are
        quantised, so colliding conditions reuse the first-computed
        value — an empty cache on resume could recompute a subtly
        different ideal power for a later step and break bitwise
        equality.

        Recorded traces are not captured; run checkpointed simulations
        with ``record=False`` (the long-run drivers already do).
        """
        from repro.ckpt.state import child_state

        return {
            "time": self.time,
            "step_index": self._step_index,
            "summary": self.summary.to_dict(),
            "mpp_cache": [[*k, v] for k, v in self._mpp_cache.items()],
            "controller": child_state(self.controller),
            "storage": child_state(self.storage),
            "converter": child_state(self.converter),
            "thermal": child_state(self.thermal),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly built run.

        The simulator must have been constructed with the same spec
        (cell, environment, controller type, ...) as the checkpointed
        one; only the mutable state is restored here.
        """
        from repro.ckpt.state import load_child_state
        from repro.errors import StateFormatError

        missing = [
            key
            for key in ("time", "step_index", "summary", "mpp_cache")
            if key not in state
        ]
        if missing:
            raise StateFormatError(f"QuasiStaticSimulator state missing {missing}")
        self.time = state["time"]
        self._step_index = state["step_index"]
        self.summary = HarvestSummary.from_dict(state["summary"])
        # Keys are variable-length tuples (2 for cells, 3 with nested
        # per-cell tuples for strings); JSON stores them as lists, so
        # rebuild the hashable form recursively.
        def _tuplify(value):
            if isinstance(value, list):
                return tuple(_tuplify(item) for item in value)
            return value

        self._mpp_cache = {
            _tuplify(entry[:-1]): entry[-1] for entry in state["mpp_cache"]
        }
        load_child_state(self.controller, state.get("controller"), "controller")
        load_child_state(self.storage, state.get("storage"), "storage")
        load_child_state(self.converter, state.get("converter"), "converter")
        load_child_state(self.thermal, state.get("thermal"), "thermal")

    def _ideal_power(self, model) -> float:
        """True-MPP power for the step's curve, cached on
        :func:`~repro.sim.precompute.ideal_cache_key`.

        String models publish ``ideal_cache_key`` covering every cell:
        two shading patterns can share a headline photocurrent while
        having very different MPPs, so the single-cell key would collide.
        """
        if model.photocurrent <= 0.0:
            return 0.0
        key = ideal_cache_key(model)
        cached = self._mpp_cache.get(key)
        if cached is None:
            h = obs.HOOKS.cache_misses
            if h is not None:
                h.inc()
            cached = model.mpp().power
            self._mpp_cache[key] = cached
        else:
            h = obs.HOOKS.cache_hits
            if h is not None:
                h.inc()
        return cached

    def step(self, dt: float) -> StepResult:
        """Advance one quasi-static step of ``dt`` seconds."""
        if dt <= 0.0:
            raise ModelParameterError(f"dt must be positive, got {dt!r}")
        t = self.time
        if self._converter_tick is not None:
            self._converter_tick(t, dt)
        if self._storage_tick is not None:
            self._storage_tick(t, dt)
        pc = self.precomputed
        index = self._step_index
        if (
            pc is not None
            and index < len(pc.models)
            and dt == pc.dt
            and t == pc.times[index]
        ):
            # Fast path: the whole condition chain (environment, thermal,
            # model, Voc/MPP) was computed once for this trace — steps
            # that stay aligned with it just consume the results.
            lux = float(pc.lux[index])
            model = pc.models[index]
        elif self.environment is None:
            raise ModelParameterError(
                f"step t={t!r} s, dt={dt!r} s is off the precomputed trace "
                "and this run has no environment to walk"
            )
        else:
            raw_lux = float(self.environment(t))
            if raw_lux != raw_lux:
                # max(0.0, nan) silently yields 0.0 — surface it instead.
                raise NumericalGuardError(
                    f"environment produced NaN lux at t={t:.6g} s", signal="lux", time=t
                )
            lux = max(0.0, raw_lux)
            if self.thermal is not None:
                temperature = self.thermal.step(lux, dt, self.source.efficacy_lm_per_w)
            else:
                temperature = self.temperature
            if self.shading is not None:
                model = self.cell.model_at(
                    lux,
                    source=self.source,
                    temperature=temperature,
                    factors=self.shading.factors_at(t),
                )
            else:
                model = self.cell.model_at(
                    lux, source=self.source, temperature=temperature
                )
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

        # Ideal benchmark for the same step (cached on quantised Iph).
        ideal = self._ideal_power(model) if lux > 0.0 else 0.0

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
