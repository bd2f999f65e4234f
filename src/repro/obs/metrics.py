"""Process-wide metrics registry: counters, gauges, histograms.

The observability layer's first half (the second is
:mod:`repro.obs.tracing`).  A :class:`MetricsRegistry` owns named
instruments; the module-level :data:`REGISTRY` is the process-wide one
every hot path reports into.  Three instrument kinds cover everything
the engine needs:

* :class:`Counter` — monotone accumulator (solver iterations, cache
  hits, fault-window activations, per-technique energy totals).
* :class:`Gauge` — last-value instrument (cache size, current report
  period).
* :class:`Histogram` — bucketed distribution (sampled step durations).

Zero-overhead-when-disabled contract
------------------------------------

Hot paths (the scalar Lambert-W solver runs millions of times per
24-hour run) must not pay for instrumentation they are not using.  They
therefore do **not** call the registry directly; they read a slot on the
module-level :data:`HOOKS` struct, which is ``None`` until
:func:`repro.obs.enable` wires real counters in:

    h = HOOKS.lambertw_calls
    if h is not None:
        h.inc()

Disabled cost is one attribute load and an ``is None`` test — far below
the 5 % perf-smoke budget.  Direct ``REGISTRY.counter(...)`` use always
works regardless of the enabled flag; the flag only controls the hook
wiring and the engines' instrumented code paths.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ModelParameterError

DEFAULT_TIME_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0,
)
"""Latency buckets (seconds) spanning sub-microsecond steps to 1 s specs."""


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone accumulator (floats allowed: joules, seconds, counts)."""

    __slots__ = ("name", "description", "labels", "value")

    def __init__(self, name: str, description: str = "", labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.description = description
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0 — counters only go up)."""
        if amount < 0.0:
            raise ModelParameterError(f"counter increment must be >= 0, got {amount!r}")
        self.value += amount


class Gauge:
    """A last-value instrument."""

    __slots__ = ("name", "description", "labels", "value")

    def __init__(self, name: str, description: str = "", labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.description = description
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics).

    Args:
        name: instrument name.
        description: one-line help text.
        buckets: ascending upper bounds; an implicit +Inf bucket is
            always present.
    """

    __slots__ = ("name", "description", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        labels: Tuple[Tuple[str, str], ...] = (),
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ModelParameterError("histogram needs at least one bucket bound")
        self.name = name
        self.description = description
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.sum += v
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Named-instrument store with get-or-create accessors.

    Thread-safe for instrument creation (hot-path increments are plain
    attribute updates on the instrument, which is the GIL-atomic pattern
    CPython counters rely on).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object]" = {}

    def _get_or_create(self, kind, name, description, labels, **kwargs):
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(key)
                if inst is None:
                    inst = kind(name, description=description, labels=key[1], **kwargs)
                    self._instruments[key] = inst
        if not isinstance(inst, kind):
            raise ModelParameterError(
                f"instrument {name!r} already registered as {type(inst).__name__}, "
                f"not {kind.__name__}"
            )
        return inst

    def counter(self, name: str, description: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get or create the counter ``name`` (+ optional labels)."""
        return self._get_or_create(Counter, name, description, labels)

    def gauge(self, name: str, description: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, description, labels)

    def histogram(self, name: str, description: str = "",
                  buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, description, labels, buckets=buckets)

    def instruments(self):
        """All registered instruments, sorted by (name, labels)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def reset(self) -> None:
        """Drop every instrument (names and values)."""
        with self._lock:
            self._instruments.clear()


REGISTRY = MetricsRegistry()
"""The process-wide registry every instrumented path reports into."""


# Hook slot -> (counter name, description): the one list of hook
# slots, which both Hooks and install_hooks read.
_HOOK_INSTRUMENTS = {
    "lambertw_calls": ("solver.lambertw_calls", "explicit Lambert-W solver invocations"),
    "lambertw_newton_iters": (
        "solver.lambertw_newton_iterations",
        "Newton iterations taken on the asymptotic (overflow-safe) W branch",
    ),
    "mpp_solves": ("solver.mpp_solves", "golden-section MPP searches"),
    "mpp_iters": ("solver.mpp_iterations", "golden-section narrowing iterations"),
    "batch_solves": ("solver.batch_solves", "vectorized batch solve passes"),
    "batch_conditions": ("solver.batch_conditions", "conditions covered by batch solves"),
    "scheduler_clamps": (
        "node.scheduler_clamps",
        "report periods clamped at the min/max period bound",
    ),
    "fault_activations": (
        "faults.window_activations",
        "fault-schedule queries that found a window active",
    ),
    "converter_gated": (
        "converter.gated_steps",
        "quasi-static steps where the converter refused incoming power",
    ),
    "converter_transitions": (
        "converter.mode_transitions",
        "hysteretic regulator run/idle mode flips",
    ),
    "ckpt_saves": ("ckpt.saves", "checkpoint envelopes written"),
    "ckpt_restores": ("ckpt.restores", "checkpoint envelopes loaded"),
    "fleet_nodes": ("fleet.nodes", "nodes taken on by fleet runs"),
    "fleet_steps": ("fleet.steps", "node-steps advanced by the fleet engine"),
    "lut_builds": ("pv.lut.builds", "power-LUT tables built (compiled-tier cold start)"),
    "lut_validations": (
        "pv.lut.validations",
        "pre-run LUT validation gates executed against exact solves",
    ),
    "lut_lattice_built": (
        "pv.lut.lattice_rows_built",
        "single-cell lattice rows solved exactly for a table build",
    ),
    "lut_lattice_reused": (
        "pv.lut.lattice_rows_reused",
        "single-cell lattice rows a table build found already built",
    ),
    "compiled_program_hits": (
        "compiled.program_cache_hits",
        "compiled comparison programs served from the program cache",
    ),
    "compiled_program_misses": (
        "compiled.program_cache_misses",
        "compiled comparison programs built from scratch (LUT + lanes)",
    ),
    "compiled_lane_steps": (
        "compiled.lane_steps",
        "lane-steps advanced by the compiled comparison kernel",
    ),
    "service_submitted": ("service.jobs_submitted", "jobs admitted into the service queue"),
    "service_coalesced": (
        "service.jobs_coalesced",
        "duplicate specs coalesced onto a live job or the TTL result cache",
    ),
    "service_rejected": (
        "service.jobs_rejected",
        "submissions refused with 429 backpressure (queue at bounded depth)",
    ),
    "service_retries": ("service.job_retries", "failed job attempts scheduled for retry"),
    "service_quarantined": (
        "service.jobs_quarantined",
        "poison jobs dead-lettered after exhausting their retry budget",
    ),
    "service_completed": ("service.jobs_completed", "jobs that finished with a result"),
    "service_recovered": (
        "service.jobs_recovered",
        "jobs re-admitted from the crash-safe store after a server restart",
    ),
}


class Hooks:
    """Hot-path instrument slots, ``None`` until observability is enabled.

    Call sites load one slot, test ``is None``, and increment — the
    cheapest conditional instrumentation CPython allows.  Slots:

    * ``lambertw_calls`` / ``lambertw_newton_iters`` — explicit solver
      invocations and asymptotic-Newton iterations
      (:mod:`repro.pv.single_diode`).
    * ``mpp_solves`` / ``mpp_iters`` — golden-section MPP searches
      and the section-narrowing iterations they took.
    * ``batch_solves`` / ``batch_conditions`` — vectorized solve passes
      and the conditions they covered (:mod:`repro.pv.batch`).
    * ``scheduler_clamps`` — report periods clamped at the min/max
      bound (:mod:`repro.node.scheduler`).
    * ``fault_activations`` — fault-window queries that found a window
      active (:mod:`repro.faults.schedule`).
    * ``converter_gated`` / ``converter_transitions`` — quasi-static
      steps where the converter refused power, and hysteretic
      run/idle mode flips (:mod:`repro.converter.buck_boost`).
    * ``ckpt_saves`` / ``ckpt_restores`` — checkpoint envelopes written
      and loaded (:mod:`repro.ckpt.checkpoint`).
    * ``fleet_nodes`` / ``fleet_steps`` — population sizes taken on by
      the fleet engine and node-steps it advanced (replayed S&H lanes
      in :mod:`repro.sim.fleet`, Monte Carlo boards in
      :mod:`repro.core.sample_hold`).
    * ``lut_builds`` / ``lut_validations`` — power-LUT tables built and
      pre-run validation gates executed (:mod:`repro.pv.lut`) — the
      compiled tier's dominant cold-start costs.
    * ``lut_lattice_built`` / ``lut_lattice_reused`` — single-cell
      lattice rows a table build solved exactly, and rows it found
      already built (:mod:`repro.pv.lut`).
    * ``compiled_program_hits`` / ``compiled_program_misses`` — compiled
      comparison-program cache traffic (:mod:`repro.sim.compiled`); a
      miss pays LUT build + validation + lane compilation.
    * ``compiled_lane_steps`` — lane-steps advanced by the compiled
      comparison kernel (declined lanes run scalar and are not counted).
    * ``service_submitted`` / ``service_coalesced`` /
      ``service_rejected`` / ``service_retries`` /
      ``service_quarantined`` / ``service_completed`` /
      ``service_recovered`` — job-server lifecycle traffic
      (:mod:`repro.service`): admissions, duplicate specs coalesced
      onto a live run or served from the result cache, 429
      backpressure rejections, per-job retry attempts, poison jobs
      dead-lettered, jobs finished, and jobs re-admitted from the
      store after a crash.
    """

    __slots__ = tuple(_HOOK_INSTRUMENTS)

    def __init__(self):
        for slot in self.__slots__:
            setattr(self, slot, None)


HOOKS = Hooks()
"""The module-level hook struct hot paths consult."""


def install_hooks(registry: MetricsRegistry = REGISTRY) -> None:
    """Wire real counters into :data:`HOOKS` (idempotent)."""
    for slot, (name, description) in _HOOK_INSTRUMENTS.items():
        setattr(HOOKS, slot, registry.counter(name, description))


def uninstall_hooks() -> None:
    """Return every :data:`HOOKS` slot to ``None`` (the disabled state)."""
    for slot in Hooks.__slots__:
        setattr(HOOKS, slot, None)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Hooks",
    "HOOKS",
    "install_hooks",
    "uninstall_hooks",
    "DEFAULT_TIME_BUCKETS",
]
