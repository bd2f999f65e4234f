"""Span recording around the public calls into each pipeline layer.

The benchmark traces the program from the outside: :func:`instrument`
replaces each layer's public entry point — wherever a :mod:`repro` module
bound it — with a wrapper that records one span per call.  Nothing inside
``src/`` changes.  Spans carry a name, wall-clock start and end, the span
that caused them, the request they belong to and the counts of work done;
they stay in memory and are written out once, at the end of the run.

:func:`layer_metrics` turns the spans of a traced run into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

REQUEST = "request"
"""Root span of one timed request (not a layer)."""


class Tracer:
    """In-memory span recorder; thread-safe, one span stack per thread.

    Span ids are ``prefix`` + a counter, so spans recorded by two processes
    (the service client and the server) can be merged.
    """

    def __init__(self, prefix: str = "") -> None:
        self.spans: List[Dict[str, Any]] = []
        self.paused = False
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        span = {
            "id": f"{self._prefix}{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
            "start": time.time(),
            "end": None,
            "counts": {},
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float, request: str, **counts) -> None:
        """Add a span timed elsewhere (e.g. from job-record timestamps)."""
        span = {
            "id": f"{self._prefix}{next(self._ids)}",
            "name": name,
            "parent": None,
            "request": request,
            "start": start,
            "end": end,
            "counts": counts,
        }
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


def _wrap(tracer: Tracer, func: Callable, name: str, counts=None, request=None) -> Callable:
    """``func`` with a span around every call.

    ``counts(args, kwargs, result)`` returns the work counts to attach;
    ``request(args, kwargs)`` names the request when the call starts one.
    """

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if tracer.paused:
            return func(*args, **kwargs)
        span = tracer.begin(name, request(args, kwargs) if request else None)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            span["error"] = repr(exc)
            raise
        finally:
            tracer.end(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    traced.perfbench_original = func
    return traced


def _patch_function(tracer: Tracer, func: Callable, name: str, **kw) -> None:
    """Replace ``func`` in every loaded ``repro`` module that bound it."""
    traced = _wrap(tracer, func, name, **kw)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, traced)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, _wrap(tracer, vars(cls)[attr], name, **kw))


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _fleet_run(tracer: Tracer) -> Callable:
    """``FleetSimulator.run`` counting member-steps actually stepped."""
    import repro.sim.fleet as fleet

    run = vars(fleet.FleetSimulator)["run"]

    @functools.wraps(run)
    def traced(self, *args, **kwargs):
        if tracer.paused:
            return run(self, *args, **kwargs)
        before = self._step_index
        span = tracer.begin("fleet.step")
        try:
            return run(self, *args, **kwargs)
        finally:
            span["counts"] = {"member_steps": (self._step_index - before) * self.n}
            tracer.end(span)

    return traced


def _compiled_counts(args, kwargs, result):
    results, pc = result
    lanes = len(results)
    fallback = sum(1 for summary in results.values() if summary is None)
    return {
        "lanes": lanes,
        "fallback": fallback,
        "lane_steps": (lanes - fallback) * len(pc),
    }


def instrument(tracer: Tracer) -> None:
    """Trace the public entry point of every layer the workloads reach.

    Imports the experiment modules first so that every name they bound at
    import time is found and replaced.
    """
    import repro.analysis.montecarlo as montecarlo
    import repro.experiments.comparison  # noqa: F401  (binds precompute_conditions)
    import repro.experiments.resilience  # noqa: F401
    import repro.pv.batch as batch
    import repro.pv.lut as lut
    import repro.service.api as api
    import repro.service.jobstore as jobstore
    import repro.sim.compiled as compiled
    import repro.sim.fleet as fleet
    import repro.sim.precompute as precompute
    import repro.sim.quasistatic as quasistatic

    _patch_function(
        tracer,
        precompute.precompute_conditions,
        "precompute",
        counts=lambda a, k, r: {"steps": len(r), "unique": r.unique_conditions},
    )
    _patch_function(
        tracer,
        batch.solve_models,
        "batch.solve",
        counts=lambda a, k, r: {"conditions": len(_arg(a, k, 0, "models"))},
    )
    _patch_function(
        tracer,
        lut.lut_for_models,
        "lut.build",
        counts=lambda a, k, r: {"conditions": len(_arg(a, k, 0, "models"))},
    )
    _patch_method(
        tracer,
        lut.CellPowerLUT,
        "validate",
        "lut.validate",
        counts=lambda a, k, r: {"max_rel_error": float(r.max_rel_error)},
    )
    _patch_method(tracer, fleet.FleetSimulator, "__init__", "fleet.init")
    fleet.FleetSimulator.run = _fleet_run(tracer)
    _patch_function(
        tracer, compiled.run_comparison_scenario, "compiled", counts=_compiled_counts
    )
    _patch_method(
        tracer,
        quasistatic.QuasiStaticSimulator,
        "run",
        "scalar.run",
        counts=lambda a, k, r: {
            "lane_steps": int(
                round(_arg(a, k, 1, "duration") / (a[2] if len(a) > 2 else k.get("dt", 1.0)))
            )
        },
    )
    _patch_function(
        tracer,
        montecarlo.run_sample_hold_montecarlo,
        "montecarlo",
        counts=lambda a, k, r: {"boards": int(r.k_percent.size)},
    )
    _patch_method(
        tracer,
        jobstore.JobStore,
        "save",
        "jobstore.save",
        request=lambda a, k: _arg(a, k, 1, "record").fingerprint,
        counts=lambda a, k, r: {
            "succeeded_comparison": int(
                _arg(a, k, 1, "record").state == jobstore.SUCCEEDED
                and _arg(a, k, 1, "record").kind == "comparison"
            )
        },
    )
    _patch_function(
        tracer,
        api.run_job,
        "service.run_job",
        request=lambda a, k: _arg(a, k, 0, "spec").fingerprint,
    )


# --- per-layer metrics -------------------------------------------------------------

PER_REQUEST_LAYERS = {
    "precompute.walk_s": "precompute",
    "batch.solve_s": "batch.solve",
    "lut.build_s": "lut.build",
    "lut.validate_s": "lut.validate",
    "fleet.init_s": "fleet.init",
    "fleet.step_s": "fleet.step",
    "compiled.self_s": "compiled",
    "scalar.run_s": "scalar.run",
}
"""Per-layer self time, seconds per timed request."""

PER_REQUEST_COUNTS = {
    "precompute.steps": ("precompute", "steps"),
    "batch.conditions": ("batch.solve", "conditions"),
    "lut.conditions": ("lut.build", "conditions"),
    "fleet.member_steps": ("fleet.step", "member_steps"),
    "compiled.lane_steps": ("compiled", "lane_steps"),
    "scalar.lane_steps": ("scalar.run", "lane_steps"),
}
"""Work done per timed request, as counts."""


def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id → its duration minus the time its child spans cover."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= _duration(s)
    return own


SERVICE_METRICS = (
    "service.submit_s",
    "service.queue_wait_s",
    "service.run_s",
    "service.delivery_s",
    "service.coalesced_ratio",
)
"""Measured by the service client, not from spans."""


def layer_metrics(
    spans: List[Dict[str, Any]],
    warm_replays: Optional[Dict[str, float]] = None,
    fault_overhead: float = 0.0,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Args:
        spans: every span of the run; requests are the ``request`` roots.
        warm_replays: compiled span id → seconds the same call took again
            once its program was cached (``comparison-cold`` only); the
            difference is the program build, the replay the kernel.
        fault_overhead: (median faulted − median clean request time) ÷
            median clean (``resilience-faults``): the fault campaign's own
            time, since every faulted request also runs the clean one.
        service: the :data:`SERVICE_METRICS` measured by the client.
    """
    requests = [s for s in spans if s["name"] == REQUEST]
    timed_ids = {s["request"] for s in requests}
    n = max(1, len(requests))
    own = _self_times(spans)
    layer_spans = [s for s in spans if s["name"] != REQUEST and s["request"] in timed_ids]

    def named(name: str) -> List[Dict[str, Any]]:
        return [s for s in layer_spans if s["name"] == name]

    def count(name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in named(name))

    out: Dict[str, float] = {}
    for metric, name in PER_REQUEST_LAYERS.items():
        out[metric] = sum(own[s["id"]] for s in named(name)) / n
    for metric, (name, key) in PER_REQUEST_COUNTS.items():
        out[metric] = count(name, key) / n
    out["precompute.unique_ratio"] = _ratio(count("precompute", "unique"), count("precompute", "steps"))
    out["lut.max_rel_error"] = max(
        (s["counts"]["max_rel_error"] for s in named("lut.validate")), default=0.0
    )

    compiled = named("compiled")
    if warm_replays:
        out["compiled.kernel_s"] = sum(warm_replays.get(s["id"], 0.0) for s in compiled) / n
        out["compiled.build_s"] = (
            sum(_duration(s) - warm_replays.get(s["id"], 0.0) for s in compiled) / n
        )
    else:
        # Every call hit the program cache: its self time is the kernel.
        out["compiled.kernel_s"] = out["compiled.self_s"]
        out["compiled.build_s"] = 0.0
    out["compiled.fallback_ratio"] = _ratio(count("compiled", "fallback"), count("compiled", "lanes"))
    out["faults.slowdown"] = fault_overhead

    mc = [s for s in named("montecarlo") if "error" not in s]
    out["montecarlo.run_s"] = statistics.median(_duration(s) for s in mc) if mc else 0.0
    out["montecarlo.boards"] = statistics.median(s["counts"]["boards"] for s in mc) if mc else 0.0
    saves = [_duration(s) for s in named("jobstore.save") if s["counts"].get("succeeded_comparison")]
    out["jobstore.save_s"] = statistics.median(saves) if saves else 0.0
    out.update({key: (service or {}).get(key, 0.0) for key in SERVICE_METRICS})

    # Request time covered by no layer span: the requests' own glue code
    # (controller construction, result assembly) or, for the service,
    # polling and result delivery.
    by_request: Dict[Any, List[tuple]] = {}
    for s in layer_spans:
        by_request.setdefault(s["request"], []).append((s["start"], s["end"]))
    total = sum(_duration(r) for r in requests)
    covered = sum(
        _covered(by_request.get(r["request"], ()), r["start"], r["end"]) for r in requests
    )
    out["trace.request_s"] = total / n
    out["trace.unattributed_s"] = (total - covered) / n
    out["trace.unattributed_share"] = _ratio(total - covered, total)
    return out


def layer_breakdown(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Self time and call count per span name over the timed requests."""
    timed = {s["request"] for s in spans if s["name"] == REQUEST}
    own = _self_times(spans)
    breakdown: Dict[str, Dict[str, float]] = {}
    for s in spans:
        if s["request"] in timed:
            entry = breakdown.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[s["id"]]
    return breakdown
