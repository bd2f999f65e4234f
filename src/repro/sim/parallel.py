"""Parallel experiment execution over picklable run specs.

The heavy workloads in this repo — the nine-technique comparison, the
endurance week, the tolerance Monte Carlo — are embarrassingly parallel
at the granularity of "one run".  This module fans such runs out over a
:mod:`concurrent.futures` process pool while keeping four guarantees:

* **Determinism** — a spec fully describes its run (cell parameters,
  scenario/controller names, seeds), so a worker produces exactly what
  the serial path produces; ``parallel-vs-serial`` equality is asserted
  in ``tests/unit/test_parallel_runner.py``.
* **Graceful degradation** — on single-core machines (or
  ``max_workers=1``) everything runs inline with no pool overhead, so
  callers can use one code path unconditionally.
* **Ordering** — results come back in spec order regardless of which
  worker finished first.
* **Recovery** — if the pool cannot be created (sandboxes without
  semaphores/fork) or a worker *crashes* (segfault, OOM kill), the
  batch is transparently re-run serially — specs are deterministic, so
  the retry yields the same results the pool would have.

Retry, quarantine and heartbeat supervision live in the job service
(:mod:`repro.service.queue`), the one place traffic needs them.

Workers must be *module-level* callables (picklable); closures and
lambdas only work inline.  Exceptions *raised by* ``fn`` are not
swallowed by the fallback: a deterministic failure reproduces serially
and propagates as itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import repro.obs as obs
from repro.errors import ModelParameterError
from repro.obs.metrics import diff_snapshots

T = TypeVar("T")
R = TypeVar("R")


class _ObsPayload:
    """What an instrumented worker ships back: result + instrument delta + spans."""

    __slots__ = ("result", "metrics", "trace")

    def __init__(self, result, metrics: dict, trace: dict):
        self.result = result
        self.metrics = metrics
        self.trace = trace


class _ObsTask:
    """Wraps the worker ``fn`` when observability is enabled in the parent.

    The worker enables observability for itself, snapshots the registry
    before the spec, records spans into a detached buffer, and returns
    the *delta* — correct under ``fork`` start methods, where the child
    inherits the parent's pre-fork counts.  The parent merges each
    payload exactly once after the whole pool batch succeeds; the
    serial-retry fallback runs the raw ``fn`` in-process (its increments
    land on the live registry directly), so no path counts twice.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, spec):
        import time

        obs.enable()
        before = obs.REGISTRY.snapshot()
        t0 = time.perf_counter()
        with obs.TRACER.capture() as branch:
            result = self.fn(spec)
        obs.REGISTRY.histogram(
            "parallel.spec_seconds", "per-spec worker wall time"
        ).observe(time.perf_counter() - t0)
        delta = diff_snapshots(before, obs.REGISTRY.snapshot())
        return _ObsPayload(result, delta, branch.to_dict())


def _merge_payloads(payloads: "List[_ObsPayload]") -> list:
    """Fold worker deltas/spans into the parent's registry and trace."""
    results = []
    for payload in payloads:
        obs.REGISTRY.merge(payload.metrics)
        obs.TRACER.merge_subtree(payload.trace, under="parallel_map")
        results.append(payload.result)
    return results


def default_worker_count() -> int:
    """Worker count for this machine (``os.cpu_count()``, at least 1)."""
    return max(1, os.cpu_count() or 1)


def _run_serial(fn: Callable[[T], R], specs: Sequence[T]) -> List[R]:
    return [fn(spec) for spec in specs]


def _run_pool(fn: Callable[[T], R], specs: Sequence[T], workers: int) -> List[R]:
    """Execute on a process pool; raises BrokenProcessPool on worker death."""
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(fn, specs, chunksize=1))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    A process pool runs only when it can help — more than one worker
    *and* more than one item; otherwise every spec runs inline.

    Args:
        fn: a picklable (module-level) callable.
        items: the run specs.
        max_workers: pool size; None means one per CPU.

    Returns:
        ``[fn(item) for item in items]`` — same values, same order.
    """
    specs = list(items)
    workers = max_workers if max_workers is not None else default_worker_count()
    if workers < 1:
        raise ModelParameterError(f"max_workers must be >= 1, got {max_workers!r}")
    if workers == 1 or len(specs) <= 1:
        return _run_serial(fn, specs)

    # With observability enabled, workers run wrapped: each returns its
    # metric delta and span subtree alongside the result, merged below
    # only when the whole batch succeeds.
    instrumented = obs.is_enabled()
    task = _ObsTask(fn) if instrumented else fn
    try:
        raw = _run_pool(task, specs, workers)
    except (BrokenProcessPool, OSError):
        # Worker death or no pool primitives in this environment.  Specs
        # are deterministic, so an inline retry is exact — a genuinely
        # crashing fn will crash the interpreter here too, which is the
        # honest outcome.  The retry uses the raw fn: its instruments
        # land on the live registry directly, and no partial pool
        # payloads were merged, so nothing is counted twice.
        return _run_serial(fn, specs)
    if instrumented:
        return _merge_payloads(raw)
    return raw


def scatter(items: Sequence[T], parts: int) -> List[Sequence[T]]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Useful for workloads whose per-item cost is tiny (Monte Carlo
    boards): parallelise over chunks, keep per-item order inside each.

    Guarantees:

    * every returned chunk is non-empty — asking for more chunks than
      there are items yields ``len(items)`` singleton chunks, and an
      empty input yields no chunks at all;
    * concatenating the chunks reproduces ``items`` exactly, whatever
      ``parts`` is — chunking never drops, duplicates or reorders.
    """
    if parts < 1:
        raise ModelParameterError(f"parts must be >= 1, got {parts!r}")
    n = len(items)
    parts = min(parts, n) if n else 0
    chunks: List[Sequence[T]] = []
    start = 0
    for k in range(parts):
        size = n // parts + (1 if k < n % parts else 0)
        chunks.append(items[start : start + size])
        start += size
    return [chunk for chunk in chunks if len(chunk)]


__all__ = ["parallel_map", "scatter", "default_worker_count"]
