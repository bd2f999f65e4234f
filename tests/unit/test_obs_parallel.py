"""Exactly-once metric aggregation across parallel_map's execution modes.

The worker-side protocol (snapshot -> delta -> parent merge) must
produce the same counts as a serial run, whether specs execute on the
pool, inline, or through the broken-pool serial retry — and never
double-count a spec on the retry path.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.obs as obs
from repro.sim import parallel
from repro.sim.parallel import parallel_map

WORK_COUNTER = "test.obs.pool_work"


def _counted_work(x):
    # Module-level so it pickles into pool workers.  Direct registry use
    # works regardless of the enabled flag; the span only records when
    # the worker-side wrapper has enabled tracing.
    obs.REGISTRY.counter(WORK_COUNTER).inc()
    with obs.TRACER.span("spec-span"):
        pass
    return x * 2


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.REGISTRY.reset()
    obs.TRACER.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()
    obs.TRACER.reset()


class TestExactlyOnce:
    def test_pool_counts_each_spec_once(self):
        obs.enable()
        results = parallel_map(_counted_work, list(range(8)), max_workers=2)
        assert results == [x * 2 for x in range(8)]
        assert obs.REGISTRY.counter(WORK_COUNTER).value == 8.0

    def test_pool_merges_worker_spans_under_parallel_map(self):
        obs.enable()
        parallel_map(_counted_work, list(range(4)), max_workers=2)
        graft = obs.TRACER.root.children["parallel_map"]
        assert graft.children["spec-span"].count == 4

    def test_serial_mode_counts_once(self):
        obs.enable()
        parallel_map(_counted_work, list(range(5)), max_workers=1)
        assert obs.REGISTRY.counter(WORK_COUNTER).value == 5.0

    def test_broken_pool_retry_counts_once(self, monkeypatch):
        """The serial retry runs the *raw* fn, so nothing merges twice."""

        def _explode(task, specs, workers):
            raise BrokenProcessPool("simulated worker death")

        monkeypatch.setattr(parallel, "_run_pool", _explode)
        obs.enable()
        results = parallel_map(_counted_work, list(range(6)), max_workers=2)
        assert results == [x * 2 for x in range(6)]
        assert obs.REGISTRY.counter(WORK_COUNTER).value == 6.0

    def test_disabled_pool_returns_plain_results(self):
        assert not obs.is_enabled()
        results = parallel_map(_counted_work, list(range(4)), max_workers=2)
        assert results == [0, 2, 4, 6]
        # Parent-side registry untouched: workers counted into their own
        # (discarded) registries and no merge happened.
        assert obs.REGISTRY.counter(WORK_COUNTER).value == 0.0

    def test_worker_histogram_records_per_spec_wall_time(self):
        obs.enable()
        parallel_map(_counted_work, list(range(6)), max_workers=2)
        hist = obs.REGISTRY.histogram("parallel.spec_seconds")
        assert hist.count == 6
