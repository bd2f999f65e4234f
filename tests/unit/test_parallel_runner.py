"""The parallel experiment runner: determinism, ordering, degradation."""

import os

import pytest

from repro.env.profiles import HOURS
from repro.errors import ModelParameterError
from repro.experiments.comparison import run_comparison
from repro.sim.parallel import default_worker_count, parallel_map, scatter


def _square(x):
    # Module-level so it survives pickling into pool workers.
    return x * x


def _crash_unless_pid(spec):
    """Kill any process that isn't the one named in the spec.

    ``spec`` is ``(parent_pid, value)``; in a pool worker the pids
    differ and the hard exit breaks the pool, while the serial retry
    (same process) returns normally — letting one spec exercise both
    the crash path and the fallback path.
    """
    parent_pid, value = spec
    if os.getpid() != parent_pid:
        os._exit(1)
    return value


def _raise_value_error(x):
    raise ValueError(f"deterministic failure on {x}")


class TestParallelMap:
    def test_serial_mode_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], max_workers=1) == [9, 1, 4]

    def test_process_mode_matches_serial(self):
        items = list(range(12))
        serial = parallel_map(_square, items, max_workers=1)
        pooled = parallel_map(_square, items, max_workers=2)
        assert pooled == serial

    def test_auto_mode_runs_inline_for_single_worker(self):
        # Closures are unpicklable — this only works if no pool is spawned.
        assert parallel_map(lambda x: x + 1, [1, 2], max_workers=1) == [2, 3]

    def test_auto_mode_runs_inline_for_single_item(self):
        assert parallel_map(lambda x: x + 1, [41], max_workers=4) == [42]

    def test_empty_items(self):
        assert parallel_map(_square, [], max_workers=1) == []

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ModelParameterError):
            parallel_map(_square, [1], max_workers=0)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestWorkerRecovery:
    def test_worker_crash_falls_back_to_serial(self):
        specs = [(os.getpid(), k) for k in range(4)]
        # The pool workers all hard-exit; the serial retry completes.
        assert parallel_map(_crash_unless_pid, specs, max_workers=2) == [
            0,
            1,
            2,
            3,
        ]

    def test_deterministic_exception_propagates_as_itself(self):
        # fn raising is not a crash: no silent serial retry, no wrapping.
        with pytest.raises(ValueError, match="deterministic failure"):
            parallel_map(_raise_value_error, [1, 2], max_workers=2)


class TestScatter:
    def test_balanced_contiguous_chunks(self):
        chunks = scatter(list(range(7)), 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4], [5, 6]]

    def test_more_parts_than_items(self):
        chunks = scatter([1, 2], 5)
        assert [list(c) for c in chunks] == [[1], [2]]

    def test_empty_items(self):
        assert scatter([], 3) == []

    def test_invalid_parts_rejected(self):
        with pytest.raises(ModelParameterError):
            scatter([1], 0)


class TestParallelComparison:
    def test_parallel_equals_serial(self):
        kwargs = dict(
            duration=0.2 * HOURS,
            dt=30.0,
            scenarios=["office-desk", "outdoor"],
            techniques=["ideal-oracle", "proposed-S&H-FOCV", "no-MPPT-direct"],
        )
        serial = run_comparison(parallel=False, **kwargs)
        pooled = run_comparison(parallel=True, max_workers=2, **kwargs)
        assert len(pooled) == len(serial) == 6
        for s, p in zip(serial, pooled):
            assert (p.technique, p.scenario) == (s.technique, s.scenario)
            assert p.summary.__dict__ == s.summary.__dict__
