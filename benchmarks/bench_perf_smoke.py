"""Perf smoke — a fast throughput gate for the quasi-static engine.

A deliberately short slice of the E8 comparison (one hour, all nine
techniques, all three scenarios) run through the precompute fast path.
It asserts a steps-per-second floor — set far below what the optimised
engine achieves but well above the original per-step path — so a
regression that silently disables the condition cache or the batch
solver fails loudly, and it appends the measurement to the
``BENCH_perf.json`` ledger for cross-PR tracking.

``test_obs_overhead`` is the companion gate for the observability
layer: the same slice with :mod:`repro.obs` enabled must stay within
10 % of the disabled run (min-of-rounds on both sides to shave timing
noise), and the enabled measurement lands in the ledger with its
counters attached so the trajectory records *why* throughput moved.

On top of the static floor, each run is checked against the *ledger*:
after the figure is appended, :func:`repro.obs.benchreport.analyze_ledger`
fails the smoke test if throughput fell below 50 % of the median of the
earlier entries for the same experiment key on the same host
fingerprint.  Entries from other machines (or from before fingerprints
existed) are skipped, so the gate never trips on a fresh runner.
"""

import time

import repro.obs as obs
from repro.env.profiles import HOURS
from repro.experiments import comparison
from repro.obs import export
from repro.sim.telemetry import latest, measure, record_perf

# The seed engine managed ~2 100 steps/s on the reference container; the
# precompute+batch path exceeds 20 000.  The floor splits the difference
# with generous headroom for slower CI machines.
STEPS_PER_S_FLOOR = 4000.0


def test_perf_smoke(benchmark, save_result, assert_not_regressed):
    duration = 1.0 * HOURS
    dt = 10.0
    steps = 9 * 3 * int(duration / dt)

    def timed_run():
        with measure("perf_smoke_1h_dt10", steps=steps) as perf:
            results = comparison.run_comparison(duration=duration, dt=dt)
        record_perf(perf, note="bench_perf_smoke")
        return results, perf

    results, perf = benchmark.pedantic(timed_run, rounds=1, iterations=1)

    assert_not_regressed("perf_smoke_1h_dt10")

    assert len(results) == 27
    assert all(r.summary.duration == duration for r in results)
    assert perf.steps_per_s > STEPS_PER_S_FLOOR, (
        f"engine throughput regressed: {perf.steps_per_s:.0f} steps/s "
        f"< floor {STEPS_PER_S_FLOOR:.0f}"
    )

    entry = latest("perf_smoke_1h_dt10")
    assert entry is not None and entry["steps"] == steps

    save_result(
        "perf_smoke",
        f"perf smoke: {steps} steps in {perf.wall_s:.2f} s "
        f"({perf.steps_per_s:.0f} steps/s; floor {STEPS_PER_S_FLOOR:.0f})",
    )


# Compiled-tier smoke: the same one-hour slice through the fused lane
# kernel + LUT engine.  The cold pass (program build: precompute, LUT fit and
# validation, lane compilation, JIT when numba is present) is recorded
# under its own ledger key and never floor-gated; the warm pass must
# clear a floor an order of magnitude above the scalar gate.  The full
# 215 k steps/s acceptance gate lives in bench_compiled_comparison.py
# on the 24 h workload, where per-call overhead amortises out.
COMPILED_SMOKE_FLOOR = 50_000.0


def test_perf_smoke_compiled(save_result, assert_not_regressed):
    from repro.sim.compiled import HAVE_NUMBA, clear_program_cache

    duration = 1.0 * HOURS
    dt = 10.0
    steps = 9 * 3 * int(duration / dt)
    backend = "numba-jitted" if HAVE_NUMBA else "interpreted fallback"

    clear_program_cache()
    with measure("perf_smoke_compiled_1h_dt10_cold", steps=steps) as cold:
        cold_results = comparison.run_comparison(
            duration=duration, dt=dt, engine="compiled"
        )
    record_perf(cold, note=f"cold: program build ({backend})")

    with measure("perf_smoke_compiled_1h_dt10", steps=steps) as warm:
        results = comparison.run_comparison(
            duration=duration, dt=dt, engine="compiled"
        )
    record_perf(warm, note=f"warm kernels ({backend})")
    assert_not_regressed("perf_smoke_compiled_1h_dt10")

    assert len(cold_results) == len(results) == 27
    for a, b in zip(cold_results, results):
        assert a.summary.energy_delivered == b.summary.energy_delivered

    assert warm.steps_per_s > COMPILED_SMOKE_FLOOR, (
        f"compiled tier smoke regressed: {warm.steps_per_s:.0f} steps/s "
        f"< floor {COMPILED_SMOKE_FLOOR:.0f} ({backend})"
    )
    save_result(
        "perf_smoke_compiled",
        f"compiled perf smoke ({backend}): {steps} steps — "
        f"cold {cold.wall_s:.3f} s ({cold.steps_per_s:.0f}/s), "
        f"warm {warm.wall_s:.3f} s ({warm.steps_per_s:.0f}/s; "
        f"floor {COMPILED_SMOKE_FLOOR:.0f})",
    )


# Instrumentation budget: enabled-vs-disabled wall time on the smoke
# slice.  The hooks pattern costs one attribute load + None test per
# site when disabled and the tracer samples ~16 steps per run when
# enabled (true cost measured ≈4 %), so 10 % is generous — a regression
# here means someone put per-step work on the hot path.
OBS_OVERHEAD_CEILING = 1.10
_ROUNDS = 4


def _one_run(duration: float, dt: float) -> float:
    t0 = time.perf_counter()
    comparison.run_comparison(duration=duration, dt=dt)
    return time.perf_counter() - t0


def test_obs_overhead(save_result, assert_not_regressed):
    duration = 1.0 * HOURS
    dt = 10.0
    steps = 9 * 3 * int(duration / dt)

    assert not obs.is_enabled()
    _one_run(duration, dt)  # warm-up: imports, allocator, branch caches

    # Interleave the two modes and take min-of-rounds on both sides:
    # back-to-back A/A then B/B measurement folds machine-wide drift
    # (thermal, frequency scaling) straight into the ratio.
    disabled_s = enabled_s = float("inf")
    counters = {}
    try:
        for _ in range(_ROUNDS):
            obs.disable()
            disabled_s = min(disabled_s, _one_run(duration, dt))
            obs.reset()
            obs.enable()
            enabled_s = min(enabled_s, _one_run(duration, dt))
            counters = export.counters_dict()
    finally:
        obs.disable()
        obs.reset()

    with measure("perf_smoke_obs_1h_dt10", steps=steps) as perf:
        pass
    perf.wall_s = enabled_s
    record_perf(perf, note="obs enabled (min of rounds)", counters=counters)
    assert_not_regressed("perf_smoke_obs_1h_dt10")

    assert counters.get("solver.lambertw_calls", 0) > 0
    ratio = enabled_s / disabled_s
    save_result(
        "obs_overhead",
        f"obs overhead: enabled {enabled_s:.3f} s vs disabled {disabled_s:.3f} s "
        f"(x{ratio:.3f}; ceiling x{OBS_OVERHEAD_CEILING:.2f})",
    )
    assert ratio <= OBS_OVERHEAD_CEILING, (
        f"observability overhead too high: enabled/disabled = {ratio:.3f} "
        f"> {OBS_OVERHEAD_CEILING}"
    )
