"""Perf smoke — a fast throughput gate for the quasi-static engine.

A deliberately short slice of the E8 comparison (one hour, all nine
techniques, all three scenarios) run through the precompute fast path.
It asserts a steps-per-second floor — set far below what the optimised
engine achieves but well above the original per-step path — so a
regression that silently disables the condition cache or the batch
solver fails loudly.

``test_obs_overhead`` is the companion gate for the observability
layer: the same slice with :mod:`repro.obs` enabled must stay within
10 % of the disabled run (min-of-rounds on both sides to shave timing
noise).
"""

import time

import repro.obs as obs
from repro.env.profiles import HOURS
from repro.experiments import comparison
from repro.obs import export

# The seed engine managed ~2 100 steps/s on the reference container; the
# precompute+batch path exceeds 20 000.  The floor splits the difference
# with generous headroom for slower CI machines.
STEPS_PER_S_FLOOR = 4000.0


def test_perf_smoke(benchmark, save_result):
    duration = 1.0 * HOURS
    dt = 10.0
    steps = 9 * 3 * int(duration / dt)

    def timed_run():
        t0 = time.perf_counter()
        results = comparison.run_comparison(duration=duration, dt=dt)
        return results, time.perf_counter() - t0

    results, wall_s = benchmark.pedantic(timed_run, rounds=1, iterations=1)
    steps_per_s = steps / wall_s

    assert len(results) == 27
    assert all(r.summary.duration == duration for r in results)
    assert steps_per_s > STEPS_PER_S_FLOOR, (
        f"engine throughput regressed: {steps_per_s:.0f} steps/s "
        f"< floor {STEPS_PER_S_FLOOR:.0f}"
    )

    save_result(
        "perf_smoke",
        f"perf smoke: {steps} steps in {wall_s:.2f} s "
        f"({steps_per_s:.0f} steps/s; floor {STEPS_PER_S_FLOOR:.0f})",
    )


# Compiled-tier smoke: the same one-hour slice through the fused lane
# kernel + LUT engine.  The cold pass (program build: precompute, LUT fit and
# validation, lane compilation) is reported
# but never floor-gated; the warm pass must
# clear a floor an order of magnitude above the scalar gate.  The full
# 215 k steps/s acceptance gate lives in bench_compiled_comparison.py
# on the 24 h workload, where per-call overhead amortises out.
COMPILED_SMOKE_FLOOR = 50_000.0


def test_perf_smoke_compiled(save_result):
    from repro.sim.compiled import clear_program_cache

    duration = 1.0 * HOURS
    dt = 10.0
    steps = 9 * 3 * int(duration / dt)

    def compiled_run():
        t0 = time.perf_counter()
        results = comparison.run_comparison(
            duration=duration, dt=dt, engine="compiled"
        )
        return results, time.perf_counter() - t0

    clear_program_cache()
    cold_results, cold_s = compiled_run()
    results, warm_s = compiled_run()
    warm_steps_per_s = steps / warm_s

    assert len(cold_results) == len(results) == 27
    for a, b in zip(cold_results, results):
        assert a.summary.energy_delivered == b.summary.energy_delivered

    assert warm_steps_per_s > COMPILED_SMOKE_FLOOR, (
        f"compiled tier smoke regressed: {warm_steps_per_s:.0f} steps/s "
        f"< floor {COMPILED_SMOKE_FLOOR:.0f}"
    )
    save_result(
        "perf_smoke_compiled",
        f"compiled perf smoke: {steps} steps — "
        f"cold {cold_s:.3f} s ({steps / cold_s:.0f}/s), "
        f"warm {warm_s:.3f} s ({warm_steps_per_s:.0f}/s; "
        f"floor {COMPILED_SMOKE_FLOOR:.0f})",
    )


# Instrumentation budget: enabled-vs-disabled wall time on the smoke
# slice.  The hooks pattern costs one attribute load + None test per
# site when disabled, and an enabled lane run adds one span and three
# counter flushes, none per step (true cost measured ≈3 %), so 10 % is
# generous — a regression here means someone put per-step work on the
# hot path.
OBS_OVERHEAD_CEILING = 1.10
_ROUNDS = 6


def _one_run(duration: float, dt: float) -> float:
    t0 = time.perf_counter()
    comparison.run_comparison(duration=duration, dt=dt)
    return time.perf_counter() - t0


def test_obs_overhead(save_result):
    duration = 1.0 * HOURS
    dt = 10.0

    assert not obs.is_enabled()
    _one_run(duration, dt)  # warm-up: imports, allocator, branch caches

    # Each round times the two modes in ABBA order (disabled, enabled,
    # enabled, disabled), and min-of-rounds is taken on both sides: a
    # machine-wide drift within a round (thermal, frequency scaling)
    # then weighs on both modes alike instead of folding into the ratio.
    timed = {False: float("inf"), True: float("inf")}
    counters = {}

    def timed_run(enabled: bool) -> None:
        if enabled:
            obs.reset()
            obs.enable()
        else:
            obs.disable()
        timed[enabled] = min(timed[enabled], _one_run(duration, dt))
        if enabled:
            counters.update(export.counters_dict())

    try:
        for _ in range(_ROUNDS):
            for enabled in (False, True, True, False):
                timed_run(enabled)
    finally:
        obs.disable()
        obs.reset()

    disabled_s, enabled_s = timed[False], timed[True]
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
