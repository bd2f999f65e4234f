"""Compiled-tier throughput gate: the full 24 h comparison at dt=10.

The compiled tier's acceptance target: the fused lane kernel + LUT engine must
sustain **>= 215 000 quasi-static steps per second** on the canonical
E8 workload (9 techniques x 3 scenarios x 8 640 steps = 233 280 steps),
measured *warm* — i.e. with the per-scenario program cache populated.

Warm and cold are recorded as separate ledger entries because they
answer different questions:

* ``compiled_comparison_24h_dt10_cold`` — first run from an empty
  program cache: batch Lambert-W precompute, LUT build + validation
  gate, lane compilation (and Numba JIT when numba is importable).
  This is the fixed setup cost a user pays once per (cell, scenario,
  horizon) tuple.
* ``compiled_comparison_24h_dt10`` — the steady-state figure the
  215 k floor applies to, and the one the ledger-relative regression
  check (same rules as bench_perf_smoke: fail under 50 % of the
  same-host median) tracks across PRs.

Folding the two into one number would let a JIT/cache regression hide
inside warm throughput headroom, or a kernel regression hide behind a
faster build.
"""

from repro.env.profiles import HOURS
from repro.experiments import comparison
from repro.sim.compiled import HAVE_NUMBA, clear_program_cache
from repro.sim.telemetry import latest, measure, record_perf

DURATION = 24.0 * HOURS
DT = 10.0
STEPS = 9 * 3 * int(DURATION / DT)  # 233 280

# The ISSUE 6 acceptance floor.  The interpreted (no-numba) kernels
# clear it with ~4x headroom on the reference container; numba-jitted
# kernels clear it by far more.  A machine that cannot hold 215 k
# steps/s warm is a genuine regression, not timing noise.
COMPILED_STEPS_PER_S_FLOOR = 215_000.0


def _run():
    return comparison.run_comparison(duration=DURATION, dt=DT, engine="compiled")


def test_compiled_comparison_throughput(benchmark, save_result, assert_not_regressed):
    backend = "numba-jitted" if HAVE_NUMBA else "interpreted fallback"

    def timed_run():
        # Cold: empty program cache -> precompute + LUT build +
        # validation (+ JIT).  Recorded, never floor-gated: setup cost
        # is machine- and backend-dependent by design.
        clear_program_cache()
        with measure("compiled_comparison_24h_dt10_cold", steps=STEPS) as cold:
            cold_results = _run()
        record_perf(cold, note=f"cold: precompute + LUT build ({backend})")

        # Warm: the cache hit path — pure kernel throughput.
        with measure("compiled_comparison_24h_dt10", steps=STEPS) as warm:
            results = _run()
        record_perf(warm, note=f"warm kernels ({backend})")
        return cold_results, results, cold, warm

    cold_results, results, cold, warm = benchmark.pedantic(
        timed_run, rounds=1, iterations=1
    )

    assert_not_regressed("compiled_comparison_24h_dt10")
    assert len(cold_results) == len(results) == 27
    assert all(r.summary.duration == DURATION for r in results)
    # Same cache state or not, the physics must not move a bit.
    for a, b in zip(cold_results, results):
        assert a.summary.energy_delivered == b.summary.energy_delivered

    assert warm.steps_per_s >= COMPILED_STEPS_PER_S_FLOOR, (
        f"compiled tier too slow: {warm.steps_per_s:.0f} steps/s warm "
        f"< floor {COMPILED_STEPS_PER_S_FLOOR:.0f} ({backend})"
    )

    entry = latest("compiled_comparison_24h_dt10")
    assert entry is not None and entry["steps"] == STEPS

    save_result(
        "compiled_comparison_perf",
        f"compiled comparison ({backend}): {STEPS} steps\n"
        f"  cold (build + first run): {cold.wall_s:.2f} s "
        f"({cold.steps_per_s:.0f} steps/s)\n"
        f"  warm (cached programs):   {warm.wall_s:.2f} s "
        f"({warm.steps_per_s:.0f} steps/s; floor "
        f"{COMPILED_STEPS_PER_S_FLOOR:.0f})",
    )
