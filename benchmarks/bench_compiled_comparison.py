"""Compiled-tier throughput gate: the full 24 h comparison at dt=10.

The compiled tier's acceptance target: the fused lane kernel + LUT engine must
sustain **>= 215 000 quasi-static steps per second** on the canonical
E8 workload (9 techniques x 3 scenarios x 8 640 steps = 233 280 steps),
measured *warm* — i.e. with the per-scenario program cache populated.

Warm and cold are timed and reported separately because they answer
different questions:

* cold — first run from an empty program cache: batch Lambert-W
  precompute, LUT build + validation gate, lane compilation.  This is
  the fixed setup cost a user
  pays once per (cell, scenario, horizon) tuple.  A second cold run
  finds the process-wide P(V) lattice warm (``repro.pv.lut``) and must
  give the first cold run's results bit for bit.
* warm — the steady-state figure the 215 k floor applies to.

Folding the two into one number would let a cache regression hide
inside warm throughput headroom, or a kernel regression hide behind a
faster build.
"""

import time

from repro.env.profiles import HOURS
from repro.experiments import comparison
from repro.pv.lut import clear_lattice
from repro.sim.compiled import clear_program_cache

DURATION = 24.0 * HOURS
DT = 10.0
STEPS = 9 * 3 * int(DURATION / DT)  # 233 280

# The ISSUE 6 acceptance floor.  The interpreted kernel clears it with
# ~4x headroom on the reference container.  A machine that cannot hold
# 215 k steps/s warm is a genuine regression, not timing noise.
COMPILED_STEPS_PER_S_FLOOR = 215_000.0


def _run():
    t0 = time.perf_counter()
    results = comparison.run_comparison(duration=DURATION, dt=DT, engine="compiled")
    return results, time.perf_counter() - t0


def test_compiled_comparison_throughput(benchmark, save_result):
    def timed_run():
        # Cold: empty program cache and lattice -> precompute + LUT build +
        # validation.  Reported, never floor-gated: setup cost is
        # machine-dependent by design.
        clear_program_cache()
        clear_lattice()
        cold_results, cold_s = _run()
        # Cold again: empty program cache, lattice rows already built.
        clear_program_cache()
        relattice_results, relattice_s = _run()
        # Warm: the cache hit path — pure kernel throughput.
        results, warm_s = _run()
        return cold_results, relattice_results, results, cold_s, relattice_s, warm_s

    cold_results, relattice_results, results, cold_s, relattice_s, warm_s = (
        benchmark.pedantic(timed_run, rounds=1, iterations=1)
    )
    warm_steps_per_s = STEPS / warm_s

    assert len(cold_results) == len(results) == 27
    assert all(r.summary.duration == DURATION for r in results)
    # Same cache state or not, the physics must not move a bit.
    for a, b in zip(cold_results, results):
        assert a.summary.energy_delivered == b.summary.energy_delivered
    # Tables blended from a warm lattice equal the first cold build's.
    for a, b in zip(cold_results, relattice_results):
        assert (a.scenario, a.technique) == (b.scenario, b.technique)
        assert a.summary == b.summary, (a.scenario, a.technique)

    assert warm_steps_per_s >= COMPILED_STEPS_PER_S_FLOOR, (
        f"compiled tier too slow: {warm_steps_per_s:.0f} steps/s warm "
        f"< floor {COMPILED_STEPS_PER_S_FLOOR:.0f}"
    )

    save_result(
        "compiled_comparison_perf",
        f"compiled comparison: {STEPS} steps\n"
        f"  cold (build + first run): {cold_s:.2f} s "
        f"({STEPS / cold_s:.0f} steps/s)\n"
        f"  cold, lattice warm:       {relattice_s:.2f} s "
        f"({STEPS / relattice_s:.0f} steps/s)\n"
        f"  warm (cached programs):   {warm_s:.2f} s "
        f"({warm_steps_per_s:.0f} steps/s; floor "
        f"{COMPILED_STEPS_PER_S_FLOOR:.0f})",
    )
