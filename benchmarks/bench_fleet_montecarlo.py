"""Fleet-engine gate — vectorized Monte Carlo vs the serial scalar pass.

The fleet engine's pitch is that one NumPy pass over a population beats
building and solving one scalar circuit per board: no per-board Python
interpreter time.  This bench holds it to that pitch at 256 boards: the
fleet path must clear **5x** the serial scalar engine's boards-per-second
measured in the same run, the two populations must agree to solver
tolerance, and both measurements land in ``BENCH_perf.json`` so the
ratio is tracked across changes.
"""

import numpy as np

from repro.analysis.montecarlo import run_sample_hold_montecarlo
from repro.sim.telemetry import measure, record_perf

BOARDS = 256
MIN_SPEEDUP = 5.0
_FLEET_ROUNDS = 3


def test_fleet_montecarlo_speedup(benchmark, save_result):
    # Warm both paths once: imports, NumPy's allocator.  The measured
    # rounds then time steady state.
    run_sample_hold_montecarlo(boards=8, engine="fleet")
    run_sample_hold_montecarlo(boards=8, engine="scalar")

    def timed_run():
        with measure("montecarlo_scalar_256", steps=BOARDS) as scalar_perf:
            scalar_result = run_sample_hold_montecarlo(boards=BOARDS, engine="scalar")
        record_perf(scalar_perf, note="scalar engine, serial")

        fleet_result = None
        best = None
        for _ in range(_FLEET_ROUNDS):
            with measure("fleet_montecarlo_256", steps=BOARDS) as fleet_perf:
                fleet_result = run_sample_hold_montecarlo(
                    boards=BOARDS, engine="fleet"
                )
            if best is None or fleet_perf.wall_s < best.wall_s:
                best = fleet_perf
        record_perf(best, note=f"fleet engine (min of {_FLEET_ROUNDS})")
        return scalar_result, scalar_perf, fleet_result, best

    scalar_result, scalar_perf, fleet_result, fleet_perf = benchmark.pedantic(
        timed_run, rounds=1, iterations=1
    )

    # Same draw matrix, same physics: the populations agree to solver
    # tolerance (the fleet replaces the per-board MNA solve with a
    # vectorized bisection of the same load line).
    assert np.allclose(
        np.asarray(scalar_result.ratios),
        np.asarray(fleet_result.ratios),
        rtol=1e-9,
        atol=1e-12,
    ), "fleet and scalar populations diverged"

    speedup = fleet_perf.steps_per_s / scalar_perf.steps_per_s
    save_result(
        "fleet_montecarlo",
        f"fleet MC: {BOARDS} boards in {fleet_perf.wall_s:.3f} s "
        f"({fleet_perf.steps_per_s:.0f} boards/s) vs serial scalar "
        f"{scalar_perf.wall_s:.3f} s ({scalar_perf.steps_per_s:.0f} boards/s) "
        f"— x{speedup:.1f} (gate x{MIN_SPEEDUP:.0f})",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fleet engine speedup regressed: x{speedup:.2f} over serial scalar "
        f"< required x{MIN_SPEEDUP:.1f}"
    )
