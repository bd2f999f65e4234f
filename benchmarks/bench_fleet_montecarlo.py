"""Fleet-engine gate — vectorized Monte Carlo vs the serial scalar pass.

The fleet engine's pitch is that one NumPy pass over a population beats
building and solving one scalar circuit per board: no per-board Python
interpreter time.  This bench holds it to that pitch at 256 boards: the
fleet path must clear **5x** the serial scalar engine's boards-per-second
measured in the same run, and the two populations must agree to
solver tolerance.
"""

import time

import numpy as np

from repro.analysis.montecarlo import run_sample_hold_montecarlo

BOARDS = 256
MIN_SPEEDUP = 5.0
_FLEET_ROUNDS = 3


def test_fleet_montecarlo_speedup(benchmark, save_result):
    # Warm both paths once: imports, NumPy's allocator.  The measured
    # rounds then time steady state.
    run_sample_hold_montecarlo(boards=8, engine="fleet")
    run_sample_hold_montecarlo(boards=8, engine="scalar")

    def timed(engine):
        t0 = time.perf_counter()
        result = run_sample_hold_montecarlo(boards=BOARDS, engine=engine)
        return result, time.perf_counter() - t0

    def timed_run():
        scalar_result, scalar_s = timed("scalar")
        fleet_result, fleet_s = min(
            (timed("fleet") for _ in range(_FLEET_ROUNDS)), key=lambda rt: rt[1]
        )
        return scalar_result, scalar_s, fleet_result, fleet_s

    scalar_result, scalar_s, fleet_result, fleet_s = benchmark.pedantic(
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

    speedup = scalar_s / fleet_s
    save_result(
        "fleet_montecarlo",
        f"fleet MC: {BOARDS} boards in {fleet_s:.3f} s "
        f"({BOARDS / fleet_s:.0f} boards/s) vs serial scalar "
        f"{scalar_s:.3f} s ({BOARDS / scalar_s:.0f} boards/s) "
        f"— x{speedup:.1f} (gate x{MIN_SPEEDUP:.0f})",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fleet engine speedup regressed: x{speedup:.2f} over serial scalar "
        f"< required x{MIN_SPEEDUP:.1f}"
    )
