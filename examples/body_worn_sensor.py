#!/usr/bin/env python
"""Body-worn sensor: the paper's motivating mobile-lighting scenario.

A body-worn device sees office light for most of the day and full sun
over a lunchtime walk (the semi-mobile profile of Fig. 2).  This example
runs a 24-hour day under every MPPT technique in the library and prints
the league table — the point the paper's introduction makes: power-
hungry outdoor trackers lose their winnings indoors, fixed indoor
schemes leave the outdoor hour on the table, and the 8 uA S&H takes
both.

Run:  python examples/body_worn_sensor.py
"""

from repro import BuckBoostConverter, QuasiStaticSimulator, SampleHoldMPPT, am_1815
from repro.baselines import (
    FixedVoltage,
    HillClimbing,
    IdealMPPT,
    NoMPPT,
    PeriodicFOCV,
    PhotodiodeReference,
    PilotCell,
)
from repro.env import semi_mobile_24h
from repro.sim import precompute_conditions
from repro.units import si_format

HOURS = 3600.0


def main() -> None:
    cell = am_1815()
    controllers = [
        IdealMPPT(),
        SampleHoldMPPT(assume_started=True),
        HillClimbing(),
        PeriodicFOCV(),
        PilotCell(),
        PhotodiodeReference(),
        FixedVoltage(),
        NoMPPT(),
    ]

    print(f"Scenario: semi-mobile 24 h (lab desk, outdoors 12:00-13:00), cell {cell.name}\n")
    # The light and the cell's response to it do not depend on the
    # controller, so every technique steps the same condition trace.
    conditions = precompute_conditions(cell, semi_mobile_24h(), duration=24.0 * HOURS, dt=5.0)
    results = []
    for controller in controllers:
        sim = QuasiStaticSimulator(
            controller,
            conditions,
            converter=BuckBoostConverter(),
            supply_voltage=3.0,
            record=False,
        )
        summary = sim.run(duration=24.0 * HOURS, dt=5.0)
        results.append((controller.name, summary))

    results.sort(key=lambda item: item[1].net_energy, reverse=True)
    ideal_net = max(s.energy_delivered for _, s in results)

    header = f"{'technique':<20} {'net energy':>12} {'overhead':>12} {'track.eff':>10} {'vs best':>8}"
    print(header)
    print("-" * len(header))
    for name, summary in results:
        print(
            f"{name:<20} {si_format(summary.net_energy, 'J'):>12} "
            f"{si_format(summary.energy_overhead, 'J'):>12} "
            f"{summary.tracking_efficiency * 100:>9.1f}% "
            f"{summary.net_energy / ideal_net * 100:>7.1f}%"
        )

    print()
    proposed = next(s for n, s in results if "S&H" in n)
    fixed = next(s for n, s in results if n == "fixed-voltage")
    gain = (proposed.net_energy / fixed.net_energy - 1.0) * 100.0
    print(f"The proposed S&H nets {gain:+.1f} % over the fixed-voltage indoor state of the art")
    print("on this mixed indoor/outdoor day, while drawing only "
          f"{si_format(proposed.energy_overhead / summary.duration, 'W')} for itself.")


if __name__ == "__main__":
    main()
