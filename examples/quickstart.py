#!/usr/bin/env python
"""Quickstart: harvest one hour of office light with the proposed MPPT.

Builds the paper-prototype platform around the SANYO AM-1815 cell, runs
it for an hour at a steady 500 lux of fluorescent office light, and
prints the energy accounting — the smallest end-to-end use of the
library's public API.

Run:  python examples/quickstart.py
"""

from repro import BuckBoostConverter, QuasiStaticSimulator, SampleHoldMPPT, am_1815
from repro.env import constant_bench
from repro.sim import precompute_conditions
from repro.units import si_format


def main() -> None:
    cell = am_1815()
    controller = SampleHoldMPPT(assume_started=True)
    conditions = precompute_conditions(cell, constant_bench(500.0), duration=3600.0, dt=1.0)
    simulator = QuasiStaticSimulator(controller, conditions, converter=BuckBoostConverter())

    summary = simulator.run(duration=3600.0, dt=1.0)

    print(f"cell:                {cell.name} ({cell.parameters.area_cm2:g} cm^2)")
    print(f"light:               500 lux fluorescent, 1 hour")
    print(f"samples taken:       {controller.sample_count} "
          f"(one every {controller.config.astable.period:.1f} s)")
    print(f"HELD_SAMPLE:         {controller.held_sample:.3f} V "
          f"(regulating the cell at {controller.held_sample / controller.config.alpha:.3f} V)")
    print()
    print(f"ideal MPP energy:    {si_format(summary.energy_ideal, 'J')}")
    print(f"extracted at cell:   {si_format(summary.energy_at_cell, 'J')} "
          f"({summary.tracking_efficiency * 100:.2f} % tracking efficiency)")
    print(f"delivered to store:  {si_format(summary.energy_delivered, 'J')}")
    print(f"metrology overhead:  {si_format(summary.energy_overhead, 'J')} "
          f"({si_format(summary.energy_overhead / summary.duration, 'W')} average)")
    print(f"net harvest:         {si_format(summary.net_energy, 'J')} "
          f"({summary.net_harvest_ratio * 100:.1f} % of ideal)")


if __name__ == "__main__":
    main()
