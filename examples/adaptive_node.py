#!/usr/bin/env python
"""Energy-aware adaptive node: perpetual operation on harvested light.

Runs a sensor node with the energy-aware scheduler through two office
days: the report rate stretches overnight (the store sags), tightens
through the lit day, and the node never dies — the deployment story the
8 µA MPPT makes possible indoors.

Also closes the static energy budget with the neutrality analysis and
sizes the supercapacitor for the overnight gap.

The conditions for the whole horizon are precomputed once; the run then
steps along that trace in 3-hour chunks.

Run:  python examples/adaptive_node.py [hours]   (default 51)
"""

import sys

from repro import BuckBoostConverter, QuasiStaticSimulator, SampleHoldMPPT, Supercapacitor, am_1815
from repro.analysis import assess_neutrality, size_supercapacitor
from repro.core import PlatformConfig
from repro.env import office_desk_24h
from repro.node import EnergyAwareScheduler, SensorNode
from repro.sim import precompute_conditions
from repro.units import si_format

HOURS = 3600.0
CHUNK = 3.0 * HOURS
DT = 10.0


def main(hours: float = 51.0) -> None:
    cell = am_1815()
    environment = office_desk_24h()
    node = SensorNode(payload_bytes=16)

    # --- static budget check first -------------------------------------------
    report = assess_neutrality(
        cell,
        environment,
        load_power=lambda t: 20e-6,  # placeholder steady load for sizing
        overhead_power=27.7e-6,
    )
    print("Static daily budget (placeholder 20 uW load):")
    print(f"  harvest:   {si_format(report.harvest_energy_per_day, 'J')}/day")
    print(f"  overhead:  {si_format(report.overhead_energy_per_day, 'J')}/day")
    print(f"  margin:    {si_format(report.margin_per_day, 'J')}/day "
          f"({'neutral' if report.is_neutral else 'NET NEGATIVE'})")
    print(f"  longest dark gap: {report.longest_gap_seconds / HOURS:.1f} h -> "
          f"store >= {size_supercapacitor(report):.1f} F recommended\n")

    # --- dynamic two-day run ---------------------------------------------------
    storage = Supercapacitor(capacitance=10.0, rated_voltage=5.0, voltage=3.2)
    scheduler = EnergyAwareScheduler(
        node=node,
        storage=storage,
        v_survival=2.3,
        v_comfort=4.2,
        min_period=30.0,
        max_period=3600.0,
    )
    controller = SampleHoldMPPT(
        config=PlatformConfig.trimmed_for_cell(cell), assume_started=True
    )
    # One trace covers every chunk: a simulator steps along a single
    # trace, and each run() continues where the last one stopped.
    chunks = max(1, int(round(hours * HOURS / CHUNK)))
    sim = QuasiStaticSimulator(
        controller,
        precompute_conditions(cell, environment, chunks * CHUNK, DT),
        converter=BuckBoostConverter(),
        storage=storage,
        load=scheduler.power,
    )

    print(f"{'hour':>5} {'store(V)':>9} {'period(s)':>10} {'reports':>8} {'state':>12}")
    for chunk in range(1, chunks + 1):
        sim.run(CHUNK, dt=DT)
        state = "hibernating" if scheduler.hibernating else "running"
        print(
            f"{chunk * CHUNK / HOURS:>5.0f} {storage.voltage:>9.3f} {scheduler.current_period:>10.0f} "
            f"{scheduler.reports_sent:>8} {state:>12}"
        )

    summary = sim.summary
    print(f"\nover {chunks * CHUNK / HOURS:.0f} h: harvested {si_format(summary.energy_delivered, 'J')}, "
          f"node consumed {si_format(summary.energy_load, 'J')}, "
          f"{scheduler.reports_sent} reports sent")
    verdict = "sustainable" if storage.voltage >= 3.0 else "draining"
    print(f"store finished at {storage.voltage:.2f} V — {verdict}.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 51.0)
