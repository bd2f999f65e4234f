#!/usr/bin/env python
"""Office environment monitor: sizing a node for energy neutrality.

An indoor building-monitoring node (the application of [7][8]) runs off
the AM-1815 through the proposed MPPT and a supercapacitor.  This
example answers the deployment question: at each plausible desk light
level, what sensor report rate is energy-neutral?  Then it validates the
600-lux answer with a full 24-hour storage simulation, including the
overnight discharge.

Run:  python examples/office_monitor.py
"""

from repro import BuckBoostConverter, QuasiStaticSimulator, SampleHoldMPPT, Supercapacitor, am_1815
from repro.env import office_desk_24h
from repro.node import SensorNode
from repro.sim import precompute_conditions
from repro.units import si_format

HOURS = 3600.0


def main() -> None:
    cell = am_1815()
    node = SensorNode(payload_bytes=16)

    # --- part 1: neutral report period vs light level -------------------------
    print("Energy-neutral report period vs desk illuminance")
    print(f"({cell.name}, proposed MPPT at ~99.9 % tracking, converter ~88 %)\n")
    print(f"{'lux':>6} {'harvest':>10} {'neutral period':>16} {'reports/hour':>13}")
    for lux in (100.0, 200.0, 300.0, 500.0, 800.0):
        mpp = cell.mpp(lux)
        # Lights are on ~12.5 h/day; requires surviving the dark 11.5 h too.
        lit_fraction = 12.5 / 24.0
        converter_efficiency = 0.88
        overhead = 8.4e-6 * 3.3
        harvest = mpp.power * 0.999 * converter_efficiency * lit_fraction - overhead
        if harvest <= node.sleep_power:
            print(f"{lux:>6.0f} {si_format(max(harvest, 0.0), 'W'):>10} {'not viable':>16}")
            continue
        period = node.neutral_report_period(harvest)
        print(
            f"{lux:>6.0f} {si_format(harvest, 'W'):>10} {period:>14.1f} s {3600.0 / period:>12.1f}"
        )

    # --- part 2: validate with a 24-hour storage run ---------------------------
    report_period = 90.0
    node = SensorNode(report_period=report_period, payload_bytes=16)
    load = node.load()
    storage = Supercapacitor(capacitance=1.0, rated_voltage=5.0, voltage=3.0)
    dt = 5.0
    controller = SampleHoldMPPT(assume_started=True)
    sim = QuasiStaticSimulator(
        controller,
        precompute_conditions(cell, office_desk_24h(), duration=24.0 * HOURS, dt=dt),
        converter=BuckBoostConverter(),
        storage=storage,
        # The engine holds the load for a whole step: pass each step's
        # average, not the power at its start (a report burst would
        # otherwise be charged for all 5 s).
        load=lambda t: load.mean_power(t, dt),
    )
    summary = sim.run(duration=24.0 * HOURS, dt=dt)

    print(f"\n24-hour validation at a {report_period:.0f} s report period:")
    print(f"  node average load:      {si_format(load.average_power(), 'W')}")
    print(f"  energy harvested:       {si_format(summary.energy_delivered, 'J')}")
    print(f"  metrology overhead:     {si_format(summary.energy_overhead, 'J')}")
    print(f"  node consumption:       {si_format(summary.energy_load, 'J')}")
    print(f"  supercap start -> end:  3.000 V -> {summary.final_storage_voltage:.3f} V")
    verdict = "energy-neutral" if summary.final_storage_voltage >= 3.0 else "net-negative"
    print(f"  verdict:                {verdict} over this day")


if __name__ == "__main__":
    main()
