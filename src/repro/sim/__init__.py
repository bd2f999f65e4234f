"""Simulation engines and signal recording.

Two engines cover the paper's two observation timescales:

* :class:`~repro.sim.transient.TransientSimulator` — fixed-timestep
  integration at microsecond-to-millisecond resolution, for waveform
  reproductions (the Fig. 4 sampling transient, cold-start ramps).
* :class:`~repro.sim.quasistatic.QuasiStaticSimulator` — one-second-class
  steps over hours, treating each step as an electrical equilibrium and
  integrating energy, for the 24-hour environment runs and the
  state-of-the-art comparison.

Signals are recorded into :class:`~repro.sim.traces.TraceSet` objects
that behave like named time series with numpy views.

Performance layers: :mod:`repro.sim.precompute` solves a whole run's
conditions once for sharing across controllers,
:mod:`repro.sim.parallel` fans independent runs over a process pool,
and :mod:`repro.sim.telemetry` keeps the ``BENCH_perf.json`` wall-time
ledger.  Two engine tiers sit beside the scalar reference
(:mod:`repro.sim.engines` lists which experiment takes which):
:mod:`repro.sim.compiled` fuses comparison/strings lanes into one
kernel over a validated power LUT, and :mod:`repro.sim.fleet` steps
populations of S&H nodes (resilience lanes, Monte Carlo boards) in
lockstep NumPy.
"""

from repro.sim.traces import Trace, TraceSet
from repro.sim.events import EventQueue, Event
from repro.sim.transient import TransientSimulator
from repro.sim.quasistatic import QuasiStaticSimulator, StepResult, HarvestSummary
from repro.sim.precompute import PrecomputedConditions, precompute_conditions
from repro.sim.parallel import parallel_map, scatter, default_worker_count
from repro.sim.telemetry import PerfSample, measure, record_perf, load_ledger, latest

_FLEET_EXPORTS = ("FleetMember", "FleetSimulator", "fleet_supported")


def __getattr__(name):
    # repro.sim.fleet builds members from the scalar objects, so it
    # imports repro.core.system — which itself imports this package via
    # repro.sim.quasistatic.  Resolve the fleet symbols lazily to keep
    # the import graph acyclic.
    if name in _FLEET_EXPORTS:
        from repro.sim import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Trace",
    "TraceSet",
    "EventQueue",
    "Event",
    "TransientSimulator",
    "QuasiStaticSimulator",
    "StepResult",
    "HarvestSummary",
    "PrecomputedConditions",
    "precompute_conditions",
    "parallel_map",
    "scatter",
    "default_worker_count",
    "FleetMember",
    "FleetSimulator",
    "fleet_supported",
    "PerfSample",
    "measure",
    "record_perf",
    "load_ledger",
    "latest",
]
