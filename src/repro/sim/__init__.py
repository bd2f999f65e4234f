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
conditions once for sharing across controllers.  Two engine tiers sit
beside the scalar reference (:mod:`repro.sim.engines` lists which
experiment takes which):
:mod:`repro.sim.compiled` fuses comparison/strings lanes into one
kernel over a validated power LUT, and :mod:`repro.sim.fleet` runs
populations of S&H nodes: Monte Carlo boards in one vectorized pass,
resilience lanes as S&H chains replayed once and stepped on the scalar
engine.
"""

from repro.sim.traces import Trace, TraceSet
from repro.sim.events import EventQueue, Event
from repro.sim.transient import TransientSimulator
from repro.sim.quasistatic import QuasiStaticSimulator, StepResult, HarvestSummary
from repro.sim.precompute import PrecomputedConditions, precompute_conditions

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
    "FleetMember",
    "FleetSimulator",
    "fleet_supported",
]
