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
resilience S&H lanes as chains replayed once
(:class:`~repro.core.system.ReplayedSampleHold`) and stepped on the
scalar engine.
"""

from repro.sim.traces import Trace, TraceSet
from repro.sim.transient import TransientSimulator
from repro.sim.quasistatic import QuasiStaticSimulator, StepResult, HarvestSummary
from repro.sim.precompute import PrecomputedConditions, precompute_conditions

__all__ = [
    "Trace",
    "TraceSet",
    "TransientSimulator",
    "QuasiStaticSimulator",
    "StepResult",
    "HarvestSummary",
    "PrecomputedConditions",
    "precompute_conditions",
]
