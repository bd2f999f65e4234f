"""Fleet engine: the resilience runner for replayed S&H lanes.

A started S&H platform is open-loop with respect to storage, so its
chain is replayed once per lane by
:class:`~repro.core.system.ReplayedSampleHold`, and each lane steps the
real :class:`~repro.sim.quasistatic.QuasiStaticSimulator` over the
shared precomputed trace with its own (possibly fault-wrapped)
converter and storage.  Converter transfer, supercapacitor exchange,
fault ticks, numerical guards and the ideal-MPP replay are therefore the
scalar engine's own code, and summaries match the scalar walk to a few
ulp (the replay solves the loaded sample point in closed form).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.system import ReplayedSampleHold
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.sim.precompute import PrecomputedConditions
from repro.sim.quasistatic import HarvestSummary, QuasiStaticSimulator

__all__ = ["FleetSimulator"]


class FleetSimulator:
    """Run replayed S&H lanes over one precomputed trace.

    Args:
        precomputed: the lanes' shared condition trace.
        lanes: ``(name, controller, converter, storage)`` tuples; every
            controller must satisfy
            :func:`~repro.core.system.fleet_supported`.
        supply_voltage: rail used when a lane has no storage, volts.
    """

    def __init__(
        self,
        precomputed: PrecomputedConditions,
        lanes: Sequence[tuple],
        supply_voltage: float = 3.0,
    ):
        self.precomputed = precomputed
        self._sims = []
        for name, controller, converter, storage in lanes:
            sim = QuasiStaticSimulator(
                ReplayedSampleHold(controller, precomputed),
                precomputed,
                converter=converter,
                storage=storage,
                supply_voltage=supply_voltage,
                record=False,
            )
            self._sims.append((name, sim))
        # perfbench's fleet spans read ``n`` and ``_step_index``.
        self.n = len(self._sims)
        self._step_index = 0

        h = _OBS.fleet_nodes
        if h is not None:
            h.inc(self.n)

    def run(self) -> Dict[str, HarvestSummary]:
        """Step every lane to the horizon; returns ``{name: summary}``."""
        steps = len(self.precomputed)
        dt = float(self.precomputed.dt)
        j = _journal.JOURNAL
        if j is not None:
            j.emit(
                _journal.ENGINE_RUN,
                engine="fleet",
                steps=steps,
                nodes=self.n,
                lanes=[name for name, _ in self._sims],
            )
        with TRACER.span(f"fleet:run[{self.n}]"):
            for _, sim in self._sims:
                for _ in range(steps):
                    sim.step(dt)
        self._step_index = steps

        h = _OBS.fleet_steps
        if h is not None:
            h.inc(self.n * steps)
        return {name: sim.summary for name, sim in self._sims}
