"""The paper's primary contribution: the ultra low-power S&H MPPT system.

* :mod:`repro.core.astable` — the comparator relaxation oscillator that
  times the sampling (39 ms PULSE every 69 s in the prototype).
* :mod:`repro.core.sample_hold` — the divider / switch / hold-capacitor /
  buffer chain producing HELD_SAMPLE = Voc * k * alpha.
* :mod:`repro.core.coldstart` — the reservoir-capacitor cold-start chain
  and the ACTIVE sanity comparator.
* :mod:`repro.core.system` — :class:`SampleHoldMPPT`, the Fig. 3 platform
  as a quasi-static harvesting controller, and
  :class:`ReplayedSampleHold`, its started chain replayed once over a
  precomputed trace.
* :mod:`repro.core.platform_transient` — the same platform as a
  node-level transient model for waveform reproduction (Fig. 4,
  cold-start ramps).
"""

from repro.core.astable import AstableMultivibrator
from repro.core.sample_hold import SampleHoldCircuit, SampleResult
from repro.core.coldstart import ColdStartCircuit, ActiveMonitor
from repro.core.config import PlatformConfig
from repro.core.system import ReplayedSampleHold, SampleHoldMPPT
from repro.core.platform_transient import TransientPlatform
from repro.core.design import DesignSpec, DesignReport, synthesise_platform

__all__ = [
    "AstableMultivibrator",
    "SampleHoldCircuit",
    "SampleResult",
    "ColdStartCircuit",
    "ActiveMonitor",
    "PlatformConfig",
    "SampleHoldMPPT",
    "ReplayedSampleHold",
    "TransientPlatform",
    "DesignSpec",
    "DesignReport",
    "synthesise_platform",
]
