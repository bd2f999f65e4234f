"""repro — reproduction of Weddell, Merrett & Al-Hashimi, "Ultra
Low-Power Photovoltaic MPPT Technique for Indoor and Outdoor Wireless
Sensor Nodes" (DATE 2011).

The package builds the paper's whole stack in simulation: calibrated
amorphous-silicon PV cells (:mod:`repro.pv`), a behavioural analog
substrate (:mod:`repro.analog`), the proposed sample-and-hold FOCV MPPT
platform (:mod:`repro.core`), its switching converter and energy stores
(:mod:`repro.converter`, :mod:`repro.storage`), indoor/outdoor light
environments (:mod:`repro.env`), the baseline techniques it is compared
against (:mod:`repro.baselines`), sensor-node loads (:mod:`repro.node`),
simulation engines (:mod:`repro.sim`), the paper's quantitative analyses
(:mod:`repro.analysis`), and one driver per published table/figure
(:mod:`repro.experiments`).

Quick taste::

    from repro import am_1815, SampleHoldMPPT, QuasiStaticSimulator
    from repro.env import constant_bench
    from repro.converter import BuckBoostConverter
    from repro.sim import precompute_conditions

    conditions = precompute_conditions(am_1815(), constant_bench(1000.0), 3600.0, 1.0)
    sim = QuasiStaticSimulator(
        SampleHoldMPPT(assume_started=True), conditions,
        converter=BuckBoostConverter(),
    )
    summary = sim.run(duration=3600.0)
    print(summary.tracking_efficiency)
"""

from repro.pv import (
    PVCell,
    CellParameters,
    SingleDiodeModel,
    MPPResult,
    ThermoelectricGenerator,
    am_1815,
    schott_1116929,
    generic_asi,
    generic_csi,
)
from repro.core import (
    AstableMultivibrator,
    SampleHoldCircuit,
    ColdStartCircuit,
    ActiveMonitor,
    PlatformConfig,
    SampleHoldMPPT,
    TransientPlatform,
)
from repro.converter import BuckBoostConverter, ConverterLossModel
from repro.storage import Supercapacitor, IdealBattery
from repro.sim import QuasiStaticSimulator, TransientSimulator, TraceSet
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "PVCell",
    "CellParameters",
    "SingleDiodeModel",
    "MPPResult",
    "ThermoelectricGenerator",
    "am_1815",
    "schott_1116929",
    "generic_asi",
    "generic_csi",
    "AstableMultivibrator",
    "SampleHoldCircuit",
    "ColdStartCircuit",
    "ActiveMonitor",
    "PlatformConfig",
    "SampleHoldMPPT",
    "TransientPlatform",
    "BuckBoostConverter",
    "ConverterLossModel",
    "Supercapacitor",
    "IdealBattery",
    "QuasiStaticSimulator",
    "TransientSimulator",
    "TraceSet",
    "ReproError",
    "__version__",
]
