"""Photovoltaic device substrate.

Implements the physics the paper's hardware prototype relied on: a
single-diode PV model with explicit Lambert-W solutions
(:mod:`repro.pv.single_diode`), photometric-to-photocurrent conversion
(:mod:`repro.pv.irradiance`), a calibrated cell library containing the
SANYO Amorton AM-1815 and Schott Solar 1116929 modules used on the
bench (:mod:`repro.pv.cells`), MPP utilities (:mod:`repro.pv.mpp`),
a lumped thermal model (:mod:`repro.pv.thermal`), and a thermoelectric
generator for the paper's claimed TEG applicability
(:mod:`repro.pv.teg`).

Series strings: :mod:`repro.pv.string` composes cells into mismatched,
bypass-diode-equipped strings whose multi-knee curves drop into every
engine tier as a cell replacement.

Performance layers: :mod:`repro.pv.batch` solves many conditions'
Voc/Isc/MPP in one vectorized Lambert-W pass, and :mod:`repro.pv.lut`
tabulates P(V) per condition for the compiled tier.
"""

from repro.pv.single_diode import SingleDiodeModel, MPPResult
from repro.pv.irradiance import LightSource, FLUORESCENT, DAYLIGHT, INCANDESCENT, WHITE_LED
from repro.pv.cells import PVCell, CellParameters, am_1815, schott_1116929, generic_asi, generic_csi
from repro.pv.mpp import k_factor, k_factor_curve, efficiency_at_voltage
from repro.pv.thermal import CellThermalModel
from repro.pv.teg import ThermoelectricGenerator
from repro.pv.string import CellString, StringModel, StringMPPResult, solve_string_models
from repro.pv.batch import BatchSolveResult, batch_mpp, solve_models

__all__ = [
    "SingleDiodeModel",
    "MPPResult",
    "LightSource",
    "FLUORESCENT",
    "DAYLIGHT",
    "INCANDESCENT",
    "WHITE_LED",
    "PVCell",
    "CellParameters",
    "am_1815",
    "schott_1116929",
    "generic_asi",
    "generic_csi",
    "k_factor",
    "k_factor_curve",
    "efficiency_at_voltage",
    "CellThermalModel",
    "ThermoelectricGenerator",
    "CellString",
    "StringModel",
    "StringMPPResult",
    "solve_string_models",
    "BatchSolveResult",
    "batch_mpp",
    "solve_models",
]
