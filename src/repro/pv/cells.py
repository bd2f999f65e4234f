"""Calibrated PV cell library.

The paper's bench used two amorphous-silicon modules:

* **SANYO Amorton AM-1815** (25 cm^2) for the system tests — the
  Table I Voc values (4.978 V @200 lux .. 5.91 V @5000 lux) and the
  datasheet operating point (42 uA / 3.0 V at 200 lux fluorescent)
  calibrate its model here.
* **Schott Solar 1116929** for the Fig. 1 I-V curve and the Fig. 2
  24-hour Voc logs.  No numeric datasheet survives in the paper, so its
  parameters are chosen to give the same qualitative a-Si curve shape
  (k ~ 0.6) at a slightly larger scale.

Cells are described by technology-level :class:`CellParameters` and
wrapped by :class:`PVCell`, which maps a lighting condition
``(lux, source, temperature)`` to a concrete
:class:`~repro.pv.single_diode.SingleDiodeModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelParameterError
from repro.pv.irradiance import FLUORESCENT, LightSource, photocurrent_from_lux
from repro.pv.single_diode import MPPResult, SingleDiodeModel
from repro.units import BOLTZMANN, ELEMENTARY_CHARGE, T_STC


@dataclass(frozen=True)
class CellParameters:
    """Static parameters of a PV cell, independent of operating condition.

    Attributes:
        name: cell/module designation.
        technology: 'asi' (amorphous) or 'csi' (crystalline) — selects the
            spectral utilisation factor of light sources.
        area_cm2: active area, square centimetres.
        n_series: number of monolithically-integrated series junctions.
        ideality: per-junction diode ideality factor.
        i0_ref: reverse saturation current at 25 degC, amps.
        iph_per_klux: photocurrent per 1000 lux of fluorescent light, amps.
        series_resistance: lumped Rs, ohms.
        shunt_resistance: lumped Rsh, ohms.
        bandgap_ev: effective bandgap driving I0's temperature law, eV.
        iph_temp_coeff: fractional photocurrent change per kelvin.
        photo_shunt_voltage: if set, the shunt is *photoconductive*:
            ``Rsh = photo_shunt_voltage / Iph`` (capped at the dark
            ``shunt_resistance``).  Amorphous silicon exhibits this —
            shunt loss scales with carrier generation — and it is what
            keeps the curve shape, and hence k = Vmpp/Voc, nearly
            constant from 200 to 5000 lux (the premise of Table I).
        photo_shunt_saturation_iph: photocurrent beyond which the
            photo-shunt stops deepening (``Rsh`` floors at
            ``photo_shunt_voltage / saturation``).  Photoconductive
            shunting saturates once traps fill; without this floor the
            1/Iph law extrapolated to full sun would be unphysical.
    """

    name: str
    technology: str
    area_cm2: float
    n_series: int
    ideality: float
    i0_ref: float
    iph_per_klux: float
    series_resistance: float
    shunt_resistance: float
    bandgap_ev: float = 1.7
    iph_temp_coeff: float = 0.0008
    photo_shunt_voltage: float | None = None
    photo_shunt_saturation_iph: float | None = None

    def __post_init__(self) -> None:
        if self.technology not in ("asi", "csi"):
            raise ModelParameterError(f"technology must be 'asi' or 'csi', got {self.technology!r}")
        if self.area_cm2 <= 0.0:
            raise ModelParameterError(f"area_cm2 must be positive, got {self.area_cm2!r}")
        if self.iph_per_klux <= 0.0:
            raise ModelParameterError(f"iph_per_klux must be positive, got {self.iph_per_klux!r}")
        if self.bandgap_ev <= 0.0:
            raise ModelParameterError(f"bandgap_ev must be positive, got {self.bandgap_ev!r}")


class PVCell:
    """A PV cell: maps lighting conditions onto single-diode curves.

    This is the object the rest of the library works with — the MPPT
    system, environments, and benches ask it for operating points rather
    than touching the diode equation directly.

    Args:
        parameters: static cell description.
    """

    def __init__(self, parameters: CellParameters):
        self.parameters = parameters

    @property
    def name(self) -> str:
        """Cell designation, e.g. ``'AM-1815'``."""
        return self.parameters.name

    def __repr__(self) -> str:
        return f"PVCell({self.parameters.name!r}, {self.parameters.area_cm2:g} cm^2)"

    # --- condition -> model ---------------------------------------------------

    def saturation_current(self, temperature: float = T_STC) -> float:
        """Reverse saturation current at ``temperature`` (kelvin).

        Uses the recombination-current law ``T^3 * exp(-Eg / (n k T))``
        referenced to 25 degC — the ideality divisor in the exponent is
        what keeps the resulting Voc temperature coefficient at the
        -0.3..-0.5 %/K measured for a-Si modules.
        """
        if temperature <= 0.0:
            raise ModelParameterError(f"temperature must be > 0 K, got {temperature!r}")
        p = self.parameters
        eg_over_nk = p.bandgap_ev * ELEMENTARY_CHARGE / (p.ideality * BOLTZMANN)
        return (
            p.i0_ref
            * (temperature / T_STC) ** 3
            * math.exp(eg_over_nk * (1.0 / T_STC - 1.0 / temperature))
        )

    def photocurrent(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> float:
        """Photocurrent (amps) under ``lux`` of ``source`` at ``temperature``."""
        p = self.parameters
        iph = photocurrent_from_lux(lux, p.iph_per_klux, source=source, technology=p.technology)
        return iph * (1.0 + p.iph_temp_coeff * (temperature - T_STC))

    def shunt_resistance(self, photocurrent: float) -> float:
        """Effective shunt resistance (ohms) at a given photocurrent.

        Fixed cells return the dark shunt resistance; photoconductive
        cells (a-Si) shunt harder under stronger light, which is modelled
        as ``Rsh = photo_shunt_voltage / Iph`` capped at the dark value.
        """
        p = self.parameters
        if p.photo_shunt_voltage is None or photocurrent <= 0.0:
            return p.shunt_resistance
        effective_iph = photocurrent
        if p.photo_shunt_saturation_iph is not None:
            effective_iph = min(effective_iph, p.photo_shunt_saturation_iph)
        return min(p.shunt_resistance, p.photo_shunt_voltage / effective_iph)

    def shunt_knees(self) -> "tuple[float, ...]":
        """Photocurrents (amps) where :meth:`shunt_resistance` bends.

        The photoconductive law meets the dark cap at
        ``photo_shunt_voltage / shunt_resistance`` and stops deepening at
        ``photo_shunt_saturation_iph``; between these knees the shunt,
        and so the whole curve, is smooth in photocurrent.
        """
        p = self.parameters
        if p.photo_shunt_voltage is None:
            return ()
        knees = [p.photo_shunt_voltage / p.shunt_resistance]
        if p.photo_shunt_saturation_iph is not None:
            knees.append(p.photo_shunt_saturation_iph)
        return tuple(k for k in knees if 0.0 < k < math.inf)

    def model_at(
        self,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> SingleDiodeModel:
        """Single-diode model for the cell under the given condition."""
        iph = self.photocurrent(lux, source=source, temperature=temperature)
        return self.model_at_photocurrent(iph, temperature)

    def model_at_photocurrent(self, photocurrent: float, temperature: float = T_STC) -> SingleDiodeModel:
        """Single-diode model at a photocurrent (amps) and temperature.

        The curve depends on the light only through ``photocurrent``, so
        this is :meth:`model_at` after the lux-to-Iph step — the form the
        power-table lattice (:mod:`repro.pv.lut`) builds its nodes with.
        """
        p = self.parameters
        return SingleDiodeModel(
            photocurrent=photocurrent,
            saturation_current=self.saturation_current(temperature),
            ideality=p.ideality,
            n_series=p.n_series,
            series_resistance=p.series_resistance,
            shunt_resistance=self.shunt_resistance(photocurrent),
            temperature=temperature,
        )

    # --- convenience observables ----------------------------------------------

    def voc(self, lux: float, source: LightSource = FLUORESCENT, temperature: float = T_STC) -> float:
        """Open-circuit voltage (volts) under the given condition."""
        if lux <= 0.0:
            return 0.0
        return self.model_at(lux, source=source, temperature=temperature).voc()

    def isc(self, lux: float, source: LightSource = FLUORESCENT, temperature: float = T_STC) -> float:
        """Short-circuit current (amps) under the given condition."""
        if lux <= 0.0:
            return 0.0
        return self.model_at(lux, source=source, temperature=temperature).isc()

    def mpp(self, lux: float, source: LightSource = FLUORESCENT, temperature: float = T_STC) -> MPPResult:
        """Maximum power point under the given condition."""
        if lux <= 0.0:
            return MPPResult(voltage=0.0, current=0.0, power=0.0, voc=0.0, isc=0.0)
        return self.model_at(lux, source=source, temperature=temperature).mpp()

    def degraded(self, years: float, iph_loss_per_year: float = 0.01,
                 rs_growth_per_year: float = 0.03) -> "PVCell":
        """A copy of this cell after field aging.

        Amorphous silicon suffers light-induced (Staebler-Wronski)
        degradation: photocurrent falls and effective series resistance
        grows over the first years of exposure.  FOCV re-references
        itself to the *aged* cell at every sample — a fixed setpoint
        tuned at manufacture does not — which this method lets the
        experiments quantify.

        Args:
            years: equivalent field exposure.
            iph_loss_per_year: fractional photocurrent loss per year
                (stabilised a-Si: ~0.5-2 %/yr after the initial soak).
            rs_growth_per_year: fractional series-resistance growth/year.

        Returns:
            A new :class:`PVCell` with aged parameters; the original is
            untouched.
        """
        if years < 0.0:
            raise ModelParameterError(f"years must be >= 0, got {years!r}")
        from dataclasses import replace

        p = self.parameters
        iph_factor = max(0.05, (1.0 - iph_loss_per_year) ** years)
        rs_factor = (1.0 + rs_growth_per_year) ** years
        aged = replace(
            p,
            name=f"{p.name}-aged-{years:g}y",
            iph_per_klux=p.iph_per_klux * iph_factor,
            series_resistance=p.series_resistance * rs_factor,
        )
        return PVCell(aged)

    def power_at(
        self,
        voltage: float,
        lux: float,
        source: LightSource = FLUORESCENT,
        temperature: float = T_STC,
    ) -> float:
        """Output power (watts) when held at ``voltage`` under the condition.

        Clamped to zero outside the generating quadrant — a converter
        holding the cell above Voc extracts nothing rather than inverting.
        """
        if lux <= 0.0 or voltage <= 0.0:
            return 0.0
        model = self.model_at(lux, source=source, temperature=temperature)
        current = float(model.current_at(voltage))
        if current <= 0.0:
            return 0.0
        return voltage * current


# --- calibrated library -------------------------------------------------------
#
# The AM-1815 numbers below were produced by a weighted least-squares fit
# of the five free parameters (iph_per_klux, i0_ref, ideality, Rs, and the
# photo-shunt voltage) to every *published* curve point:
#
#     Voc at all 12 Table I intensities (4.978 V @200 lux .. 5.91 V @5000 lux)
#     Isc(200 lux)  = 50 uA        (AM-1815 datasheet [12])
#     I(3.0 V, 200 lux) = 42 uA    (Sec. IV-A / datasheet operating point)
#     Isc linear in lux to 5000 lux (a-Si photocurrent linearity)
#
# Every target is met to within 0.5 %.  The emergent MPP sits at
# k = Vmpp/Voc ~ 0.82 (200 lux) drifting to 0.68 (5000 lux) — inside the
# paper's quoted 0.6-0.8 band with the "weak correlation between k and
# the light intensity" of ref [10], and consistent with the datasheet
# operating point (3.0 V / 42 uA) being a deliberately conservative spec
# *below* the true MPP.  See tests/unit/test_cells.py.

_AM_1815 = CellParameters(
    name="AM-1815",
    technology="asi",
    area_cm2=25.0,
    n_series=6,
    ideality=1.90507,
    i0_ref=1.61208e-12,
    iph_per_klux=2.50909e-4,
    series_resistance=1367.81,
    shunt_resistance=2.0e6,
    bandgap_ev=1.7,
    photo_shunt_voltage=18.8761,
    photo_shunt_saturation_iph=2.0e-3,
)

_SCHOTT_1116929 = CellParameters(
    name="Schott-1116929",
    technology="asi",
    area_cm2=50.0,
    n_series=8,
    ideality=1.90507,
    i0_ref=2.1e-12,
    iph_per_klux=5.0e-4,
    series_resistance=700.0,
    shunt_resistance=2.0e6,
    bandgap_ev=1.7,
    photo_shunt_voltage=25.17,
    photo_shunt_saturation_iph=4.0e-3,
)

_GENERIC_ASI = CellParameters(
    name="generic-aSi",
    technology="asi",
    area_cm2=10.0,
    n_series=4,
    ideality=1.90507,
    i0_ref=1.1e-12,
    iph_per_klux=1.0e-4,
    series_resistance=2800.0,
    shunt_resistance=4.0e6,
    bandgap_ev=1.7,
    photo_shunt_voltage=12.58,
    photo_shunt_saturation_iph=0.8e-3,
)

_GENERIC_CSI = CellParameters(
    name="generic-cSi",
    technology="csi",
    area_cm2=25.0,
    n_series=8,
    ideality=1.3,
    i0_ref=4.0e-9,
    iph_per_klux=8.0e-4,
    series_resistance=40.0,
    shunt_resistance=500000.0,
    bandgap_ev=1.12,
    iph_temp_coeff=0.0005,
)


def am_1815() -> PVCell:
    """SANYO Amorton AM-1815 — the cell validating the paper's system tests."""
    return PVCell(_AM_1815)


def schott_1116929() -> PVCell:
    """Schott Solar 1116929 — the cell behind Fig. 1 and the Fig. 2 logs."""
    return PVCell(_SCHOTT_1116929)


def generic_asi() -> PVCell:
    """A small generic amorphous-silicon cell for what-if studies."""
    return PVCell(_GENERIC_ASI)


def generic_csi() -> PVCell:
    """A generic crystalline-silicon cell (outdoor-oriented comparator)."""
    return PVCell(_GENERIC_CSI)
