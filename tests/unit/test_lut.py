"""Unit tests for the compiled tier's power LUT (:mod:`repro.pv.lut`).

The table's contract: scalar and vectorized lookups agree bitwise (for
the closed-form cell tables and the knee-aligned string tables), the
power is zero outside each condition's (0, Voc) window, dark rows are
exactly zero, and the pre-run validation gate measures worst-case error
against exact solves — passing within the declared budget and raising
:class:`~repro.errors.LUTValidationError` for an undersized table.
String populations get the knee-aligned family, and a population that
mixes cells and strings is rejected.
"""

import numpy as np
import pytest

from repro.core.system import SampleHoldMPPT
from repro.errors import LUTValidationError, ModelParameterError, SimulationError
from repro.pv.cells import am_1815
from repro.pv.lut import (
    DEFAULT_GRID_POINTS,
    DEFAULT_REL_BUDGET,
    STRING_GRID_POINTS,
    CellPowerLUT,
    StringPowerLUT,
    lut_for_models,
)
from repro.pv.string import CellString
from repro.sim.fleet import sample_hold_constants


@pytest.fixture(scope="module")
def models():
    cell = am_1815()
    out = [cell.model_at(lux) for lux in (50.0, 200.0, 1000.0, 10000.0)]
    out.append(cell.model_at(500.0).with_photocurrent(0.0))  # dark row
    return out


@pytest.fixture(scope="module")
def lut(models):
    return CellPowerLUT.from_models(models)


@pytest.fixture(scope="module")
def string_lut():
    """Knee-aligned table over a mismatched 4s string, dark row included."""
    string = CellString(am_1815(), 4, mismatch=(1.0, 0.9, 1.05, 0.85))
    table = lut_for_models(
        [string.model_at(lux) for lux in (50.0, 200.0, 1000.0, 10000.0, 0.0)]
    )
    assert isinstance(table, StringPowerLUT)
    return table


@pytest.fixture(params=["cell", "string"])
def any_lut(request):
    """Both lookup branches: the closed-form u-map and the node search."""
    return request.getfixturevalue("lut" if request.param == "cell" else "string_lut")


class TestConstruction:
    def test_defaults(self, lut, models):
        assert lut.grid_points == DEFAULT_GRID_POINTS
        assert lut.rel_budget == DEFAULT_REL_BUDGET
        assert lut.power_table.shape == (len(models), DEFAULT_GRID_POINTS)

    def test_dark_rows_are_zero(self, lut):
        assert lut.voc[-1] <= 0.0 or lut.power_table[-1].max() == 0.0
        assert np.all(lut.power_table[-1] == 0.0)

    def test_rejects_bad_knobs(self, models):
        with pytest.raises(ModelParameterError):
            CellPowerLUT.from_models(models, grid_points=7)
        with pytest.raises(ModelParameterError):
            CellPowerLUT.from_models(models, grid_points=16.5)
        with pytest.raises(ModelParameterError):
            CellPowerLUT.from_models(models, rel_budget=0.0)
        with pytest.raises(ModelParameterError):
            CellPowerLUT.from_models(models, abs_floor=-1.0)


class TestEvaluation:
    def test_scalar_matches_vectorized_bitwise(self, any_lut):
        lut = any_lut
        rng = np.random.default_rng(7)
        for i in range(len(lut.voc)):
            voc = lut.voc[i]
            volts = rng.uniform(-0.1, max(voc, 0.1) * 1.1, size=64)
            many = lut.power_many(np.full(64, i), volts)
            for v, p in zip(volts, many):
                assert lut.power(i, float(v)) == p

    def test_zero_outside_window(self, any_lut):
        lut = any_lut
        for i in range(len(lut.voc)):
            voc = lut.voc[i]
            assert lut.power(i, 0.0) == 0.0
            assert lut.power(i, -0.5) == 0.0
            assert lut.power(i, max(voc, 0.1)) == 0.0
            assert lut.power(i, max(voc, 0.1) * 2.0) == 0.0

    def test_tracks_exact_curve(self, lut, models):
        rng = np.random.default_rng(11)
        for i, m in enumerate(models):
            voc = lut.voc[i]
            if voc <= 0.0:
                continue
            for v in rng.uniform(0.0, voc, size=32):
                exact = max(0.0, float(m.power_at(v)))
                err = abs(lut.power(i, float(v)) - exact) / lut.scale[i]
                assert err <= lut.rel_budget


class TestValidationGate:
    def test_default_table_passes(self, lut, models):
        report = lut.validate()
        assert report.ok
        assert report.conditions == len(models)
        assert report.conditions_checked == 4  # dark row skipped
        assert report.max_rel_error <= DEFAULT_REL_BUDGET
        assert report.rel_budget == DEFAULT_REL_BUDGET

    def test_undersized_table_rejected(self, models):
        small = CellPowerLUT.from_models(models, grid_points=8)
        with pytest.raises(LUTValidationError) as exc:
            small.validate()
        assert exc.value.max_rel_error > exc.value.rel_budget
        assert isinstance(exc.value, SimulationError)

    def test_all_dark_table_trivially_valid(self, models):
        dark = CellPowerLUT.from_models([models[-1], models[-1]])
        report = dark.validate()
        assert report.ok and report.samples == 0


class TestPopulationFamilies:
    """A run's conditions come from one cell: all cells or all strings."""

    def test_string_population_gets_knee_aligned_table(self):
        string = CellString(am_1815(), 4, mismatch=(1.0, 0.9, 1.05, 0.85))
        lut = lut_for_models([string.model_at(lux) for lux in (200.0, 1000.0)])
        assert isinstance(lut, StringPowerLUT)
        assert not lut.closed_form
        assert lut.grid_points == STRING_GRID_POINTS
        assert lut.validate().ok

    def test_mixed_population_is_rejected(self, models):
        string = CellString(am_1815(), 4)
        mixed = [models[0], string.model_at(500.0)]
        with pytest.raises(ModelParameterError, match="mixes"):
            lut_for_models(mixed)
        with pytest.raises(ModelParameterError, match="mixes"):
            sample_hold_constants(
                SampleHoldMPPT(assume_started=True),
                mixed,
                [m.voc() for m in mixed],
            )
