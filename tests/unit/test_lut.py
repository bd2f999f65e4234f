"""Unit tests for the compiled tier's power LUT (:mod:`repro.pv.lut`).

The table's contract: scalar and vectorized lookups agree bitwise (for
the closed-form cell tables and the knee-aligned string tables), the
power is zero outside each condition's (0, Voc) window, dark rows are
exactly zero, and the pre-run validation gate measures worst-case error
against exact solves — passing within the declared budget and raising
:class:`~repro.errors.LUTValidationError` for an undersized table.
String populations get the knee-aligned family, and a population that
mixes cells and strings is rejected.  Single-cell tables are blended
from the process-wide lattice of exact rows: close to the exact table,
independent of what the lattice held before, built once, safe to build
from several threads, and reset at the row cap without changing a table.
"""

import sys
import threading

import numpy as np
import pytest

import repro.obs as obs
import repro.pv.lut as lut_module

from repro.core.system import SampleHoldMPPT, sample_hold_constants
from repro.errors import LUTValidationError, ModelParameterError, SimulationError
from repro.pv.cells import am_1815
from repro.pv.lut import (
    DEFAULT_GRID_POINTS,
    DEFAULT_REL_BUDGET,
    STRING_GRID_POINTS,
    CellPowerLUT,
    StringPowerLUT,
    clear_lattice,
    lattice_rows,
    lut_for_models,
)
from repro.pv.string import CellString


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


def _off_lattice_models(cell, shift=0.0):
    """Conditions between lattice nodes: odd lux, odd temperatures."""
    return [
        cell.model_at(lux, temperature=temp + shift)
        for lux in (37.3, 211.7, 1234.5, 9876.5, 48000.0)
        for temp in (289.37, 298.15, 311.93, 327.61)
    ]


class TestLattice:
    """Single-cell tables blended from the shared lattice of exact rows."""

    @pytest.fixture(autouse=True)
    def _empty_lattice(self):
        clear_lattice()
        yield
        clear_lattice()

    def test_blended_rows_track_exact_rows(self):
        cell = am_1815()
        models = _off_lattice_models(cell)
        blended = lut_for_models(models, cell=cell)
        exact = CellPowerLUT.from_models(models)
        assert np.array_equal(blended.voc, exact.voc)
        assert blended.params.iph.tolist() == exact.params.iph.tolist()
        err = np.abs(blended.power_table - exact.power_table).max(axis=1)
        assert np.all(err <= 2e-5 * exact.power_table.max(axis=1))
        assert blended.validate().ok

    def test_rows_near_shunt_knees_track_exact_rows(self):
        # The shunt law has slope breaks; blending across one would be
        # first-order accurate only (~1e-4 measured), so conditions there
        # take the node pair on their own side of the knee.
        cell = am_1815()
        knees = cell.shunt_knees()
        assert len(knees) == 2
        models = [
            cell.model_at_photocurrent(knee * f, temp)
            for knee in knees
            for f in (0.9995, 0.999, 1.0, 1.0005, 1.001)
            for temp in (298.15, 311.93)
        ]
        blended = lut_for_models(models, cell=cell)
        exact = CellPowerLUT.from_models(models)
        err = np.abs(blended.power_table - exact.power_table).max(axis=1)
        assert np.all(err <= 2e-5 * exact.power_table.max(axis=1))

    def test_second_build_solves_no_rows(self):
        cell = am_1815()
        models = _off_lattice_models(cell)
        obs.enable()
        try:
            lut_for_models(models, cell=cell)
            built = obs.REGISTRY.counter("pv.lut.lattice_rows_built").value
            rows = lattice_rows()
            assert built == rows > 0
            assert obs.REGISTRY.counter("pv.lut.lattice_rows_reused").value == 0.0
            lut_for_models(models, cell=cell)
            assert obs.REGISTRY.counter("pv.lut.lattice_rows_built").value == built
            assert obs.REGISTRY.counter("pv.lut.lattice_rows_reused").value == rows
            assert lattice_rows() == rows
        finally:
            obs.disable()
            obs.REGISTRY.reset()

    def test_tables_do_not_depend_on_lattice_history(self):
        cell = am_1815()
        models = _off_lattice_models(cell)
        cold = lut_for_models(models, cell=cell).power_table
        clear_lattice()
        # Pre-warm with overlapping conditions, in another order and in
        # other build batches.
        lut_for_models(_off_lattice_models(cell, shift=0.26)[::-1], cell=cell)
        lut_for_models(models[::3], cell=cell)
        warm = lut_for_models(models, cell=cell).power_table
        assert np.array_equal(cold, warm)

    def test_concurrent_builds_agree(self):
        cell = am_1815()
        models = _off_lattice_models(cell)
        serial = lut_for_models(models, cell=cell).power_table
        rows = lattice_rows()
        clear_lattice()
        workers = 4  # more threads than cores
        start = threading.Barrier(workers)
        tables = [None] * workers

        def build(slot):
            start.wait()
            tables[slot] = lut_for_models(models, cell=cell).power_table

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for table in tables:
            assert np.array_equal(table, serial)
        assert lattice_rows() == rows  # no row built twice

    def test_row_cap_resets_the_lattice(self, monkeypatch):
        cell = am_1815()
        first = _off_lattice_models(cell)
        second = _off_lattice_models(cell, shift=7.3)
        lut_for_models(second, cell=cell)
        second_rows = lattice_rows()
        clear_lattice()
        lut_for_models(first, cell=cell)
        first_rows = lattice_rows()
        monkeypatch.setattr(lut_module, "LATTICE_MAX_ROWS", first_rows + 1)
        table = lut_for_models(second, cell=cell).power_table
        # The cap was passed: the lattice now holds only the second build.
        assert lattice_rows() == second_rows
        clear_lattice()
        assert np.array_equal(table, lut_for_models(second, cell=cell).power_table)

    def test_lattice_rows_grow_in_place_up_to_the_cap(self):
        # The lattice reserves its row cap once; adding rows past the old
        # doubling step (17 888 -> 35 776) never copies the array.
        lattice = lut_module._Lattice(8)
        rows = lattice.rows
        assert rows.shape == (lut_module.LATTICE_MAX_ROWS, 8)
        for n in (17_888, 1, lut_module.LATTICE_MAX_ROWS - 17_889):
            lattice.add(np.full((n, 8), float(lattice.count)))
            assert lattice.rows is rows
        assert lattice.count == lut_module.LATTICE_MAX_ROWS
        assert rows[17_888, 0] == 17_888.0 and rows[-1, 0] == 17_889.0

    def test_dark_rows_are_zero(self):
        cell = am_1815()
        models = [
            cell.model_at(0.0),
            cell.model_at(300.0),
            cell.model_at(500.0).with_photocurrent(0.0),
        ]
        table = lut_for_models(models, cell=cell)
        assert np.all(table.power_table[[0, 2]] == 0.0)
        assert table.power_table[1].max() > 0.0
        assert table.validate().ok

    def test_single_cells_need_their_cell(self, models):
        with pytest.raises(ModelParameterError, match="cell="):
            lut_for_models(models)
