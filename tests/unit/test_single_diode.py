"""Unit tests for the single-diode PV model and its Lambert-W solutions."""

import math

import numpy as np
import pytest

from repro.errors import ModelParameterError, OperatingPointError
from repro.pv.single_diode import MPPResult, SingleDiodeModel, lambertw_of_exp, wright_omega


def simple_model(**overrides):
    """A well-behaved reference model for most tests."""
    params = dict(
        photocurrent=100e-6,
        saturation_current=1e-10,
        ideality=2.0,
        n_series=6,
        series_resistance=500.0,
        shunt_resistance=200e3,
    )
    params.update(overrides)
    return SingleDiodeModel(**params)


class TestLambertWOfExp:
    def test_matches_scipy_for_moderate_arguments(self):
        from scipy.special import lambertw

        for x in (-5.0, 0.0, 1.0, 10.0, 50.0):
            assert lambertw_of_exp(x) == pytest.approx(float(lambertw(math.exp(x)).real), rel=1e-12)

    def test_satisfies_defining_equation_for_huge_arguments(self):
        for x in (200.0, 1000.0, 1e5):
            w = lambertw_of_exp(x)
            assert w + math.log(w) == pytest.approx(x, rel=1e-12)

    def test_vectorised_mixed_range(self):
        x = np.array([1.0, 50.0, 500.0])
        w = lambertw_of_exp(x)
        assert w.shape == (3,)
        for xi, wi in zip(x, w):
            assert wi + math.log(wi) == pytest.approx(xi, rel=1e-10)

    def test_scalar_in_scalar_out(self):
        assert isinstance(lambertw_of_exp(3.0), float)

    def test_wright_omega_is_the_same_function(self):
        # The power tables evaluate W(exp(x)) as the Wright omega function;
        # it must agree with the solver's form on both of its branches.
        x = np.linspace(-40.0, 400.0, 4001)
        assert np.allclose(wright_omega(x), lambertw_of_exp(x), rtol=1e-14, atol=0.0)


class TestConstruction:
    def test_rejects_negative_photocurrent(self):
        with pytest.raises(ModelParameterError):
            simple_model(photocurrent=-1e-6)

    def test_rejects_nonpositive_saturation_current(self):
        with pytest.raises(ModelParameterError):
            simple_model(saturation_current=0.0)

    def test_rejects_bad_ideality(self):
        with pytest.raises(ModelParameterError):
            simple_model(ideality=-1.0)

    def test_rejects_zero_junctions(self):
        with pytest.raises(ModelParameterError):
            simple_model(n_series=0)

    def test_rejects_negative_series_resistance(self):
        with pytest.raises(ModelParameterError):
            simple_model(series_resistance=-1.0)

    def test_rejects_nonpositive_shunt(self):
        with pytest.raises(ModelParameterError):
            simple_model(shunt_resistance=0.0)

    def test_rejects_zero_temperature(self):
        with pytest.raises(ModelParameterError):
            simple_model(temperature=0.0)


class TestCurveSolutions:
    def test_current_at_zero_volts_is_isc(self):
        m = simple_model()
        assert float(m.current_at(0.0)) == pytest.approx(m.isc(), rel=1e-9)

    def test_current_at_voc_is_zero(self):
        m = simple_model()
        assert float(m.current_at(m.voc())) == pytest.approx(0.0, abs=1e-12)

    def test_voltage_at_zero_current_is_voc(self):
        m = simple_model()
        assert float(m.voltage_at(0.0)) == pytest.approx(m.voc(), rel=1e-12)

    def test_voltage_current_roundtrip(self):
        m = simple_model()
        for frac in (0.1, 0.5, 0.9, 0.99):
            i = frac * m.isc()
            v = float(m.voltage_at(i))
            assert float(m.current_at(v)) == pytest.approx(i, rel=1e-8)

    def test_current_monotone_decreasing_in_voltage(self):
        m = simple_model()
        v = np.linspace(0.0, m.voc(), 200)
        i = np.asarray(m.current_at(v))
        assert np.all(np.diff(i) < 0.0)

    def test_voltage_above_isc_rejected(self):
        m = simple_model()
        with pytest.raises(OperatingPointError):
            m.voltage_at(m.isc() * 1.5)

    def test_infinite_shunt_branch(self):
        m = simple_model(shunt_resistance=float("inf"))
        assert float(m.current_at(0.0)) == pytest.approx(m.isc(), rel=1e-9)
        assert float(m.current_at(m.voc())) == pytest.approx(0.0, abs=1e-12)

    def test_zero_series_resistance_branch(self):
        m = simple_model(series_resistance=0.0)
        # Isc equals Iph exactly less the shunt term at V=0 (which is 0).
        assert m.isc() == pytest.approx(m.photocurrent, rel=1e-12)
        assert float(m.current_at(m.voc())) == pytest.approx(0.0, abs=1e-12)

    def test_explicit_solution_satisfies_implicit_equation(self):
        m = simple_model()
        a = m.modified_ideality
        for v in (0.5, 2.0, 3.5):
            i = float(m.current_at(v))
            rhs = (
                m.photocurrent
                - m.saturation_current * math.expm1((v + i * m.series_resistance) / a)
                - (v + i * m.series_resistance) / m.shunt_resistance
            )
            assert i == pytest.approx(rhs, abs=1e-12 + 1e-9 * abs(i))

    def test_outdoor_scale_photocurrent_no_overflow(self):
        m = simple_model(photocurrent=0.05)  # ~full-sun scale
        assert m.voc() > 0.0
        assert float(m.current_at(m.voc() / 2.0)) > 0.0


class TestMPP:
    def test_mpp_is_interior_maximum(self):
        m = simple_model()
        mpp = m.mpp()
        assert 0.0 < mpp.voltage < mpp.voc
        for dv in (-0.01, 0.01):
            assert float(m.power_at(mpp.voltage + dv)) <= mpp.power + 1e-15

    def test_mpp_power_consistency(self):
        mpp = simple_model().mpp()
        assert mpp.power == pytest.approx(mpp.voltage * mpp.current, rel=1e-12)

    def test_fill_factor_in_unit_interval(self):
        mpp = simple_model().mpp()
        assert 0.0 < mpp.fill_factor < 1.0

    def test_k_in_plausible_band(self):
        mpp = simple_model().mpp()
        assert 0.3 < mpp.k < 0.95

    def test_dark_cell_mpp_is_zero(self):
        m = simple_model(photocurrent=0.0)
        mpp = m.mpp()
        assert mpp.power == 0.0
        assert mpp.voltage == 0.0

    def test_mpp_scales_with_light(self):
        lo = simple_model(photocurrent=20e-6).mpp()
        hi = simple_model(photocurrent=200e-6).mpp()
        assert hi.power > 5.0 * lo.power  # superlinear-ish in this regime
        assert hi.voc > lo.voc


class TestDerived:
    def test_source_resistance_positive_and_reasonable(self):
        m = simple_model()
        r = m.source_resistance_at_voc()
        assert r > m.series_resistance
        assert r < 1e7

    def test_source_resistance_matches_numerical_derivative(self):
        m = simple_model()
        voc = m.voc()
        di = 1e-9
        dv = float(m.voltage_at(0.0)) - float(m.voltage_at(di))
        assert m.source_resistance_at_voc() == pytest.approx(dv / di, rel=1e-3)

    def test_with_photocurrent_returns_new_instance(self):
        m = simple_model()
        m2 = m.with_photocurrent(50e-6)
        assert m2.photocurrent == 50e-6
        assert m.photocurrent == 100e-6

    def test_iv_curve_shapes(self):
        v, i = simple_model().iv_curve(points=50)
        assert len(v) == 50 and len(i) == 50
        assert v[0] == 0.0

    def test_iv_curve_rejects_single_point(self):
        with pytest.raises(ModelParameterError):
            simple_model().iv_curve(points=1)

    def test_power_at_vectorised(self):
        m = simple_model()
        p = m.power_at(np.array([0.5, 1.0, 2.0]))
        assert p.shape == (3,)
        assert np.all(p > 0.0)


class TestMPPResult:
    def test_fill_factor_nan_for_dark(self):
        r = MPPResult(voltage=0.0, current=0.0, power=0.0, voc=0.0, isc=0.0)
        assert math.isnan(r.fill_factor)
        assert math.isnan(r.k)
