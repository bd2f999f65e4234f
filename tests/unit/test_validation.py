"""Construction-time parameter validation (repro.validation, ConfigError)."""

import math

import pytest

from repro.errors import (
    ConfigError,
    ConfigurationError,
    ModelParameterError,
    ReproError,
)
from repro.validation import (
    require_finite,
    require_in_range,
    require_non_negative,
    require_positive,
)

NAN = float("nan")
INF = float("inf")


class TestHelpers:
    def test_finite_passes_through(self):
        require_finite(0.0, "x")
        require_finite(-3.5, "x")

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_finite_rejects_nonfinite(self, bad):
        with pytest.raises(ConfigError) as excinfo:
            require_finite(bad, "capacitance")
        assert excinfo.value.field == "capacitance"
        assert "capacitance" in str(excinfo.value)

    def test_positive_rejects_zero_and_nan(self):
        require_positive(1e-12, "dt")
        with pytest.raises(ConfigError):
            require_positive(0.0, "dt")
        with pytest.raises(ConfigError) as excinfo:
            require_positive(NAN, "dt")
        assert excinfo.value.field == "dt"

    def test_non_negative(self):
        require_non_negative(0.0, "esr")
        with pytest.raises(ConfigError):
            require_non_negative(-1e-9, "esr")

    def test_in_range(self):
        require_in_range(0.5, "soc", 0.0, 1.0)
        with pytest.raises(ConfigError):
            require_in_range(1.5, "soc", 0.0, 1.0)
        with pytest.raises(ConfigError):
            require_in_range(0.0, "eff", 0.0, 1.0, low_open=True)

    def test_config_error_catchable_as_legacy_types(self):
        """Every pre-existing except site keeps working."""
        err = ConfigError("bad", field="x")
        assert isinstance(err, ModelParameterError)
        assert isinstance(err, ConfigurationError)
        assert isinstance(err, ValueError)
        assert isinstance(err, ReproError)


class TestWiredConstructors:
    def test_supercap_rejects_nan_capacitance(self):
        from repro.storage.supercap import Supercapacitor

        with pytest.raises(ConfigError) as excinfo:
            Supercapacitor(capacitance=NAN)
        assert excinfo.value.field == "capacitance"

    def test_supercap_negative_still_model_parameter_error(self):
        from repro.storage.supercap import Supercapacitor

        with pytest.raises(ModelParameterError):
            Supercapacitor(capacitance=-1.0)

    def test_battery_rejects_inf_capacity(self):
        from repro.storage.battery import IdealBattery

        with pytest.raises(ConfigError) as excinfo:
            IdealBattery(capacity_joules=INF)
        assert excinfo.value.field == "capacity_joules"

    def test_scheduler_rejects_nan_threshold(self):
        from repro.node.scheduler import EnergyAwareScheduler
        from repro.node.sensor_node import SensorNode

        with pytest.raises(ConfigError) as excinfo:
            EnergyAwareScheduler(node=SensorNode(), storage=None, v_survival=NAN)
        assert excinfo.value.field == "v_survival"

    def test_thermal_rejects_nan_area(self):
        from repro.pv.thermal import CellThermalModel

        with pytest.raises(ConfigError) as excinfo:
            CellThermalModel(area_cm2=NAN)
        assert excinfo.value.field == "area_cm2"

    def test_simulator_rejects_nan_supply(self):
        from repro.baselines.hill_climbing import HillClimbing
        from repro.pv.cells import am_1815
        from repro.sim.precompute import precompute_conditions
        from repro.sim.quasistatic import QuasiStaticSimulator

        pc = precompute_conditions(am_1815(), lambda t: 1000.0, 10.0, 1.0)
        with pytest.raises(ConfigError) as excinfo:
            QuasiStaticSimulator(HillClimbing(), pc, supply_voltage=NAN)
        assert excinfo.value.field == "supply_voltage"

    def test_precompute_rejects_nonpositive_temperature(self):
        from repro.pv.cells import am_1815
        from repro.sim.precompute import precompute_conditions

        for temperature in (NAN, 0.0):
            with pytest.raises(ConfigError) as excinfo:
                precompute_conditions(
                    am_1815(), lambda t: 1000.0, 10.0, 1.0, temperature=temperature
                )
            assert excinfo.value.field == "temperature"

    def test_platform_config_rejects_nan_alpha(self):
        from repro.core.config import PlatformConfig

        with pytest.raises(ConfigError) as excinfo:
            PlatformConfig(alpha=NAN)
        assert excinfo.value.field == "alpha"

    def test_valid_constructions_unaffected(self):
        from repro.storage.supercap import Supercapacitor
        from repro.pv.thermal import CellThermalModel

        cap = Supercapacitor(capacitance=0.1, voltage=2.0)
        assert math.isclose(cap.stored_energy, 0.5 * 0.1 * 4.0)
        model = CellThermalModel(area_cm2=5.0)
        assert model.temperature == model.ambient_k
