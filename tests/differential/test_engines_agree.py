"""Differential tests: every engine tier, one spec, declared tolerances.

Fixed specs pin the contracts the repo's acceptance criteria name —
scalar<->fleet *bitwise* on shaded string runs (the resilience harness,
clean and under fault campaigns) and compiled within its LUT budget —
while Hypothesis draws
random spec corners (techniques x scenarios x string configs x shading)
so the equivalence story is exercised beyond the hand-picked cases.

Runtime discipline: every spec runs a coarse 24 h day (dt >= 20 min —
the scenarios are dark at t=0, so shorter windows would compare zeros)
and Hypothesis example counts are small; this suite is a smoke layer,
not a benchmark.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.comparison import default_controllers
from repro.pv.cells import am_1815
from tests.differential.harness import (
    DifferentialSpec,
    Tolerances,
    assert_engines_agree,
)

_CHEAP_TECHNIQUES = (
    "proposed-S&H-FOCV",
    "fixed-voltage",
    "no-MPPT-direct",
    "hill-climbing",
)


class TestFixedSpecs:
    def test_plain_cell_all_engines(self):
        techniques = ("proposed-S&H-FOCV", "fixed-voltage", "hill-climbing")
        assert_engines_agree(DifferentialSpec(techniques=techniques))
        # Resilience runs scalar and fleet: the default few-ulp budget.
        assert_engines_agree(
            DifferentialSpec(
                experiment="resilience",
                techniques=techniques,
                campaigns=("converter-brownout",),
            )
        )

    def test_shaded_string_all_engines(self):
        """A mismatched, shaded 4s string agrees within the LUT budget on
        the compiled comparison tier, and bitwise between scalar and
        fleet on the resilience clean campaign (where the fleet tier
        runs the S&H lanes)."""
        string = dict(
            n_cells=4,
            mismatch=(1.0, 0.9, 1.05, 0.85),
            shading="edge-sweep",
            techniques=("proposed-S&H-FOCV", "fixed-voltage", "hill-climbing"),
        )
        assert_engines_agree(DifferentialSpec(**string))
        outputs = assert_engines_agree(
            DifferentialSpec(experiment="resilience", **string),
            tols=Tolerances(fleet_rtol=0.0),
        )
        assert {key[0] for key in outputs["fleet"]} == {"clean"}

    def test_faulted_string_scalar_fleet_bitwise(self):
        """Fault campaigns on a shaded string: scalar<->fleet bitwise."""
        assert_engines_agree(
            DifferentialSpec(
                experiment="resilience",
                n_cells=3,
                mismatch=(1.0, 0.8, 1.1),
                shading="venetian",
                scenario="office-desk",
                techniques=("proposed-S&H-FOCV", "fixed-voltage"),
                campaigns=("light-dropout",),
                seed=7,
            ),
            tols=Tolerances(fleet_rtol=0.0),
            engines=("scalar", "fleet"),
        )

    def test_storage_less_lanes_all_techniques(self):
        """Every technique against the ideal 3 V rail: the compiled
        kernel's no-store branch agrees with scalar within the budget."""
        assert_engines_agree(
            DifferentialSpec(
                techniques=tuple(default_controllers(am_1815())),
                dt=60.0,
                use_storage=False,
            )
        )

    def test_zero_step_horizon_all_engines(self):
        """A horizon shorter than half a step runs no step at all: every
        tier still reports the store's starting voltage (the 3 V rail
        without storage) as the final voltage, not 0 V."""
        techniques = tuple(default_controllers(am_1815()))
        for use_storage, volts in ((True, 2.7), (False, 3.0)):
            outputs = assert_engines_agree(
                DifferentialSpec(
                    techniques=techniques, duration=3.6, dt=10.0, use_storage=use_storage
                )
            )
            for summary in outputs["scalar"].values():
                assert summary["duration"] == 0.0
                assert summary["final_storage_voltage"] == volts
        outputs = assert_engines_agree(
            DifferentialSpec(
                experiment="resilience",
                techniques=techniques,
                campaigns=("converter-brownout",),
                duration=3.6,
                dt=10.0,
            )
        )
        for engine in ("scalar", "fleet"):
            for summary in outputs[engine].values():
                assert summary["final_storage_voltage"] == 2.7

    def test_tolerance_violation_is_reported_per_field(self):
        """The harness fails loudly, naming lane and field."""
        spec = DifferentialSpec(techniques=("proposed-S&H-FOCV",))
        with pytest.raises(AssertionError) as excinfo:
            assert_engines_agree(
                spec,
                tols=Tolerances(compiled_energy_rtol=1e-30, compiled_voltage_atol=0.0),
                engines=("scalar", "compiled"),
            )
        assert "declared budget" in str(excinfo.value)
        assert "proposed-S&H-FOCV" in str(excinfo.value)


# One random spec corner: scenario, technique subset, string geometry,
# shading pattern.  Plain cells (n_cells=1) take no shading, matching
# the experiment surface's contract.
_spec = st.builds(
    lambda scenario, techniques, n_cells, mismatch, shading: DifferentialSpec(
        scenario=scenario,
        techniques=tuple(sorted(techniques)),
        n_cells=n_cells,
        mismatch=tuple(mismatch[:n_cells]) if n_cells > 1 else (),
        shading=shading if n_cells > 1 else None,
    ),
    st.sampled_from(("office-desk", "semi-mobile", "outdoor")),
    st.sets(st.sampled_from(_CHEAP_TECHNIQUES), min_size=1, max_size=2),
    st.sampled_from((1, 2, 4)),
    st.lists(
        st.floats(min_value=0.5, max_value=1.1), min_size=4, max_size=4
    ),
    st.sampled_from(
        (None, "edge-sweep", "venetian:depth=0.6", "blob:seed=5", "edge-sweep:depth=0.9")
    ),
)


class TestGeneratedSpecs:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_spec)
    def test_random_spec_agrees_across_engines(self, spec):
        assert_engines_agree(spec)
