"""Unit tests for the service admission boundary (repro.service.api)."""

import pytest

from repro.errors import ConfigError
from repro.service.api import (
    CHECKPOINTABLE,
    FIELDS,
    KINDS,
    JobSpec,
    build_spec,
    supports_checkpoint,
)


class TestBuildSpec:
    def test_minimal_spec_fills_defaults(self):
        spec = build_spec({"kind": "endurance"})
        assert spec.kind == "endurance"
        assert spec.params == {"days": 7, "dt": 20.0, "seed": 4}

    def test_every_kind_accepts_its_defaults(self):
        for kind in KINDS:
            spec = build_spec({"kind": kind, "params": {}})
            assert set(spec.params) == set(FIELDS[kind])

    def test_params_key_optional_and_nullable(self):
        assert build_spec({"kind": "montecarlo"}).params["boards"] == 500
        assert build_spec({"kind": "montecarlo", "params": None}).params["boards"] == 500

    def test_values_are_canonicalized(self):
        # int hours -> float; equal specs in different orders fingerprint equal
        a = build_spec({"kind": "comparison", "params": {"hours": 1, "dt": 10}})
        b = build_spec({"kind": "comparison", "params": {"dt": 10.0, "hours": 1.0}})
        assert isinstance(a.params["hours"], float)
        assert a.fingerprint == b.fingerprint

    def test_default_and_explicit_default_fingerprint_equal(self):
        a = build_spec({"kind": "endurance"})
        b = build_spec({"kind": "endurance", "params": {"days": 7}})
        assert a.fingerprint == b.fingerprint

    def test_different_specs_fingerprint_differently(self):
        a = build_spec({"kind": "endurance", "params": {"days": 1}})
        b = build_spec({"kind": "endurance", "params": {"days": 2}})
        assert a.fingerprint != b.fingerprint


class TestBuildSpecRejections:
    """Every rejection is a ConfigError naming the offending field."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            (None, "body"),
            ([1, 2], "body"),
            ("endurance", "body"),
            ({"kind": "nope"}, "kind"),
            ({}, "kind"),
            ({"kind": "endurance", "spec": {}}, "spec"),
            ({"kind": "endurance", "params": [1]}, "params"),
            ({"kind": "endurance", "params": {"weeks": 2}}, "weeks"),
            ({"kind": "endurance", "params": {"days": 0}}, "days"),
            ({"kind": "endurance", "params": {"days": 2.5}}, "days"),
            ({"kind": "endurance", "params": {"days": True}}, "days"),
            ({"kind": "comparison", "params": {"hours": -1}}, "hours"),
            ({"kind": "comparison", "params": {"hours": "24"}}, "hours"),
            ({"kind": "comparison", "params": {"hours": float("nan")}}, "hours"),
            ({"kind": "comparison", "params": {"engine": "warp"}}, "engine"),
            ({"kind": "comparison", "params": {"techniques": []}}, "techniques"),
            ({"kind": "comparison", "params": {"techniques": ["bogus"]}}, "techniques"),
            ({"kind": "comparison", "params": {"shading": 3}}, "shading"),
            ({"kind": "comparison", "params": {"shading": "not-a-map"}}, "shading"),
            ({"kind": "resilience", "params": {"include_recovery": 1}}, "include_recovery"),
            ({"kind": "resilience", "params": {"campaigns": ["nope"]}}, "campaigns"),
            ({"kind": "montecarlo", "params": {"boards": 10**9}}, "boards"),
            ({"kind": "montecarlo", "params": {"seed": -1}}, "seed"),
            ({"kind": "comparison", "params": {"engine": "fleet"}}, "engine"),
            ({"kind": "strings", "params": {"engine": "fleet"}}, "engine"),
            ({"kind": "montecarlo", "params": {"engine": "compiled"}}, "engine"),
            ({"kind": "resilience", "params": {"engine": "compiled"}}, "engine"),
            ({"kind": "comparison", "params": {"hours": 10**400}}, "hours"),
            ({"kind": "endurance", "params": {"days": float("nan")}}, "days"),
            ({"kind": "montecarlo", "params": {"boards": float("inf")}}, "boards"),
            ({"kind": "montecarlo", "params": {"boards": 1e400}}, "boards"),
        ],
    )
    def test_rejects_with_field(self, payload, field):
        with pytest.raises(ConfigError) as excinfo:
            build_spec(payload)
        assert excinfo.value.field == field

    def test_horizon_is_bounded(self):
        # Admission control: no spec can request unbounded work.
        with pytest.raises(ConfigError):
            build_spec({"kind": "comparison", "params": {"hours": 1e9}})
        with pytest.raises(ConfigError):
            build_spec({"kind": "endurance", "params": {"days": 10**6}})


class TestCheckpointable:
    def test_checkpointable_kinds(self):
        assert set(CHECKPOINTABLE) == {"resilience", "montecarlo", "endurance"}
        for kind in KINDS:
            assert supports_checkpoint(kind) == (kind in CHECKPOINTABLE)

    def test_jobspec_roundtrip(self):
        spec = build_spec({"kind": "strings", "params": {"hours": 2}})
        again = JobSpec(**spec.to_dict())
        assert again.fingerprint == spec.fingerprint
