"""Experiment job specs: dict in, validated spec out, run to a JSON result.

This is the service's admission boundary.  A job arrives as untrusted
JSON (``{"kind": "endurance", "params": {"days": 2}}``); this module
turns it into the same validated arguments the CLI builds — every field
type-, range- and choice-checked through :mod:`repro.validation` so a
bad spec dies here as a :class:`~repro.errors.ConfigError` naming the
offending field (the HTTP layer's 400 detail), never hours later inside
an engine as a :class:`~repro.errors.NumericalGuardError`.

Three guarantees the rest of :mod:`repro.service` builds on:

* **Canonical specs.**  :func:`build_spec` applies defaults and
  normalizes types, so two requests that mean the same run produce the
  same ``params`` dict and hence the same :attr:`JobSpec.fingerprint` —
  the key request coalescing and the TTL result cache share.
* **Deterministic runs.**  Every accepted spec is a pure function of
  its params: re-running it (after a crash, on another host) produces a
  bitwise-identical result dict.
* **Resumable where the experiment supports it.**  Kinds listed in
  :data:`CHECKPOINTABLE` accept the ``checkpoint_path``/``resume_from``
  plumbing from PR 4; the others simply re-run from scratch on
  recovery, which determinism makes equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.journal import spec_fingerprint
from repro.sim.engines import engine_choices
from repro.validation import require_finite

KINDS = ("comparison", "resilience", "montecarlo", "endurance", "strings")
"""Every experiment the service accepts, in CLI order."""

CHECKPOINTABLE = ("resilience", "montecarlo", "endurance")
"""Kinds whose drivers take ``checkpoint_path``/``resume_from`` — their
in-flight jobs survive a SIGKILL mid-run and resume bitwise; the rest
re-run from scratch (same result, by determinism)."""

_TECHNIQUES = (
    "ideal-oracle",
    "proposed-S&H-FOCV",
    "proposed-S&H-trimmed",
    "hill-climbing",
    "periodic-uC-FOCV",
    "pilot-cell",
    "photodiode-ref",
    "fixed-voltage",
    "no-MPPT-direct",
)
_SCENARIOS = ("office-desk", "semi-mobile", "outdoor")
_CAMPAIGNS = (
    "clean",
    "light-dropout",
    "flicker-burst",
    "irradiance-ramp",
    "converter-brownout",
    "storage-short",
    "component-drift",
)


# --- field coercers ---------------------------------------------------------
# Each returns the canonical value or raises ConfigError(field=...).

def _as_float(value: Any, field_name: str, lo: float, hi: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{field_name} must be a number, got {value!r}", field=field_name
        )
    if isinstance(value, float):
        require_finite(value, field_name)
    # Range-check before float(): a JSON integer past float's range
    # would raise OverflowError on conversion.
    if not (lo <= value <= hi):
        raise ConfigError(
            f"{field_name} must be in [{lo!r}, {hi!r}], got {value!r}",
            field=field_name,
        )
    return float(value)


def _as_int(value: Any, field_name: str, lo: int, hi: int) -> int:
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{field_name} must be an integer, got {value!r}", field=field_name
        )
    if not (lo <= value <= hi):
        raise ConfigError(
            f"{field_name} must be in [{lo}, {hi}], got {value!r}", field=field_name
        )
    return value


def _as_bool(value: Any, field_name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(
            f"{field_name} must be a boolean, got {value!r}", field=field_name
        )
    return value


def _as_choice(value: Any, field_name: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ConfigError(
            f"{field_name} must be one of {sorted(choices)}, got {value!r}",
            field=field_name,
        )
    return str(value)


def _as_name_list(value: Any, field_name: str, choices: Sequence[str]) -> List[str]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            f"{field_name} must be a non-empty list of names, got {value!r}",
            field=field_name,
        )
    names = []
    for item in value:
        if item not in choices:
            raise ConfigError(
                f"{field_name} entry {item!r} is not one of {sorted(choices)}",
                field=field_name,
            )
        names.append(str(item))
    return names


def _as_shading(value: Any, field_name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(
            f"{field_name} must be a shadow-map spec string, got {value!r}",
            field=field_name,
        )
    from repro.env.shading import SHADOW_MAPS
    from repro.errors import ModelParameterError
    from repro.experiments.comparison import parse_shading_spec

    try:
        name, _ = parse_shading_spec(value)
    except ModelParameterError as exc:
        raise ConfigError(str(exc), field=field_name) from None
    if name not in SHADOW_MAPS:
        raise ConfigError(
            f"{field_name} names unknown shadow map {name!r}; "
            f"known: {sorted(SHADOW_MAPS)}",
            field=field_name,
        )
    return value


# --- per-kind field tables --------------------------------------------------

@dataclass(frozen=True)
class _Field:
    """One accepted spec field: its default and its coercer."""

    default: Any
    coerce: Callable[[Any, str], Any]


def _f(lo: float, hi: float, default: float) -> _Field:
    return _Field(default, lambda v, n: _as_float(v, n, lo, hi))


def _i(lo: int, hi: int, default: int) -> _Field:
    return _Field(default, lambda v, n: _as_int(v, n, lo, hi))


def _b(default: bool) -> _Field:
    return _Field(default, _as_bool)


def _choice(choices: Sequence[str], default: str) -> _Field:
    return _Field(default, lambda v, n: _as_choice(v, n, choices))


def _names(choices: Sequence[str], default: Optional[List[str]]) -> _Field:
    return _Field(default, lambda v, n: _as_name_list(v, n, choices))


_SHADING = _Field(None, _as_shading)

# Horizon/step/size bounds double as admission control: a spec that
# passes is a bounded amount of work, so no request can tie a worker up
# for a simulated century.
FIELDS: Dict[str, Dict[str, _Field]] = {
    "comparison": {
        "hours": _f(1e-3, 24.0 * 14, 24.0),
        "dt": _f(0.5, 3600.0, 10.0),
        "engine": _choice(engine_choices("comparison"), "auto"),
        "techniques": _names(_TECHNIQUES, None),
        "scenarios": _names(_SCENARIOS, None),
        "shading": _SHADING,
    },
    "resilience": {
        "hours": _f(1e-3, 24.0 * 7, 24.0),
        "dt": _f(1.0, 3600.0, 60.0),
        "seed": _i(0, 2**31 - 1, 0),
        "engine": _choice(engine_choices("resilience"), "fleet"),
        "techniques": _names(_TECHNIQUES, None),
        "scenarios": _names(_SCENARIOS, None),
        "campaigns": _names(_CAMPAIGNS, None),
        "include_recovery": _b(True),
        "include_coldstart": _b(True),
    },
    "montecarlo": {
        "boards": _i(1, 20000, 500),
        "seed": _i(0, 2**31 - 1, 20110314),
        "lux": _f(1.0, 200_000.0, 1000.0),
        "engine": _choice(engine_choices("montecarlo"), "fleet"),
    },
    "endurance": {
        "days": _i(1, 60, 7),
        "dt": _f(1.0, 3600.0, 20.0),
        "seed": _i(0, 2**31 - 1, 4),
    },
    "strings": {
        "hours": _f(1e-3, 24.0 * 7, 24.0),
        "dt": _f(1.0, 3600.0, 60.0),
        "seed": _i(0, 2**31 - 1, 0),
        "engine": _choice(engine_choices("strings"), "scalar"),
    },
}


@dataclass(frozen=True)
class JobSpec:
    """One validated, canonical experiment request.

    ``params`` always carries every accepted field (defaults applied),
    so equal runs have equal params — and equal fingerprints.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Coalescing/cache key: canonical-JSON hash of kind + params."""
        return spec_fingerprint({"kind": self.kind, "params": self.params})

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}


def build_spec(payload: Any) -> JobSpec:
    """Validate a raw request body into a :class:`JobSpec`.

    Accepts ``{"kind": ..., "params": {...}}`` (``params`` optional).
    Every unknown key, wrong type, or out-of-range value raises
    :class:`~repro.errors.ConfigError` with ``field`` set — the HTTP
    layer returns it verbatim as the 400 body.
    """
    if not isinstance(payload, dict):
        raise ConfigError(
            f"request body must be a JSON object, got {type(payload).__name__}",
            field="body",
        )
    unknown_top = set(payload) - {"kind", "params"}
    if unknown_top:
        raise ConfigError(
            f"unknown top-level field(s) {sorted(unknown_top)}; "
            "expected {'kind', 'params'}",
            field=sorted(unknown_top)[0],
        )
    kind = payload.get("kind")
    if kind not in FIELDS:
        raise ConfigError(
            f"kind must be one of {sorted(FIELDS)}, got {kind!r}", field="kind"
        )
    raw = payload.get("params", {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(
            f"params must be a JSON object, got {type(raw).__name__}", field="params"
        )
    table = FIELDS[kind]
    unknown = set(raw) - set(table)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(
            f"unknown {kind} parameter {name!r}; accepted: {sorted(table)}",
            field=name,
        )
    params: Dict[str, Any] = {}
    for name, spec_field in table.items():
        if name in raw:
            params[name] = spec_field.coerce(raw[name], name)
        else:
            params[name] = spec_field.default
    return JobSpec(kind=kind, params=params)


def supports_checkpoint(kind: str) -> bool:
    """Whether this kind's driver takes checkpoint/resume arguments."""
    return kind in CHECKPOINTABLE


# --- execution --------------------------------------------------------------

def _run_comparison(p: Dict[str, Any], ck: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.comparison import net_energy_by_scenario, run_comparison

    cell = None
    if p["shading"] is not None:
        from repro.experiments.strings import DEFAULT_MISMATCH_4S
        from repro.pv.cells import am_1815
        from repro.pv.string import CellString

        cell = CellString(am_1815(), 4, mismatch=DEFAULT_MISMATCH_4S)
    results = run_comparison(
        cell=cell,
        duration=p["hours"] * 3600.0,
        dt=p["dt"],
        techniques=p["techniques"],
        scenarios=p["scenarios"],
        engine=p["engine"],
        shading=p["shading"],
    )
    return {"net_energy_by_scenario": net_energy_by_scenario(results)}


def _run_resilience(p: Dict[str, Any], ck: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.resilience import run_resilience

    report = run_resilience(
        duration=p["hours"] * 3600.0,
        dt=p["dt"],
        seed=p["seed"],
        techniques=p["techniques"],
        scenarios=p["scenarios"],
        campaigns=p["campaigns"],
        include_recovery=p["include_recovery"],
        include_coldstart=p["include_coldstart"],
        engine=p["engine"],
        **ck,
    )
    return {
        "seed": report.seed,
        "duration": report.duration,
        "dt": report.dt,
        "campaigns": list(report.campaigns),
        "cells": [c.to_dict() for c in report.cells],
        "recovery": [r.to_dict() for r in report.recovery],
        "coldstart": report.coldstart.to_dict() if report.coldstart else None,
    }


def _run_montecarlo(p: Dict[str, Any], ck: Dict[str, Any]) -> Dict[str, Any]:
    from repro.analysis.montecarlo import run_sample_hold_montecarlo

    result = run_sample_hold_montecarlo(
        boards=p["boards"],
        lux=p["lux"],
        seed=p["seed"],
        engine=p["engine"],
        **ck,
    )
    band = result.k_band(0.99)
    return {
        "boards": int(result.k_percent.size),
        "nominal_ratio": result.nominal_ratio,
        "mean_k": result.mean_k,
        "sigma_k": result.sigma_k,
        "band99": [band[0], band[1]],
        "k_percent": [float(k) for k in result.k_percent],
    }


def _run_endurance(p: Dict[str, Any], ck: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.endurance import run_week

    result = run_week(dt=p["dt"], seed=p["seed"], days=p["days"], **ck)
    return result.to_dict()


def _run_strings(p: Dict[str, Any], ck: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.comparison import net_energy_by_scenario
    from repro.experiments.strings import run_strings

    report = run_strings(
        duration=p["hours"] * 3600.0, dt=p["dt"], engine=p["engine"], seed=p["seed"]
    )
    return {
        "engine": report.engine,
        "census": {
            "counts": list(report.census.counts),
            "lux": report.census.lux,
            "map_name": report.census.map_name,
            "max_knees": report.census.max_knees,
            "multi_knee_fraction": report.census.multi_knee_fraction,
        },
        "comparisons": {
            label: net_energy_by_scenario(cells)
            for label, cells in report.comparisons.items()
        },
        "crossover": [
            {"depth": point.depth, "net_energy": dict(point.net_energy)}
            for point in report.crossover
        ],
        "crossover_depth": report.crossover_depth(),
    }


_RUNNERS = {
    "comparison": _run_comparison,
    "resilience": _run_resilience,
    "montecarlo": _run_montecarlo,
    "endurance": _run_endurance,
    "strings": _run_strings,
}


def run_job(
    spec: JobSpec,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute a validated spec and return its JSON-serializable result.

    For :data:`CHECKPOINTABLE` kinds the checkpoint arguments are
    threaded straight into the driver's PR-4 plumbing; for the rest
    they are ignored (those runs re-execute from scratch on recovery —
    deterministic, so the result is identical).

    Raises whatever the experiment raises — including
    :class:`~repro.errors.RunDrainedError` when a drain interrupts a
    checkpointed run — so the worker pool can classify the outcome.
    """
    if spec.kind not in _RUNNERS:
        raise ConfigError(f"unknown job kind {spec.kind!r}", field="kind")
    ck: Dict[str, Any] = {}
    if supports_checkpoint(spec.kind):
        ck["checkpoint_path"] = checkpoint_path
        ck["resume_from"] = resume_from
        if spec.kind == "endurance" and checkpoint_path is not None:
            ck["checkpoint_every"] = (
                checkpoint_every if checkpoint_every is not None else 3600.0
            )
    return _RUNNERS[spec.kind](spec.params, ck)


__all__ = [
    "KINDS",
    "CHECKPOINTABLE",
    "FIELDS",
    "JobSpec",
    "build_spec",
    "supports_checkpoint",
    "run_job",
]
