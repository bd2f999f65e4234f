"""Cross-engine differential harness: one spec, every engine, one diff.

The repo carries three executions of the same physics — the scalar
reference walk, the fleet engine (S&H chains replayed once, members
stepped on the scalar engine), and the LUT-backed compiled lane kernel —
plus per-suite spot checks that grew up ad hoc.  This harness
makes the equivalence contract first-class and reusable:

* :class:`DifferentialSpec` — a declarative description of one
  experiment run (cell/string geometry, shading, scenario, techniques,
  fault campaigns) that any engine can execute.
* :class:`Tolerances` — the *declared* agreement budget per engine
  pair.  Scalar and fleet share everything but the S&H chain replay,
  so they are held to a few ulp (bitwise on strings); the compiled
  tier is held to ~3x its measured table error (feedback-coupled
  techniques looser, since perturb/observe probes compound table error
  before self-correcting).
* :func:`assert_engines_agree` — run the spec through every engine its
  experiment implements (:data:`repro.sim.engines.EXPERIMENT_ENGINES`:
  comparison specs on scalar and compiled, resilience specs on scalar
  and fleet) and diff the harvest summaries field by field, failing with a
  readable per-field report.

Tests (including Hypothesis-generated specs) compose these; see
``test_engines_agree.py``.
"""

from dataclasses import dataclass

from repro.pv.cells import am_1815
from repro.pv.string import CellString
from repro.sim.engines import EXPERIMENT_ENGINES

SUMMARY_FIELDS = (
    "duration",
    "energy_ideal",
    "energy_at_cell",
    "energy_delivered",
    "energy_overhead",
    "energy_load",
    "final_storage_voltage",
)
ENERGY_FIELDS = ("energy_at_cell", "energy_delivered", "energy_overhead", "energy_load")

#: Techniques whose compiled-tier trajectory feeds back through the LUT
#: (operating point chosen from table values), compounding its error.
FEEDBACK_TECHNIQUES = ("hill-climbing",)


@dataclass(frozen=True)
class Tolerances:
    """Declared per-engine-pair agreement budgets.

    Attributes:
        fleet_rtol: scalar<->fleet relative tolerance per summary field.
            0.0 means bitwise.  Default is a few-ulp tolerance: on
            plain cells the fleet's S&H replay solves the loaded sample
            point in closed form where the scalar controller runs an
            MNA solve.  It is ~3x the worst plain-cell error measured
            over every campaign x scenario at 24 h (1.2e-14 at
            dt = 60 s, 5.2e-15 at dt = 1800 s).  String runs ARE bitwise (both sample through the
            same string bisection, and fleet members step on the scalar
            engine) — string tests pass ``fleet_rtol=0.0``.
        compiled_energy_rtol: scalar<->compiled energy-field tolerance,
            relative to the lane's ideal harvest.  ~3x the worst error
            measured against the golden 24 h / dt = 60 s fixtures on
            any non-feedback lane (1.06e-4, ideal oracle).
        compiled_voltage_atol: scalar<->compiled absolute tolerance on
            the final storage voltage, volts (~3x the measured 1.12e-4 V,
            photodiode reference).
        feedback_energy_rtol / feedback_voltage_atol: the same two
            budgets for :data:`FEEDBACK_TECHNIQUES` (~3x the measured
            4.53e-3 and 1.48e-3 V).
        ideal_rtol: scalar<->compiled tolerance on ``energy_ideal``,
            which the compiled tier replays from exact solves (measured
            bitwise; the golden suite's ``FLEET_RTOL``).
    """

    fleet_rtol: float = 3.5e-14
    compiled_energy_rtol: float = 3.5e-4
    compiled_voltage_atol: float = 3.5e-4
    feedback_energy_rtol: float = 1.4e-2
    feedback_voltage_atol: float = 4.5e-3
    ideal_rtol: float = 3e-15

    def compiled_budget(self, technique: str) -> "tuple[float, float]":
        if technique in FEEDBACK_TECHNIQUES:
            return self.feedback_energy_rtol, self.feedback_voltage_atol
        return self.compiled_energy_rtol, self.compiled_voltage_atol


@dataclass(frozen=True)
class DifferentialSpec:
    """One experiment run, declaratively, for any engine to execute.

    Attributes:
        experiment: ``"comparison"`` or ``"resilience"``.
        n_cells: 1 builds a plain AM-1815 cell; more builds a series
            string of them.
        mismatch: static per-cell irradiance factors (strings only;
            empty means uniform).
        shading: shadow-map spec string (strings only), e.g.
            ``"edge-sweep:depth=0.6"``.
        scenario: environment name from the comparison suite.
        techniques: technique subset to run.
        campaigns: fault campaigns (resilience only; ``"clean"`` is
            always prepended by the experiment itself).
        duration / dt: horizon and quasi-static step, seconds.
        seed: campaign seed (resilience only).
        use_storage: charge a supercapacitor; False runs every lane
            against the ideal 3 V rail (comparison only).
    """

    experiment: str = "comparison"
    n_cells: int = 1
    mismatch: "tuple[float, ...]" = ()
    shading: "str | None" = None
    scenario: str = "office-desk"
    techniques: "tuple[str, ...]" = ("proposed-S&H-FOCV", "fixed-voltage")
    campaigns: "tuple[str, ...]" = ()
    duration: float = 24.0 * 3600.0
    dt: float = 1800.0
    seed: int = 0
    use_storage: bool = True

    def build_cell(self):
        if self.n_cells <= 1:
            return am_1815()
        return CellString(
            am_1815(), self.n_cells, mismatch=self.mismatch or None
        )


def run_spec(spec: DifferentialSpec, engine: str) -> dict:
    """Execute the spec on one engine.

    Returns ``{(scenario, technique): {field: value}}`` for comparison
    specs and ``{(campaign, scenario, technique): {field: value}}`` for
    resilience specs.
    """
    cell = spec.build_cell()
    if spec.experiment == "comparison":
        from repro.experiments.comparison import run_comparison

        results = run_comparison(
            cell=cell,
            duration=spec.duration,
            dt=spec.dt,
            techniques=list(spec.techniques),
            scenarios=[spec.scenario],
            use_storage=spec.use_storage,
            engine=engine,
            shading=spec.shading,
        )
        return {
            (r.scenario, r.technique): {
                f: getattr(r.summary, f) for f in SUMMARY_FIELDS
            }
            for r in results
        }
    if spec.experiment == "resilience":
        from repro.experiments.resilience import run_resilience

        report = run_resilience(
            cell=cell,
            duration=spec.duration,
            dt=spec.dt,
            techniques=list(spec.techniques),
            scenarios=[spec.scenario],
            campaigns=list(spec.campaigns),
            seed=spec.seed,
            include_recovery=False,
            include_coldstart=False,
            engine=engine,
            shading=spec.shading,
        )
        return {
            (c.campaign, c.scenario, c.technique): {
                f: getattr(c.summary, f) for f in SUMMARY_FIELDS
            }
            for c in report.cells
        }
    raise ValueError(f"unknown experiment {spec.experiment!r}")


def _diff_fleet(key, ref, other, tols: Tolerances) -> "list[str]":
    problems = []
    for f in SUMMARY_FIELDS:
        a, b = ref[f], other[f]
        if tols.fleet_rtol == 0.0:
            ok = a == b
        else:
            ok = abs(a - b) <= tols.fleet_rtol * max(abs(a), abs(b)) + 1e-18
        if not ok:
            problems.append(
                f"{key}/{f}: scalar {a!r} != fleet {b!r} "
                f"(declared rtol {tols.fleet_rtol:g})"
            )
    return problems


def _diff_compiled(key, ref, other, tols: Tolerances) -> "list[str]":
    technique = key[-1]
    etol, vtol = tols.compiled_budget(technique)
    problems = []
    if ref["duration"] != other["duration"]:
        problems.append(f"{key}/duration: {ref['duration']} != {other['duration']}")
    scale = max(abs(ref["energy_ideal"]), 1e-9)
    # The ideal trace is replayed from exact solves, not interpolated.
    err = abs(ref["energy_ideal"] - other["energy_ideal"]) / scale
    if err > tols.ideal_rtol:
        problems.append(
            f"{key}/energy_ideal: compiled deviates rel {err:.3e} "
            "(must be replayed exactly)"
        )
    for f in ENERGY_FIELDS:
        err = abs(ref[f] - other[f]) / scale
        if err > etol:
            problems.append(
                f"{key}/{f}: compiled error {err:.3e} exceeds declared "
                f"budget {etol:.1e} (relative to ideal harvest)"
            )
    dv = abs(ref["final_storage_voltage"] - other["final_storage_voltage"])
    if dv > vtol:
        problems.append(
            f"{key}/final_storage_voltage: compiled off by {dv:.3e} V "
            f"(declared budget {vtol:.1e} V)"
        )
    return problems


def assert_engines_agree(
    spec: DifferentialSpec,
    tols: "Tolerances | None" = None,
    engines: "tuple[str, ...] | None" = None,
) -> dict:
    """Run the spec through every engine and diff against scalar.

    ``engines`` defaults to every tier the spec's experiment
    implements.  The scalar walk is the reference; ``fleet`` is diffed
    at ``tols.fleet_rtol`` and ``compiled`` at the LUT's declared
    budget.  Raises ``AssertionError`` with every violated field
    listed; returns ``{engine: summaries}`` on success so callers can
    assert additional facts.
    """
    tols = tols if tols is not None else Tolerances()
    if engines is None:
        engines = EXPERIMENT_ENGINES[spec.experiment]
    if "scalar" not in engines:
        raise ValueError("the scalar reference engine is required")
    outputs = {engine: run_spec(spec, engine) for engine in engines}
    reference = outputs["scalar"]
    problems: "list[str]" = []
    for engine in engines:
        if engine == "scalar":
            continue
        candidate = outputs[engine]
        if set(candidate) != set(reference):
            problems.append(
                f"{engine}: lane set differs from scalar "
                f"(missing {set(reference) - set(candidate)}, "
                f"extra {set(candidate) - set(reference)})"
            )
            continue
        differ = _diff_fleet if engine == "fleet" else _diff_compiled
        for key in sorted(reference):
            problems.extend(differ(key, reference[key], candidate[key], tols))
    assert not problems, (
        f"engines disagree on {spec}:\n" + "\n".join(problems)
    )
    return outputs


__all__ = [
    "DifferentialSpec",
    "Tolerances",
    "SUMMARY_FIELDS",
    "assert_engines_agree",
    "run_spec",
]
