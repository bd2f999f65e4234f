"""E18 — heterogeneous string fleets under partial shading.

The paper's FOCV argument is made on a single cell; real deployments
wire several small cells in series, and a series string under partial
shading is a different machine: bypass diodes carve the P-V curve into
multiple local maxima, the headline Voc stops tracking the global MPP,
and every technique's failure mode changes.  This experiment asks the
string-era questions:

* **Does the curve really go multi-knee?**  A census of
  :class:`~repro.env.shading.BlobOcclusion` conditions counts the local
  maxima each shading pattern produces (the paper-adjacent partial
  shading literature, e.g. arXiv:2201.00403, predicts one knee per
  distinct irradiance group).
* **Does S&H FOCV survive mismatch?**  The full technique comparison
  runs on a shaded string — indoor edge-sweep and outdoor blob
  occlusion — on the scalar or compiled tier.
* **Where do hill-climbing and fixed-voltage cross over?**  A parked
  shadow edge of sweeping depth: shallow shade leaves one knee and
  rewards perturb-and-observe; deep shade splits the curve and a local
  tracker parks on the wrong hill, while FOCV's fractional-Voc point
  degrades gracefully.

The scalar and compiled tiers run the same specs; compiled agrees
with scalar within its LUT's declared budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.env.shading import build_shadow_map
from repro.errors import ModelParameterError
from repro.experiments.comparison import (
    ComparisonCell,
    parse_shading_spec,
    run_comparison,
)
from repro.obs import journal
from repro.obs.tracing import TRACER
from repro.pv.cells import am_1815
from repro.pv.string import CellString
from repro.sim.engines import EXPERIMENT_ENGINES, resolve_engine

DEFAULT_MISMATCH_4S = (1.0, 0.92, 1.04, 0.88)
"""Static per-cell mismatch of the default 4s string (manufacturing
spread of a few percent, one noticeably weak cell)."""

CROSSOVER_TECHNIQUES = ("proposed-S&H-FOCV", "hill-climbing", "fixed-voltage")
"""The three techniques whose ranking the depth sweep interrogates."""


@dataclass
class KneeCensus:
    """Local-maxima statistics over sampled shading conditions.

    Attributes:
        counts: local-maxima count per sampled condition.
        lux: the illuminance the census was taken at.
        map_name: the shadow map sampled.
    """

    counts: "list[int]"
    lux: float
    map_name: str

    @property
    def max_knees(self) -> int:
        """Most local maxima any sampled condition produced."""
        return max(self.counts) if self.counts else 0

    @property
    def multi_knee_fraction(self) -> float:
        """Fraction of sampled conditions with >= 2 local maxima."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c >= 2) / len(self.counts)


@dataclass
class CrossoverPoint:
    """Net harvest of the contrasted techniques at one shading depth."""

    depth: float
    net_energy: Dict[str, float]


@dataclass
class StringsReport:
    """E18's full output.

    Attributes:
        cell: the string under test.
        census: multi-knee census under blob occlusion.
        comparisons: scenario label -> technique results (indoor
            edge-sweep and outdoor blob occlusion comparisons).
        crossover: net energy per technique per parked-edge depth.
        engine: the tier the harvest runs used.
    """

    cell: CellString
    census: KneeCensus
    comparisons: Dict[str, List[ComparisonCell]]
    crossover: List[CrossoverPoint]
    engine: str = "scalar"

    def crossover_depth(self, a: str = "hill-climbing", b: str = "proposed-S&H-FOCV") -> Optional[float]:
        """Shallowest swept depth at which technique ``a`` nets less than ``b``.

        None when ``a`` holds its lead across the whole sweep.
        """
        for point in self.crossover:
            if point.net_energy[a] < point.net_energy[b]:
                return point.depth
        return None


def run_knee_census(
    cell: CellString,
    shading: str = "blob",
    lux: float = 10000.0,
    samples: int = 48,
    horizon: float = 24.0 * 3600.0,
) -> KneeCensus:
    """Count P-V local maxima over a shadow map's sampled conditions.

    Args:
        cell: the string under test.
        shading: shading spec (:func:`parse_shading_spec` form).
        lux: unshaded illuminance for every sample.
        samples: how many evenly spaced times to sample the map at.
        horizon: span the samples cover, seconds.
    """
    if samples < 1:
        raise ModelParameterError(f"samples must be >= 1, got {samples!r}")
    name, kwargs = parse_shading_spec(shading)
    shadow = build_shadow_map(name, cell.n_cells, **kwargs)
    counts: List[int] = []
    for t in np.linspace(0.0, horizon, samples, endpoint=False):
        factors = shadow.factors_at(float(t))
        model = cell.model_at(lux, factors=factors)
        counts.append(model.mpp().n_knees)
    return KneeCensus(counts=counts, lux=lux, map_name=shading)


def run_crossover_sweep(
    cell: CellString,
    depths: Sequence[float] = (0.0, 0.3, 0.5, 0.7, 0.85, 0.95),
    duration: float = 24.0 * 3600.0,
    dt: float = 60.0,
    engine: str = "scalar",
    scenario: str = "office-desk",
) -> List[CrossoverPoint]:
    """Net harvest vs parked-edge shading depth for the contrasted trio.

    A parked shadow edge (an :class:`~repro.env.shading.EdgeSweep`
    frozen mid-sweep via an effectively infinite period) shades half the
    string at each ``depth``; every technique then runs the full
    scenario day against that static pattern on the requested engine.
    """
    points: List[CrossoverPoint] = []
    for depth in depths:
        spec = f"edge-sweep:period=1e18,phase=0.25,depth={float(depth)}"
        results = run_comparison(
            cell=cell,
            duration=duration,
            dt=dt,
            techniques=list(CROSSOVER_TECHNIQUES),
            scenarios=[scenario],
            engine=engine,
            shading=spec,
        )
        points.append(
            CrossoverPoint(
                depth=float(depth),
                net_energy={r.technique: r.summary.net_energy for r in results},
            )
        )
    return points


def run_strings(
    cell: Optional[CellString] = None,
    duration: float = 24.0 * 3600.0,
    dt: float = 60.0,
    engine: str = "scalar",
    techniques: Sequence[str] | None = None,
    depths: Sequence[float] = (0.0, 0.3, 0.5, 0.7, 0.85, 0.95),
    census_samples: int = 48,
    seed: int = 0,
) -> StringsReport:
    """Run E18 end-to-end: census, shaded comparisons, depth sweep.

    Args:
        cell: the string under test (default: 4s AM-1815 with a few
            percent static mismatch).
        duration / dt: per-run horizon and quasi-static step, seconds.
        engine: ``"scalar"`` | ``"compiled"`` | ``"auto"`` — every
            harvest run goes through this tier.
        techniques: subset for the scenario comparisons (default: the
            oracle plus the contrasted trio).
        depths: parked-edge depths for the crossover sweep.
        census_samples: conditions sampled for the knee census.
        seed: blob-occlusion seed (census and outdoor comparison).
    """
    engine = resolve_engine(engine, EXPERIMENT_ENGINES["strings"], context="strings")
    cell = cell if cell is not None else CellString(am_1815(), 4, mismatch=DEFAULT_MISMATCH_4S)
    if getattr(cell, "n_cells", None) is None:
        raise ModelParameterError("run_strings needs a CellString")
    selected = (
        list(techniques)
        if techniques is not None
        else ["ideal-oracle", *CROSSOVER_TECHNIQUES]
    )

    run_spec = {
        "experiment": "strings",
        "cell": cell.name,
        "duration": duration,
        "dt": dt,
        "engine": engine,
        "techniques": list(selected),
        "depths": [float(d) for d in depths],
        "census_samples": census_samples,
        "seed": seed,
    }
    with TRACER.span("strings"), journal.run_scope("strings", spec=run_spec) as scope:
        with scope.phase("census"):
            census = run_knee_census(
                cell, shading=f"blob:seed={int(seed)}", samples=census_samples
            )
        with scope.phase("indoor edge-sweep"):
            indoor = run_comparison(
                cell=cell,
                duration=duration,
                dt=dt,
                techniques=selected,
                scenarios=["office-desk"],
                engine=engine,
                shading="edge-sweep",
            )
        with scope.phase("outdoor blob occlusion"):
            outdoor = run_comparison(
                cell=cell,
                duration=duration,
                dt=dt,
                techniques=selected,
                scenarios=["outdoor"],
                engine=engine,
                shading=f"blob:seed={int(seed)}",
            )
        comparisons = {
            "indoor edge-sweep": indoor,
            "outdoor blob occlusion": outdoor,
        }
        with scope.phase("crossover"):
            crossover = run_crossover_sweep(
                cell, depths=depths, duration=duration, dt=dt, engine=engine
            )

    return StringsReport(
        cell=cell,
        census=census,
        comparisons=comparisons,
        crossover=crossover,
        engine=engine,
    )


def render(report: StringsReport) -> str:
    """Printable E18 summary: census, comparisons, crossover table."""
    blocks = []

    census = report.census
    blocks.append(
        format_table(
            ["statistic", "value"],
            [
                ["string", report.cell.name],
                ["shadow map", census.map_name],
                ["conditions sampled", f"{len(census.counts)}"],
                ["max local maxima", f"{census.max_knees}"],
                ["multi-knee fraction", f"{census.multi_knee_fraction * 100:.1f} %"],
            ],
            title=f"E18 — P-V knee census at {census.lux:g} lux",
            align_right=False,
        )
    )

    for label, results in report.comparisons.items():
        rows = []
        for r in sorted(results, key=lambda r: r.summary.net_energy, reverse=True):
            s = r.summary
            rows.append(
                [
                    r.technique,
                    f"{s.net_energy:.3f}",
                    f"{s.energy_delivered:.3f}",
                    f"{s.tracking_efficiency * 100:.1f}",
                ]
            )
        blocks.append(
            format_table(
                ["technique", "net(J)", "delivered(J)", "track.eff(%)"],
                rows,
                title=f"E18 — shaded-string comparison ({label}, engine={report.engine})",
            )
        )

    rows = []
    for point in report.crossover:
        rows.append(
            [f"{point.depth:.2f}"]
            + [f"{point.net_energy[t]:.3f}" for t in CROSSOVER_TECHNIQUES]
        )
    blocks.append(
        format_table(
            ["depth", *CROSSOVER_TECHNIQUES],
            rows,
            title="E18 — net harvest (J) vs parked-edge shading depth",
        )
    )
    lines = []
    for rival, why in (
        ("hill-climbing", "perturbation overhead plus parking on the wrong hill"),
        ("fixed-voltage", "deep shade moves the global MPP off the factory set-point"),
    ):
        depth = report.crossover_depth(a=rival)
        if depth is None:
            lines.append(f"{rival} never fell below S&H FOCV across the sweep")
        else:
            lines.append(
                f"{rival} falls below S&H FOCV from depth {depth:.2f} on ({why})"
            )
    blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
