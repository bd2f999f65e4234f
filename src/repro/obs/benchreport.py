"""``repro.obs.benchreport`` — trend analysis over the perf ledger.

``BENCH_perf.json`` accumulates per-experiment throughput history
across PRs, but history alone is write-only telemetry: nothing *reads*
the trend.  This module is the reader — ``python -m repro bench
report`` groups each experiment's entries by
:func:`~repro.sim.telemetry.host_fingerprint`, computes the same-host
median throughput, and flags any experiment whose newest same-host
entry fell below ``threshold × median``.  Cross-host and
pre-fingerprint entries are *ignored*, never compared: throughput on an
unknown machine says nothing about throughput here.

This is the repo's one throughput-regression checker: the perf-smoke
and compiled-throughput benches call :func:`analyze_ledger` right after
recording and fail when their own experiment's trend is ``regressed``.
The report renders as markdown (for humans and CI step summaries) or
JSON (for dashboards), and CI uploads it as an artifact next to the
perf-smoke gates.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ModelParameterError
from repro.sim import telemetry

DEFAULT_THRESHOLD = 0.5
"""Regression floor: flag when latest < threshold × same-host median."""

MIN_HISTORY = 2
"""Minimum same-host entries before a trend is meaningful (one entry
has no median to regress against)."""


def host_key(host: Optional[dict]) -> str:
    """Stable short label for a host fingerprint (report row key)."""
    if not isinstance(host, dict) or not host:
        return "unknown-host"
    python = host.get("python", "?")
    numpy_v = host.get("numpy", "?")
    cpus = host.get("cpu_count", "?")
    return f"py{python}-numpy{numpy_v}-{cpus}cpu"


@dataclass
class ExperimentTrend:
    """Per-experiment same-host throughput trend.

    Attributes:
        experiment: ledger key, e.g. ``"comparison_24h_dt10"``.
        host: short host label the trend was computed for.
        entries: number of same-host entries backing the trend.
        ignored: entries skipped as cross-host or pre-fingerprint.
        median_steps_per_s: median of the same-host history *excluding*
            the newest entry (so the suspect never shifts its own bar).
        latest_steps_per_s: the newest same-host entry's throughput.
        latest_note / latest_recorded: provenance of that entry.
        ratio: latest / median (``None`` with insufficient history).
        regressed: ``ratio < threshold``.
    """

    experiment: str
    host: str
    entries: int
    ignored: int
    median_steps_per_s: Optional[float]
    latest_steps_per_s: Optional[float]
    latest_note: str = ""
    latest_recorded: str = ""
    ratio: Optional[float] = None
    regressed: bool = False


@dataclass
class BenchReport:
    """The full analyzer output for one host view of the ledger."""

    host: str
    threshold: float
    ledger_path: str
    trends: List[ExperimentTrend] = field(default_factory=list)

    @property
    def regressions(self) -> List[ExperimentTrend]:
        """Trends flagged below the threshold, worst ratio first."""
        flagged = [t for t in self.trends if t.regressed]
        return sorted(flagged, key=lambda t: (t.ratio if t.ratio is not None else 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "host": self.host,
            "threshold": self.threshold,
            "ledger_path": self.ledger_path,
            "regressions": [t.experiment for t in self.regressions],
            "trends": [
                {
                    "experiment": t.experiment,
                    "host": t.host,
                    "entries": t.entries,
                    "ignored": t.ignored,
                    "median_steps_per_s": t.median_steps_per_s,
                    "latest_steps_per_s": t.latest_steps_per_s,
                    "latest_note": t.latest_note,
                    "latest_recorded": t.latest_recorded,
                    "ratio": t.ratio,
                    "regressed": t.regressed,
                }
                for t in self.trends
            ],
        }


def analyze_ledger(
    path: Optional[Path] = None,
    host: Optional[dict] = None,
    threshold: float = DEFAULT_THRESHOLD,
    min_history: int = MIN_HISTORY,
) -> BenchReport:
    """Compute per-experiment same-host throughput trends.

    Args:
        path: ledger location (default:
            :func:`~repro.sim.telemetry.bench_path`).
        host: fingerprint whose entries to analyze (default: the
            current machine's).  Entries from any other host — or with
            no fingerprint at all — are counted as ignored.
        threshold: flag when ``latest < threshold × median`` of the
            prior same-host history.
        min_history: same-host entries required before flagging (below
            it the trend is reported but never marked regressed).

    Returns:
        A :class:`BenchReport`; experiments with zero same-host entries
        still appear (all-ignored rows) so the report shows *why* an
        experiment has no trend.
    """
    if not 0.0 < threshold <= 1.0:
        raise ModelParameterError(f"threshold must be in (0, 1], got {threshold!r}")
    if min_history < 2:
        raise ModelParameterError(f"min_history must be >= 2, got {min_history!r}")
    ledger_path = path if path is not None else telemetry.bench_path()
    host = host if host is not None else telemetry.host_fingerprint()
    ledger = telemetry.load_ledger(ledger_path)
    report = BenchReport(
        host=host_key(host), threshold=float(threshold), ledger_path=str(ledger_path)
    )
    for experiment in sorted(ledger["experiments"]):
        history = ledger["experiments"][experiment] or []
        comparable = [
            e
            for e in history
            if isinstance(e, dict) and e.get("host") == host
            and isinstance(e.get("steps_per_s"), (int, float))
        ]
        ignored = len(history) - len(comparable)
        trend = ExperimentTrend(
            experiment=experiment,
            host=report.host,
            entries=len(comparable),
            ignored=ignored,
            median_steps_per_s=None,
            latest_steps_per_s=None,
        )
        if comparable:
            newest = comparable[-1]
            trend.latest_steps_per_s = float(newest["steps_per_s"])
            trend.latest_note = str(newest.get("note", ""))
            trend.latest_recorded = str(newest.get("recorded", ""))
        if len(comparable) >= min_history:
            baseline = [float(e["steps_per_s"]) for e in comparable[:-1]]
            median = statistics.median(baseline)
            trend.median_steps_per_s = median
            if median > 0.0:
                trend.ratio = trend.latest_steps_per_s / median
                trend.regressed = trend.ratio < threshold
        report.trends.append(trend)
    return report


def render_markdown(report: BenchReport) -> str:
    """The report as a markdown document (CI step-summary friendly)."""
    lines = [
        "# Bench trend report",
        "",
        f"- host: `{report.host}`",
        f"- ledger: `{report.ledger_path}`",
        f"- regression threshold: latest < {report.threshold:.0%} of same-host median",
        "",
    ]
    if report.regressions:
        lines.append(f"**{len(report.regressions)} regression(s) flagged:**")
        for t in report.regressions:
            lines.append(
                f"- `{t.experiment}`: {t.latest_steps_per_s:,.1f} steps/s is "
                f"{t.ratio:.0%} of the same-host median "
                f"{t.median_steps_per_s:,.1f} (note: {t.latest_note!r})"
            )
        lines.append("")
    else:
        lines.append("No regressions flagged.")
        lines.append("")
    lines.append(
        "| experiment | same-host entries | ignored | median steps/s "
        "| latest steps/s | latest/median | flag |"
    )
    lines.append("|---|---:|---:|---:|---:|---:|---|")

    def num(value: Optional[float]) -> str:
        return f"{value:,.1f}" if value is not None else "—"

    for t in report.trends:
        ratio = f"{t.ratio:.2f}" if t.ratio is not None else "—"
        flag = "**REGRESSED**" if t.regressed else ""
        lines.append(
            f"| `{t.experiment}` | {t.entries} | {t.ignored} "
            f"| {num(t.median_steps_per_s)} | {num(t.latest_steps_per_s)} "
            f"| {ratio} | {flag} |"
        )
    lines.append("")
    return "\n".join(lines)


def write_report(
    report: BenchReport,
    directory: Path,
    prefix: str = "bench_report",
) -> Dict[str, Path]:
    """Write the markdown + JSON renderings atomically.

    Returns ``{"markdown": path, "json": path}``.
    """
    from repro.ckpt.atomic import atomic_write_json, atomic_write_text

    directory = Path(directory)
    md_path = directory / f"{prefix}.md"
    json_path = directory / f"{prefix}.json"
    atomic_write_text(md_path, render_markdown(report))
    atomic_write_json(json_path, report.to_dict())
    return {"markdown": md_path, "json": json_path}


__all__ = [
    "DEFAULT_THRESHOLD",
    "MIN_HISTORY",
    "ExperimentTrend",
    "BenchReport",
    "analyze_ledger",
    "host_key",
    "render_markdown",
    "write_report",
]
