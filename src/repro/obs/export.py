"""Exporters for the observability layer's collected state.

Three formats, one source of truth (:data:`~repro.obs.metrics.REGISTRY`
plus :data:`~repro.obs.tracing.TRACER`):

* :func:`run_report` — a JSON-able dict with every counter and the
  full span tree; what CI uploads per run.
* :func:`prometheus_text` — Prometheus text exposition (``# HELP`` /
  ``# TYPE`` + ``_total`` samples), scrape-ready if a node ever serves
  it over HTTP.
* :func:`collapsed_stacks` — Brendan-Gregg collapsed-stack lines
  (``root;child;leaf <self-time-µs>``), directly consumable by
  ``flamegraph.pl`` or speedscope.

:func:`write_profile` writes all three next to each other, which is
what ``python -m repro profile <experiment>`` calls.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import List

from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.tracing import TraceNode, Tracer, TRACER

_PROM_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    """Sanitize an instrument name into Prometheus' ``[a-zA-Z0-9_]`` charset."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return _PROM_PREFIX + cleaned


def _prom_labels(labels) -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def run_report(
    registry: MetricsRegistry = REGISTRY,
    tracer: Tracer = TRACER,
    note: str = "",
) -> dict:
    """The JSON run-report: all counters plus the span tree.

    Args:
        registry: metrics source (default: the process-wide one).
        tracer: trace source (default: the process-wide one).
        note: free-form context stored in the report header.
    """
    metrics = [
        {"name": inst.name, "labels": dict(inst.labels), "description": inst.description,
         "kind": "counter", "value": inst.value}
        for inst in registry.instruments()
    ]
    return {
        "schema": 1,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "note": note,
        "metrics": metrics,
        "trace": tracer.snapshot(),
    }


def prometheus_text(registry: MetricsRegistry = REGISTRY) -> str:
    """Prometheus text exposition of every registered counter."""
    lines: List[str] = []
    seen_headers = set()
    for inst in registry.instruments():
        base = _prom_name(inst.name) + "_total"
        if base not in seen_headers:
            seen_headers.add(base)
            if inst.description:
                lines.append(f"# HELP {base} {inst.description}")
            lines.append(f"# TYPE {base} counter")
        lines.append(f"{base}{_prom_labels(inst.labels)} {_fmt(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def collapsed_stacks(tracer: Tracer = TRACER) -> str:
    """Flamegraph-compatible collapsed stacks from the span tree.

    One line per tree node: the semicolon-joined path from a root span
    down to the node, then the node's *self* time in integer
    microseconds (total minus children, so a flamegraph's widths add up
    correctly).  Zero-self-time interior nodes are omitted — their time
    lives in their children.
    """
    lines: List[str] = []

    def walk(node: TraceNode, path: str) -> None:
        here = f"{path};{node.name}" if path else node.name
        self_us = int(round(node.self_s * 1e6))
        if self_us > 0:
            lines.append(f"{here} {self_us}")
        for child in node.children.values():
            walk(child, here)

    for top in tracer.root.children.values():
        walk(top, "")
    return "\n".join(lines) + ("\n" if lines else "")


def render_summary(
    registry: MetricsRegistry = REGISTRY,
    tracer: Tracer = TRACER,
    top: int = 12,
) -> str:
    """A terminal-friendly digest: busiest counters and slowest spans."""
    lines = ["observability summary", "---------------------"]
    counters = [i for i in registry.instruments() if i.value]
    counters.sort(key=lambda c: c.value, reverse=True)
    for c in counters[:top]:
        label = c.name
        if c.labels:
            label += "{" + ",".join(f"{k}={v}" for k, v in c.labels) + "}"
        lines.append(f"  {label:<56} {_fmt(c.value):>14}")

    spans: List[tuple] = []

    def walk(node: TraceNode, path: str) -> None:
        here = f"{path};{node.name}" if path else node.name
        spans.append((node.total_s, here, node.count))
        for child in node.children.values():
            walk(child, here)

    for child in tracer.root.children.values():
        walk(child, "")
    spans.sort(reverse=True)
    if spans:
        lines.append("  spans (total s / count):")
        for total_s, path, count in spans[:top]:
            lines.append(f"    {path:<54} {total_s:>10.4f} / {count}")
    return "\n".join(lines)


def write_profile(
    directory, prefix: str,
    registry: MetricsRegistry = REGISTRY,
    tracer: Tracer = TRACER,
    note: str = "",
) -> "dict[str, Path]":
    """Write the JSON report, Prometheus text, and collapsed stacks.

    Args:
        directory: output directory (created if missing).
        prefix: filename stem — produces ``<prefix>.json``,
            ``<prefix>.prom``, ``<prefix>.folded``.

    Returns:
        ``{"json": ..., "prom": ..., "folded": ...}`` paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": directory / f"{prefix}.json",
        "prom": directory / f"{prefix}.prom",
        "folded": directory / f"{prefix}.folded",
    }
    # Atomic writes: profile artifacts are uploaded by CI and read by
    # dashboards mid-run; a crash must not leave a torn export.
    from repro.ckpt.atomic import atomic_write_json, atomic_write_text

    atomic_write_json(
        paths["json"], run_report(registry, tracer, note=note), sort_keys=False
    )
    atomic_write_text(paths["prom"], prometheus_text(registry))
    atomic_write_text(paths["folded"], collapsed_stacks(tracer))
    return paths


def counters_dict(registry: MetricsRegistry = REGISTRY) -> "dict[str, float]":
    """Flat ``{name: value}`` of nonzero counters (labels folded into the name).

    The compact form the journal's ``run-end`` event carries.
    """
    out = {}
    for inst in registry.instruments():
        if inst.value:
            name = inst.name
            if inst.labels:
                name += "{" + ",".join(f"{k}={v}" for k, v in inst.labels) + "}"
            out[name] = inst.value
    return out


__all__ = [
    "run_report",
    "prometheus_text",
    "collapsed_stacks",
    "render_summary",
    "write_profile",
    "counters_dict",
]
