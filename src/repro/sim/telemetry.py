"""Performance telemetry: wall-time and throughput per experiment.

The ROADMAP's north star is an engine that runs "as fast as the
hardware allows" — which is only meaningful if every PR can see what
the previous one achieved.  This module appends run records to a JSON
ledger (``BENCH_perf.json`` at the repository root by default) so the
perf trajectory is tracked across PRs:

    with measure("comparison_24h_dt10", steps=27 * 8640) as perf:
        run_comparison(duration=24 * HOURS, dt=10.0)
    record_perf(perf, note="condition-cache + batch MPP")

Ledger shape (one history list per experiment, newest last)::

    {
      "schema": 1,
      "experiments": {
        "comparison_24h_dt10": [
          {"wall_s": 108.8, "steps": 233280, "steps_per_s": 2143,
           "note": "seed", "recorded": "2026-08-06T..."},
          ...
        ]
      }
    }

``steps_per_s`` is the figure to compare across entries; ``wall_s``
alone is machine-dependent but still useful within one machine's
history.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ModelParameterError, TelemetryPathError

BENCH_FILENAME = "BENCH_perf.json"
_ENV_OVERRIDE = "REPRO_BENCH_PATH"

_MODULE_PATH = Path(__file__).resolve()
"""Anchor for the repo-root walk (separate constant so tests can point it
at a rootless location and assert the installed-copy error)."""


def bench_path() -> Path:
    """Resolve the ledger path.

    ``REPRO_BENCH_PATH`` wins if set; otherwise the repository root is
    located by walking up from this module (the checkout layout puts it
    at ``src/repro/sim/``).

    Raises:
        TelemetryPathError: when no ancestor carries a
            ``pyproject.toml`` — i.e. the package runs from an installed
            copy with no checkout to anchor the ledger.  Silently
            writing to the current working directory (the old fallback)
            scattered ``BENCH_perf.json`` files wherever the process
            happened to start; an explicit override is required instead.
    """
    override = os.environ.get(_ENV_OVERRIDE)
    if override:
        return Path(override)
    for parent in _MODULE_PATH.parents:
        if (parent / "pyproject.toml").exists():
            return parent / BENCH_FILENAME
    raise TelemetryPathError(
        "cannot locate the repository root for the perf ledger: no ancestor "
        f"of {str(_MODULE_PATH)!r} contains pyproject.toml (installed copy?). "
        f"Set {_ENV_OVERRIDE} to an explicit ledger path."
    )


def host_fingerprint() -> dict:
    """Identify the machine a perf entry was recorded on.

    ``steps_per_s`` figures are only comparable within one host; the
    fingerprint lets readers (and :mod:`repro.obs.benchreport`'s
    regression check) partition the history instead of comparing a
    laptop against a CI runner.  Kept
    deliberately coarse — interpreter version, NumPy version, core
    count — so it is stable across runs on the same machine.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


@dataclass
class PerfSample:
    """One measured run of one experiment.

    Attributes:
        experiment: ledger key, e.g. ``"comparison_24h_dt10"``.
        steps: simulated quasi-static steps covered by the measurement.
        wall_s: elapsed wall time, seconds (filled by :func:`measure`).
    """

    experiment: str
    steps: int
    wall_s: float = 0.0
    _t0: float = field(default=0.0, repr=False)

    @property
    def steps_per_s(self) -> float:
        """Throughput; 0 when nothing was measured."""
        return self.steps / self.wall_s if self.wall_s > 0.0 else 0.0


@contextmanager
def measure(experiment: str, steps: int) -> Iterator[PerfSample]:
    """Time a block; the yielded sample's ``wall_s`` is set on exit."""
    if steps < 0:
        raise ModelParameterError(f"steps must be >= 0, got {steps!r}")
    sample = PerfSample(experiment=experiment, steps=steps)
    t0 = time.perf_counter()
    try:
        yield sample
    finally:
        sample.wall_s = time.perf_counter() - t0


def load_ledger(path: Optional[Path] = None) -> dict:
    """Read the ledger (an empty skeleton if absent or unreadable)."""
    path = path if path is not None else bench_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("experiments"), dict):
            return data
    except (OSError, ValueError):
        pass
    return {"schema": 1, "experiments": {}}


def record_perf(
    sample: PerfSample,
    note: str = "",
    path: Optional[Path] = None,
    keep_last: int = 50,
    counters: Optional[dict] = None,
) -> dict:
    """Append ``sample`` to the ledger and write it back.

    Args:
        sample: a measured :class:`PerfSample`.
        note: free-form context ("seed", "precompute+batch", ...).
        path: ledger location (default: :func:`bench_path`).
        keep_last: history bound per experiment.
        counters: optional ``{instrument: value}`` observability
            counters recorded alongside the throughput figure (see
            :func:`repro.obs.export.counters_dict`) — cache hit rates
            and solver call counts explain *why* ``steps_per_s`` moved.

    The read-modify-write cycle holds an advisory lock and the rewrite
    is atomic (write-temp, fsync, rename), so concurrent recorders —
    two CLI runs on one host, two CI jobs on one runner — cannot
    interleave into a corrupt or half-written ledger, and readers never
    observe a torn file.

    Returns:
        The entry that was appended.
    """
    from repro.ckpt.atomic import locked_update_json

    path = path if path is not None else bench_path()
    entry = {
        "wall_s": round(sample.wall_s, 4),
        "steps": sample.steps,
        "steps_per_s": round(sample.steps_per_s, 1),
        "note": note,
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": host_fingerprint(),
    }
    if counters:
        entry["counters"] = {str(k): v for k, v in sorted(counters.items())}

    def append(data: dict) -> dict:
        if not (isinstance(data, dict) and isinstance(data.get("experiments"), dict)):
            data = {"schema": 1, "experiments": {}}
        history = data["experiments"].setdefault(sample.experiment, [])
        history.append(entry)
        del history[:-keep_last]
        return data

    locked_update_json(path, append, default=lambda: {"schema": 1, "experiments": {}})
    return entry


def latest(experiment: str, path: Optional[Path] = None) -> Optional[dict]:
    """The newest ledger entry for ``experiment``, or None."""
    history = load_ledger(path)["experiments"].get(experiment) or []
    return history[-1] if history else None


__all__ = [
    "PerfSample",
    "measure",
    "record_perf",
    "load_ledger",
    "latest",
    "host_fingerprint",
    "bench_path",
    "BENCH_FILENAME",
]
