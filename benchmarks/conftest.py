"""Shared infrastructure for the benchmark harness.

Each bench regenerates one of the paper's tables/figures, times the
computation with pytest-benchmark, prints the rendered rows, and saves
them under ``benchmarks/results/`` so EXPERIMENTS.md can reference a
durable artefact.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment table and echo it to the console."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def assert_not_regressed():
    """Fail when an experiment's newest same-host ledger entry regressed.

    Call right after ``record_perf``: :func:`repro.obs.benchreport.analyze_ledger`
    compares the new entry against the median of the prior same-host
    entries (one prior entry is enough) and flags it below half that
    median.  Entries from other hosts, or without a fingerprint, are
    ignored, so the check never trips on a fresh runner.
    """
    from repro.obs.benchreport import analyze_ledger

    def _check(experiment: str) -> None:
        trend = next(t for t in analyze_ledger().trends if t.experiment == experiment)
        assert not trend.regressed, (
            f"throughput regression in {experiment!r}: "
            f"{trend.latest_steps_per_s:.1f} steps/s is {trend.ratio:.0%} of the "
            f"same-host median {trend.median_steps_per_s:.1f}"
        )

    return _check
