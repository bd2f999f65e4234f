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

