"""A fresh process importing the request entry points loads no optimiser.

Cold process start is part of a real request's wall time, and
``scipy.optimize`` is only needed to fit cell parameters
(``repro.pv.fitting``), which no request path calls.  ``scipy.special``
stays: its Lambert-W and Wright omega sit on the bitwise solve paths.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent.parent / "src"

ENTRY_POINTS = (
    "repro.experiments.comparison",
    "repro.experiments.resilience",
    "repro.service.server",
)


def test_request_entry_points_do_not_import_scipy_optimize():
    script = "\n".join(
        [
            "import importlib, sys",
            *(f"importlib.import_module({name!r})" for name in ENTRY_POINTS),
            "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)",
        ]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120.0,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
