"""Child-process helpers: isolated environments, line reads with deadlines."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from typing import Dict, Optional


def isolated_env(root: str, run_dir: str) -> Dict[str, str]:
    """Environment for a child: fresh home, temp and cache dirs in ``run_dir``.

    ``REPRO_*`` variables of the caller are dropped, and the perf ledger
    path points into the run directory, so no run reads or writes state
    another run left behind.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))}
    dirs = {}
    for name in ("home", "tmp", "cache", "config", "data"):
        dirs[name] = os.path.join(run_dir, name)
        os.makedirs(dirs[name], exist_ok=True)
    env.update(
        HOME=dirs["home"],
        TMPDIR=dirs["tmp"],
        XDG_CACHE_HOME=dirs["cache"],
        XDG_CONFIG_HOME=dirs["config"],
        XDG_DATA_HOME=dirs["data"],
        NUMBA_CACHE_DIR=os.path.join(dirs["cache"], "numba"),
        REPRO_BENCH_PATH=os.path.join(run_dir, "BENCH_perf.json"),
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
    )
    return env


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The child's next stdout line; raises if it exits or the deadline passes."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no output from pid {proc.pid} before the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"pid {proc.pid} exited with {proc.wait()} before reporting")
            return line.strip()


def stop(proc: Optional[subprocess.Popen], timeout: float = 30.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the child."""
    if proc is None or proc.poll() is not None:
        if proc is not None and proc.stdout:
            proc.stdout.close()
        return
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()
