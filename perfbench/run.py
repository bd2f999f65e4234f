"""Repository benchmark: cold comparisons, warm service traffic, faulted runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload comparison-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``comparison-cold``   — nine-technique × three-scenario compiled
  comparisons, each at a (hours, dt) the run has not used: every request
  misses the program cache.
* ``service-warm-mix``  — seeded job traffic against ``python -m repro
  serve`` after a warm-up comparison.
* ``resilience-faults`` — one fault campaign per request on the fleet
  engine.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is repeated with spans around each layer's
public calls and carries the per-layer metrics.  The line before it
stamps the run context, echoes the generated specs and gives sample
counts.  Every run uses a fresh directory under ``.perfbench/`` for its
working dir, data dirs, home and caches, and deletes it at the end; span
traces are kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no caches next to the benchmark's files

import inputs  # noqa: E402
import procs  # noqa: E402

WORKLOADS = ("comparison-cold", "service-warm-mix", "resilience-faults")
SETUP_PROBES = 6
"""In-process workloads time this many bare starts besides the worker's own."""
RUN_TIMEOUT_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _check_checkout(root: str) -> None:
    needed = [
        os.path.join(root, "src", "repro", "__init__.py"),
        *(
            os.path.join(root, "tests", "golden", f"comparison_{s}.json")
            for s in inputs.SCENARIOS
        ),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise SystemExit(f"perfbench: not a repro checkout (missing {missing[0]})")


def _source_digest(root: str) -> str:
    """Content hash of ``src/``: names the code even outside a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit(root: str):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _probe_setups(base, run_dir, env, deadline, count):
    """Time ``count`` bare starts of the worker up to its ``ready`` line."""
    setups = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(base + ["--probe"], cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True)
        try:
            procs.read_line(proc, deadline)
            setups.append(time.perf_counter() - t0)
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            procs.stop(proc)
    return setups


def _run_inprocess(root, run_dir, env, args, trace_path, deadline):
    script = os.path.join(HERE, "inprocess.py")
    base = [sys.executable, script, "--workload", args.workload, "--root", root]
    # Half the probes before the timed run and half after, so a short slow
    # spell of the host moves fewer than half of them.
    setups = _probe_setups(base, run_dir, env, deadline, SETUP_PROBES // 2)
    out_path = os.path.join(run_dir, "result.json")
    cmd = base + [
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_path,
    ]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True)
    try:
        procs.read_line(proc, deadline)
        setups.append(time.perf_counter() - t0)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        procs.stop(proc)
    if code != 0:
        raise RuntimeError(f"{args.workload} worker exited with {code}")
    setups += _probe_setups(base, run_dir, env, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    latencies = out["latencies"]
    busy = sum(latencies)
    out.update(
        setups=setups,
        attempted=len(out["specs"]),
        jobs_per_s=len(latencies) / busy if busy else 0.0,
        sim_steps_per_s=out["lane_steps"] / busy if busy else 0.0,
    )
    return out


def _end_to_end(out):
    lat = out["latencies"]
    return {
        "setup_s": (inputs.median(out["setups"]), "s"),
        "latency_s.p50": (inputs.median(lat), "s"),
        "jobs_per_s": ({"value": out["jobs_per_s"], "samples": len(lat)}, "1/s"),
        "sim_steps_per_s": ({"value": out["sim_steps_per_s"], "samples": len(lat)}, "1/s"),
        "peak_rss_mb": ({"value": out["peak_rss_mb"], "samples": 1}, "MB"),
    }


def _out_of_time(signum, frame):
    raise TimeoutError(f"perfbench: run exceeded {RUN_TIMEOUT_S:.0f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(int(RUN_TIMEOUT_S) + 5)  # backstop: the finally blocks stop every child

    root = os.getcwd()
    _check_checkout(root)
    base_dir = os.path.join(root, ".perfbench")
    run_dir = os.path.join(base_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(base_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(base_dir, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(run_dir)
    try:
        env = procs.isolated_env(root, run_dir)
        if args.workload == "service-warm-mix":
            import service_load

            out = service_load.run(root, run_dir, env, args, trace_path)
        else:
            out = _run_inprocess(root, run_dir, env, args, trace_path, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len({index for index, _ in out["errors"]})
    end_to_end = _end_to_end(out)
    tail = inputs.percentile(out["latencies"], 90)
    context = dict(
        out["context"],
        nproc=os.cpu_count(),
        python=platform.python_version(),
        git_commit=_git_commit(root),
        src_digest=_source_digest(root),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    detail = {
        "context": context,
        "requests": {"attempted": out["attempted"], "completed": len(out["latencies"]), "failed": failed},
        "end_to_end": {k: dict(v, unit=u) for k, (v, u) in end_to_end.items()},
        "latency_s.p90": tail,
        "errors": out["errors"][:20],
        "specs": out["specs"],
    }
    for key in ("classes", "campaigns", "breakdown"):
        if key in out:
            detail[key] = out[key]
    print(json.dumps({"perfbench": detail}))

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in out["layers"].items()}
    else:
        metrics = {k: {"value": v["value"], "unit": u} for k, (v, u) in end_to_end.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": out["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "slowdown", "_error")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
