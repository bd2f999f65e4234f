"""The ``service-warm-mix`` workload: seeded job traffic against ``repro serve``.

Set-up starts ``python -m repro serve --port 0 --workers 2`` on a fresh data
directory and submits one full 24 h / dt = 10 s comparison, which caches the
three scenario programs.  It does so several times, each with a fresh
server, and keeps the last server; ``setup_s`` is the median.  Then one
client with two threads sends the seeded mix in a closed loop, polling each
job at a fixed interval until it ends.  After timing, every comparison job
is checked bitwise against the warm-up result and every Monte Carlo job
against an in-process run with the same parameters.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

import inputs
import procs
from spans import REQUEST, Tracer, layer_breakdown, layer_metrics

CLIENT_THREADS = 2
POLL_INTERVAL_S = 0.01
SETUP_REPEATS = 3
TERMINAL = ("succeeded", "quarantined", "cancelled")
SERVER_ARGS = ("serve", "--port", "0", "--workers", "2")
HERE = os.path.dirname(os.path.abspath(__file__))


def _start_server(root, run_dir, env, index, trace_out):
    """Start a server on a fresh data dir and warm it up; returns its state."""
    from repro.service.client import ServiceClient

    data_dir = os.path.join(run_dir, f"jobs-{index}")
    argv = [*SERVER_ARGS, "--data-dir", data_dir]
    if trace_out:
        cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), trace_out, *argv]
    else:
        cmd = [sys.executable, "-m", "repro", *argv]
    t0 = time.perf_counter()
    with open(os.path.join(run_dir, f"server-{index}.err"), "w") as err:
        proc = subprocess.Popen(
            cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=err, text=True
        )
    try:
        line = procs.read_line(proc, time.monotonic() + 60.0)
        if "listening on " not in line:
            raise RuntimeError(f"unexpected server banner {line!r}")
        url = line.split("listening on ", 1)[1].split()[0]
        client = ServiceClient(url, timeout=60.0)
        job = client.submit(inputs.warmup_spec())
        job = client.wait(job["job_id"], timeout=120.0, poll_interval=POLL_INTERVAL_S)
    except BaseException:
        procs.stop(proc)
        raise
    return proc, client, time.perf_counter() - t0, job["result"]


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _traffic(client, stream, seconds, tracer) -> List[Dict]:
    """Closed-loop traffic from :data:`CLIENT_THREADS` callers."""
    from repro.service.api import build_spec
    from repro.service.client import ServiceClientError

    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    records: List[Dict] = []
    t_start = time.perf_counter()

    def one(index: int) -> Dict:
        entry = stream[index]
        fingerprint = build_spec(entry["spec"]).fingerprint
        rec = {"index": index, "class": entry["class"], "fingerprint": fingerprint}
        root = tracer.begin(REQUEST, fingerprint) if tracer else None
        t0 = time.perf_counter()
        try:
            sub = tracer.begin("service.submit") if tracer else None
            try:
                job = client.submit(entry["spec"])
            finally:
                if sub:
                    tracer.end(sub)
            rec["submit_s"] = time.perf_counter() - t0
            rec["coalesced"] = job["coalesced"]
            # The submit reply carries no result, even for a job that is
            # already done, so there is always at least one GET.
            while job["state"] not in TERMINAL or "result" not in job:
                if job["state"] not in TERMINAL:
                    time.sleep(POLL_INTERVAL_S)
                job = client.get(job["job_id"])
        except ServiceClientError as exc:  # 429/503 and transport errors
            rec["error"] = str(exc)
            return rec
        finally:
            rec["latency_s"] = time.perf_counter() - t0
            rec["end_s"] = time.perf_counter() - t_start
            if root:
                tracer.end(root)
        if job["state"] != "succeeded":
            rec["error"] = f"job ended {job['state']}"
        for key in ("submitted_at", "started_at", "finished_at", "result"):
            rec[key] = job.get(key)
        return rec

    def caller() -> None:
        while time.perf_counter() - t_start < seconds:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            rec = one(index)
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 150.0)
        if t.is_alive():
            raise TimeoutError("a client thread did not finish")
    return sorted(records, key=lambda r: r["index"])


def _check(records, warm, stream) -> List[list]:
    """Bitwise output checks; returns ``[job index, message]`` per failure."""
    from repro.service.api import build_spec, run_job

    errors = []
    mc_refs: Dict[str, Dict] = {}
    warm_pivot = warm["net_energy_by_scenario"]
    for rec in records:
        if "error" in rec:
            errors.append([rec["index"], rec["error"]])
            continue
        spec = stream[rec["index"]]["spec"]
        params = spec["params"]
        if spec["kind"] == "comparison":
            expected = {
                s: {t: warm_pivot[s][t] for t in params["techniques"]}
                for s in params["scenarios"]
            }
            if rec["result"] != {"net_energy_by_scenario": expected}:
                errors.append([rec["index"], "lanes differ from the warm-up result"])
        else:
            ref = mc_refs.get(rec["fingerprint"])
            if ref is None:
                # The job's own validated params, run in this process.
                ref = run_job(build_spec(spec))
                mc_refs[rec["fingerprint"]] = ref
            if rec["result"] != ref:
                errors.append([rec["index"], "Monte Carlo result differs from an in-process run"])
    return errors


def _service_layers(records) -> Dict[str, float]:
    fresh = [r for r in records if "error" not in r and not r["coalesced"]]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "service.submit_s": med(r["submit_s"] for r in records if "submit_s" in r),
        "service.queue_wait_s": med(r["started_at"] - r["submitted_at"] for r in fresh),
        "service.run_s": med(r["finished_at"] - r["started_at"] for r in fresh),
        "service.delivery_s": med(
            r["latency_s"] - (r["finished_at"] - r["submitted_at"]) for r in fresh
        ),
        "service.coalesced_ratio": (
            sum(1 for r in records if r.get("coalesced")) / len(records) if records else 0.0
        ),
    }


def run(root: str, run_dir: str, env: Dict[str, str], args, trace_path) -> Dict:
    """One ``service-warm-mix`` run; returns the measurements."""
    sys.path.insert(0, os.path.join(root, "src"))
    stream = inputs.service_mix(args.seed)
    setups = []
    proc = None
    server_trace = os.path.join(run_dir, "server-trace.json") if args.trace else None
    try:
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            proc, client, setup_s, warm = _start_server(
                root, run_dir, env, index, server_trace if last else None
            )
            setups.append(setup_s)
            if not last:
                procs.stop(proc)
                proc = None
        tracer = Tracer(prefix="c") if args.trace else None
        records = _traffic(client, stream, args.seconds, tracer)
        peak_rss = _peak_rss_mb(proc.pid)
    finally:
        procs.stop(proc)

    done = [r for r in records if "error" not in r]
    wall = max((r["end_s"] for r in records), default=0.0)
    ran = [stream[r["index"]]["spec"] for r in done if not r["coalesced"]]
    lanes = sum(
        len(s["params"]["techniques"]) * len(s["params"]["scenarios"])
        for s in ran
        if s["kind"] == "comparison"
    )
    steps = int(round(inputs.SERVICE_HOURS * 3600.0 / inputs.SERVICE_DT))
    import numpy

    from repro.sim.engines import have_numba

    out = {
        "context": {"numpy": numpy.__version__, "have_numba": bool(have_numba())},
        "setups": setups,
        "latencies": [r["latency_s"] for r in done],
        "jobs_per_s": len(done) / wall if wall else 0.0,
        "sim_steps_per_s": lanes * steps / wall if wall else 0.0,
        "peak_rss_mb": peak_rss,
        "errors": _check(records, warm, stream),
        "attempted": len(records),
        "classes": {c: sum(1 for r in records if r["class"] == c) for c, _ in inputs.SERVICE_MIX},
        "specs": [stream[r["index"]] for r in records],
    }
    if tracer:
        service = _service_layers(records)
        for r in records:
            if "error" not in r and not r["coalesced"]:
                tracer.record("service.queue", r["submitted_at"], r["started_at"], r["fingerprint"])
        with open(server_trace, encoding="utf-8") as fh:
            spans = tracer.spans + json.load(fh)["spans"]
        out["layers"] = layer_metrics(spans, service=service)
        out["breakdown"] = layer_breakdown(spans)
        if trace_path:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": spans}, fh)
    return out
