"""One fresh process running ``comparison-cold`` or ``resilience-faults``.

Started by ``run.py`` with a fresh working directory and environment.  It
imports the workload's public entry point, prints ``ready`` (the end of
set-up), then sends requests in a closed loop from one caller until the
time is up, checks every output, and writes its measurements as JSON to
``--out``.  With ``--probe`` it exits right after ``ready``: ``run.py``
times several such starts for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import checks
import inputs
from spans import REQUEST, Tracer, instrument, layer_breakdown, layer_metrics

HOURS_S = 3600.0


def _entry_point(workload: str):
    if workload == "comparison-cold":
        from repro.experiments.comparison import run_comparison

        return run_comparison
    from repro.experiments.resilience import run_resilience

    return run_resilience


def _lanes(cells):
    return [(c.scenario, c.technique, checks.summary_fields(c.summary)) for c in cells]


class _Replays:
    """Re-runs each cold ``run_comparison_scenario`` call once it is cached.

    The cold call builds the scenario program and runs the lanes; the same
    call again hits the program cache and only runs the kernels, so the
    difference is the build and the replay is the kernel time.
    """

    def __init__(self, tracer: Tracer):
        import repro.sim.compiled as compiled

        self.tracer = tracer
        self.traced = compiled.run_comparison_scenario
        self.pending = []
        self.warm = {}
        compiled.run_comparison_scenario = self._capture

    def _capture(self, cell, scenario_name, scenario_factory, lanes, *args, **kwargs):
        out = self.traced(cell, scenario_name, scenario_factory, lanes, *args, **kwargs)
        span = self.tracer.spans[-1]
        names = [lane[0] for lane in lanes]
        self.pending.append((span["id"], (cell, scenario_name, scenario_factory, names) + args, kwargs))
        return out

    def replay(self) -> None:
        from repro.converter.buck_boost import BuckBoostConverter
        from repro.experiments.comparison import default_controllers
        from repro.storage.supercap import Supercapacitor

        run = self.traced.perfbench_original
        self.tracer.paused = True
        try:
            for span_id, (cell, scenario, factory, names, *rest), kwargs in self.pending:
                controllers = default_controllers(cell)
                lanes = [
                    (
                        name,
                        controllers[name](),
                        BuckBoostConverter(),
                        Supercapacitor(capacitance=25.0, rated_voltage=5.5, voltage=2.7),
                    )
                    for name in names
                ]
                t0 = time.perf_counter()
                run(cell, scenario, factory, lanes, *rest, **kwargs)
                self.warm[span_id] = time.perf_counter() - t0
        finally:
            self.tracer.paused = False
            self.pending = []


def _comparison_cold(run_comparison, args, root, tracer, replays):
    specs = inputs.comparison_cold_specs(args.seed)
    golden = checks.load_golden(root)
    out = {"latencies": [], "lane_steps": 0, "errors": [], "specs": []}
    t_start = time.perf_counter()
    for i, (hours, dt) in enumerate(specs):
        if time.perf_counter() - t_start >= args.seconds:
            break
        out["specs"].append([hours, dt])
        span = tracer.begin(REQUEST, f"r{i}") if tracer else None
        t0 = time.perf_counter()
        try:
            results = run_comparison(duration=hours * HOURS_S, dt=dt, engine="compiled")
        except Exception as exc:  # a failed request is counted, not fatal
            out["errors"].append([i, f"{hours} h, dt {dt}: {exc!r}"])
            continue
        finally:
            if span:
                tracer.end(span)
        out["latencies"].append(time.perf_counter() - t0)
        lanes = _lanes(results)
        out["lane_steps"] += len(lanes) * int(round(hours * HOURS_S / dt))
        if (hours, dt) == (inputs.GOLDEN_HOURS, inputs.GOLDEN_DT):
            errors = checks.golden_errors(lanes, golden, lambda t: "compiled")
        else:
            errors = checks.finite_summary_errors(lanes, hours * HOURS_S)
            if len(lanes) != len(inputs.TECHNIQUES) * len(inputs.SCENARIOS):
                errors.append(f"{len(lanes)} lanes returned")
        out["errors"].extend([i, f"{hours} h, dt {dt}: {e}"] for e in errors)
        if replays:
            replays.replay()
    return out


def _resilience_faults(run_resilience, args, root, tracer, replays):
    campaigns, fault_seed = inputs.resilience_campaigns(args.seed)
    golden = checks.load_golden(root)
    out = {"latencies": [], "lane_steps": 0, "errors": [], "specs": [], "campaigns": []}
    clean_ref = None
    t_start = time.perf_counter()
    pass_t0 = t_start
    i = 0
    while True:
        # Whole passes only: every run times each campaign equally often, so
        # the median does not depend on where the clock happened to stop.
        # Another pass starts only if it would end nearer to --seconds than
        # stopping now, so the pass count changes only far from this host's
        # speed, not with every swing of it.
        if i and i % len(campaigns) == 0:
            now = time.perf_counter()
            if now - t_start + (now - pass_t0) / 2 >= args.seconds:
                break
            pass_t0 = now
        campaign = campaigns[i % len(campaigns)]
        out["specs"].append({"campaign": campaign, "seed": fault_seed, "dt": inputs.GOLDEN_DT})
        span = tracer.begin(REQUEST, f"r{i}") if tracer else None
        t0 = time.perf_counter()
        try:
            report = run_resilience(
                duration=inputs.GOLDEN_HOURS * HOURS_S,
                dt=inputs.GOLDEN_DT,
                campaigns=[campaign],
                seed=fault_seed,
                include_recovery=False,
                include_coldstart=False,
            )
        except Exception as exc:  # a failed request is counted, not fatal
            out["errors"].append([i, f"{campaign}: {exc!r}"])
            i += 1
            continue
        finally:
            if span:
                tracer.end(span)
        out["latencies"].append(time.perf_counter() - t0)
        out["campaigns"].append(campaign)
        i += 1
        lanes = _lanes(report.cells)
        out["lane_steps"] += len(lanes) * int(round(inputs.GOLDEN_HOURS * HOURS_S / inputs.GOLDEN_DT))
        clean = [(s, t, f) for (s, t, f), c in zip(lanes, report.cells) if c.campaign == "clean"]
        faulted = [(s, t, f) for (s, t, f), c in zip(lanes, report.cells) if c.campaign != "clean"]
        if campaign == "clean":
            errors = checks.golden_errors(
                clean,
                golden,
                lambda t: "fleet" if t.startswith("proposed-S&H") else "scalar",
            )
            if clean_ref is None:
                clean_ref = clean
        else:
            errors = checks.finite_summary_errors(faulted, inputs.GOLDEN_HOURS * HOURS_S)
            if clean_ref is not None and clean != clean_ref:
                errors.append("clean reference lanes differ from the clean request")
        out["errors"].extend([i - 1, f"{campaign}: {e}"] for e in errors)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("comparison-cold", "resilience-faults"))
    parser.add_argument("--root", required=True, help="checkout root (holds src/ and tests/golden/)")
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    entry = _entry_point(args.workload)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = replays = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
        if args.workload == "comparison-cold":
            replays = _Replays(tracer)
    loop = _comparison_cold if args.workload == "comparison-cold" else _resilience_faults
    out = loop(entry, args, args.root, tracer, replays)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    from repro.sim.engines import have_numba

    out["context"] = {"numpy": numpy.__version__, "have_numba": bool(have_numba())}
    if tracer:
        fault_overhead = 0.0
        if args.workload == "resilience-faults":
            # run_resilience always runs the clean campaign too, so a faulted
            # request minus a clean one is the fault campaign alone.
            by_campaign = list(zip(out["campaigns"], out["latencies"]))
            clean = [t for c, t in by_campaign if c == "clean"]
            faulted = [t for c, t in by_campaign if c != "clean"]
            if clean and faulted:
                clean_s = statistics.median(clean)
                fault_overhead = (statistics.median(faulted) - clean_s) / clean_s
        out["layers"] = layer_metrics(
            tracer.spans,
            warm_replays=replays.warm if replays else None,
            fault_overhead=fault_overhead,
        )
        out["breakdown"] = layer_breakdown(tracer.spans)
        if args.trace_out:
            tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
