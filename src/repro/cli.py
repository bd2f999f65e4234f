"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table1               # Table I
    python -m repro fig4 [--lux 1000]    # the sampling transient
    python -m repro budget               # the 7.6 uA itemised budget
    python -m repro design               # synthesise a platform for the AM-1815
    python -m repro montecarlo           # E11 tolerance run
    python -m repro spectra              # E13 environment diversity
    python -m repro coldstart [--lux 200]
    python -m repro sec2b
    python -m repro comparison [--hours 24]   # E8 (slow)
    python -m repro resilience [--seed 0]     # E16 fault-injection (slow)
    python -m repro strings [--engine compiled]  # E18 shaded strings (slow)
    python -m repro endurance                 # E12 (slow)
    python -m repro endurance --checkpoint ck.json          # crash-safe run
    python -m repro endurance --resume ck.json              # pick it back up
    python -m repro profile comparison [--hours 1] [--out DIR]
                                              # E17: any artefact, instrumented
    python -m repro endurance --progress --journal run.jsonl
                                              # live ETA + event journal
    python -m repro serve [--port 8765] [--workers 2]
                                              # fault-tolerant job service

Exit codes (see README "Exit codes"): 0 success (including a graceful
SIGTERM drain), 1 unexpected error, 2 usage error, 4 invalid
configuration, 5 numerical guard trip, 6 checkpoint/lock failure
(3 is retired).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Dict

# --- exit codes (stable CLI contract; mirrored in README) -------------------
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2  # argparse's own code, listed for completeness
EXIT_CONFIG = 4
EXIT_GUARD = 5
EXIT_CHECKPOINT = 6


def classify_exit_code(exc: BaseException) -> int:
    """Map a typed repro error to the documented exit code.

    Order matters: :class:`RunDrainedError` *is a* CheckpointError but
    a graceful drain is a success, and :class:`ConfigError` is a
    ModelParameterError so the config bucket catches both.
    """
    from repro import errors

    if isinstance(exc, errors.RunDrainedError):
        return EXIT_OK
    if isinstance(exc, errors.NumericalGuardError):
        return EXIT_GUARD
    if isinstance(exc, (errors.ModelParameterError, errors.ConfigurationError,
                        errors.FaultConfigError)):
        return EXIT_CONFIG
    if isinstance(exc, (errors.CheckpointError, errors.LockTimeoutError)):
        return EXIT_CHECKPOINT
    return EXIT_ERROR


def _cmd_table1(args) -> str:
    from repro.experiments import table1

    return table1.render(table1.run_table1())


def _cmd_fig1(args) -> str:
    from repro.experiments import fig1

    return fig1.render(fig1.run_iv_curves())


def _cmd_fig2(args) -> str:
    from repro.experiments import fig2

    desk = fig2.run_log("desk", dt=10.0)
    mobile = fig2.run_log("semi-mobile", dt=10.0)
    return fig2.render(desk) + "\n\n" + fig2.render(mobile)


def _cmd_fig4(args) -> str:
    from repro.experiments import fig4

    return fig4.render(fig4.run_sampling_transient(lux=args.lux))


def _cmd_sec2b(args) -> str:
    from repro.experiments import sec2b

    desk, mobile = sec2b.run_paper_points(dt=10.0)
    return sec2b.render([desk, mobile])


def _cmd_budget(args) -> str:
    from repro.experiments import sec4a

    return sec4a.render(sec4a.run_power_measurement())


def _cmd_coldstart(args) -> str:
    from repro.experiments import sec4b

    result = sec4b.run_cold_start(args.lux, dt=5e-4, timeout=90.0)
    return sec4b.render([result])


def _cmd_design(args) -> str:
    from repro.core.design import synthesise_platform
    from repro.pv.cells import am_1815

    return synthesise_platform(am_1815()).render()


def _cmd_montecarlo(args) -> str:
    from repro.analysis.montecarlo import render_montecarlo, run_sample_hold_montecarlo

    return render_montecarlo(
        run_sample_hold_montecarlo(
            boards=args.boards,
            checkpoint_path=args.checkpoint,
            resume_from=args.resume,
            engine=args.engine,
        )
    )


def _cmd_spectra(args) -> str:
    from repro.experiments import spectra

    return spectra.render(spectra.run_spectra())


def _cmd_comparison(args) -> str:
    from repro.experiments import comparison

    cell = None
    shading = getattr(args, "shading", None)
    if shading is not None:
        # Shadow maps need per-cell granularity; shade a default string.
        from repro.experiments.strings import DEFAULT_MISMATCH_4S
        from repro.pv.cells import am_1815
        from repro.pv.string import CellString

        cell = CellString(am_1815(), 4, mismatch=DEFAULT_MISMATCH_4S)
    results = comparison.run_comparison(
        cell=cell,
        duration=args.hours * 3600.0,
        dt=10.0,
        engine=args.engine,
        shading=shading,
    )
    return comparison.render_quiescent() + "\n\n" + comparison.render(results)


def _cmd_resilience(args) -> str:
    from repro.experiments import resilience

    report = resilience.run_resilience(
        duration=args.hours * 3600.0,
        dt=args.dt,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        engine=args.engine,
    )
    return resilience.render(report)


def _cmd_strings(args) -> str:
    from repro.experiments import strings

    report = strings.run_strings(
        duration=args.hours * 3600.0,
        dt=args.dt,
        engine=args.engine,
        seed=args.seed,
    )
    return strings.render(report)


def _cmd_endurance(args) -> str:
    from repro.experiments import endurance

    checkpoint_every = args.checkpoint_every
    if args.checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 3600.0  # one simulated hour between writes
    return endurance.render(
        endurance.run_week(
            dt=args.dt,
            seed=args.seed,
            days=args.days,
            checkpoint_path=args.checkpoint,
            checkpoint_every=checkpoint_every,
            resume_from=args.resume,
        )
    )


def _cmd_aging(args) -> str:
    from repro.experiments import aging

    indoor = aging.run_aging(lux=500.0)
    bright = aging.run_aging(lux=5000.0, rs_growth_per_year=0.08)
    return aging.render(indoor, lux=500.0) + "\n\n" + aging.render(bright, lux=5000.0)


def _cmd_envelope(args) -> str:
    from repro.experiments import envelope

    return envelope.render(envelope.run_envelope())


def _cmd_teg(args) -> str:
    from repro.experiments import teg

    return teg.render(teg.run_teg_sweep())


def _profile_target_argv(args) -> list:
    """The argv handed to the target subcommand, forwarding shared flags."""
    argv = [args.experiment]
    if args.hours is not None and args.experiment in ("comparison", "resilience", "strings"):
        argv += ["--hours", str(args.hours)]
    if args.lux is not None and args.experiment in ("fig4", "coldstart"):
        argv += ["--lux", str(args.lux)]
    if args.boards is not None and args.experiment == "montecarlo":
        argv += ["--boards", str(args.boards)]
    return argv


def _cmd_profile(args) -> str:
    """E17 — run any artefact with observability on and export the profile.

    Enables :mod:`repro.obs`, regenerates the requested artefact, then
    writes three exports next to the benchmark results: a JSON
    run-report, Prometheus text exposition, and a flamegraph-compatible
    collapsed-stack dump.
    """
    import pathlib

    from repro import obs
    from repro.obs import export

    target_args = build_parser().parse_args(_profile_target_argv(args))
    obs.reset()
    was_enabled = obs.is_enabled()
    obs.enable()
    try:
        with obs.TRACER.trace(f"profile:{args.experiment}"):
            text = COMMANDS[args.experiment](target_args)
    finally:
        if not was_enabled:
            obs.disable()

    out_dir = pathlib.Path(args.out)
    paths = export.write_profile(
        out_dir, f"profile_{args.experiment}", note=f"python -m repro profile {args.experiment}"
    )
    saved = "\n".join(f"[saved {kind}: {path}]" for kind, path in sorted(paths.items()))
    return f"{text}\n\n{export.render_summary()}\n{saved}"


def _cmd_serve(args) -> str:
    """Run the fault-tolerant simulation job service until drained.

    Blocks in ``serve_forever``; SIGTERM/SIGINT trigger the graceful
    drain (stop admissions, checkpoint running jobs, persist the store)
    after which this returns and the process exits 0.
    """
    from repro.service.server import JobServer

    server = JobServer(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_attempts=args.max_attempts,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        result_ttl=args.result_ttl,
        checkpoint_every=args.checkpoint_every,
    )
    server.install_signal_handlers()
    server.start()
    print(
        f"[repro-service] listening on {server.url} "
        f"(store: {args.data_dir}, workers: {args.workers}, "
        f"queue depth: {args.queue_depth})",
        flush=True,
    )
    if server.readmitted:
        ids = ", ".join(r.job_id for r in server.readmitted)
        print(f"[repro-service] recovered {len(server.readmitted)} "
              f"interrupted job(s): {ids}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.drain(timeout=args.drain_timeout)
    return "[repro-service] drained cleanly; job store is consistent"


@contextlib.contextmanager
def _telemetry(args):
    """Arm the journal/ticker for one CLI invocation when asked.

    ``--journal PATH`` installs a process-wide event journal;
    ``--progress`` attaches a stderr ticker to it (creating an
    in-process-only journal when no path was given).  A journal already
    enabled through ``REPRO_JOURNAL`` is reused — and kept alive — so
    smoke subprocesses behave identically.
    """
    journal_path = getattr(args, "journal", None)
    progress = bool(getattr(args, "progress", False))
    if journal_path is None and not progress:
        yield
        return

    from repro.obs import journal as journal_mod
    from repro.obs.progress import ProgressTicker

    j = journal_mod.JOURNAL
    created = False
    if j is None or (journal_path is not None and str(j.path) != str(journal_path)):
        j = journal_mod.enable_journal(journal_path)
        created = True
    ticker = None
    unsubscribe = None
    if progress:
        ticker = ProgressTicker()
        unsubscribe = j.subscribe(ticker.on_event)
    try:
        yield
    finally:
        if ticker is not None:
            ticker.close()
            unsubscribe()
        if created:
            journal_mod.disable_journal()


COMMANDS: Dict[str, Callable] = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "sec2b": _cmd_sec2b,
    "budget": _cmd_budget,
    "coldstart": _cmd_coldstart,
    "design": _cmd_design,
    "montecarlo": _cmd_montecarlo,
    "spectra": _cmd_spectra,
    "comparison": _cmd_comparison,
    "resilience": _cmd_resilience,
    "strings": _cmd_strings,
    "endurance": _cmd_endurance,
    "teg": _cmd_teg,
    "aging": _cmd_aging,
    "envelope": _cmd_envelope,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro.sim.engines import engine_choices

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts from Weddell et al., DATE 2011.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available artefacts")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"regenerate '{name}'")
        p.add_argument("--progress", action="store_true",
                       help="live progress/ETA line on stderr (journal-driven)")
        p.add_argument("--journal", default=None, metavar="PATH",
                       help="append structured run events to a JSONL journal")
        if name in ("fig4", "coldstart"):
            p.add_argument("--lux", type=float, default=1000.0 if name == "fig4" else 200.0)
        if name == "comparison":
            p.add_argument("--hours", type=float, default=24.0)
            p.add_argument("--engine", choices=engine_choices(name),
                           default="scalar",
                           help="engine tier: scalar reference (default), "
                           "LUT-backed compiled, or auto (fastest)")
            p.add_argument("--shading", default=None, metavar="SPEC",
                           help="shadow-map spec for string cells, e.g. "
                           "'edge-sweep' or 'blob:seed=3' or "
                           "'edge-sweep:depth=0.5,period=3600'")
        if name == "strings":
            p.add_argument("--hours", type=float, default=24.0)
            p.add_argument("--dt", type=float, default=60.0)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--engine", choices=engine_choices(name),
                           default="scalar",
                           help="engine tier for every E18 harvest run")
        if name == "resilience":
            p.add_argument("--hours", type=float, default=24.0)
            p.add_argument("--dt", type=float, default=60.0)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--engine", choices=engine_choices(name),
                           default="fleet",
                           help="fleet engine (default; S&H lanes replay their "
                           "chain once and step on the scalar engine), "
                           "scalar walk, "
                           "or auto (= fleet)")
        if name == "montecarlo":
            p.add_argument("--boards", type=int, default=500)
            p.add_argument("--engine", choices=engine_choices(name),
                           default="fleet",
                           help="vectorized fleet pass (default), per-board "
                           "scalar circuits, or auto (= fleet)")
        if name == "endurance":
            p.add_argument("--days", type=int, default=7)
            p.add_argument("--dt", type=float, default=20.0)
            p.add_argument("--seed", type=int, default=4)
            p.add_argument("--checkpoint-every", type=float, default=None,
                           help="simulated seconds between checkpoint writes")
        if name in ("endurance", "resilience", "montecarlo"):
            p.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="write crash-safe progress checkpoints to PATH")
            p.add_argument("--resume", default=None, metavar="PATH",
                           help="resume from a checkpoint written by --checkpoint")
    profile = sub.add_parser(
        "profile",
        help="regenerate any artefact with observability enabled and export "
        "JSON / Prometheus / flamegraph profiles",
    )
    profile.add_argument("experiment", choices=sorted(COMMANDS))
    profile.add_argument("--out", default="benchmarks/results",
                         help="directory for the exported profile files")
    profile.add_argument("--hours", type=float, default=None,
                         help="forwarded to comparison/resilience")
    profile.add_argument("--lux", type=float, default=None,
                         help="forwarded to fig4/coldstart")
    profile.add_argument("--boards", type=int, default=None,
                         help="forwarded to montecarlo")
    profile.set_defaults(_run=_cmd_profile)
    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant simulation job service over HTTP "
        "(crash-safe queue, retries, backpressure, graceful drain)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--data-dir", default="service-jobs", metavar="DIR",
                       help="crash-safe job store directory (survives restarts)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads executing jobs")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="bounded queue length; beyond it POST returns 429")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts before a failing job is quarantined")
    serve.add_argument("--job-timeout", type=float, default=None, metavar="S",
                       help="wall-clock budget per attempt (default: none)")
    serve.add_argument("--heartbeat-timeout", type=float, default=None,
                       metavar="S",
                       help="abandon attempts silent for S seconds "
                       "(journal events are the heartbeat)")
    serve.add_argument("--result-ttl", type=float, default=300.0, metavar="S",
                       help="seconds completed results answer duplicate specs")
    serve.add_argument("--checkpoint-every", type=float, default=3600.0,
                       metavar="SIM_S",
                       help="simulated seconds between job checkpoints")
    serve.add_argument("--drain-timeout", type=float, default=30.0, metavar="S",
                       help="seconds to wait for running jobs on SIGTERM")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append job/run events to a JSONL journal")
    serve.add_argument("--progress", action="store_true",
                       help="live progress line on stderr (journal-driven)")
    serve.set_defaults(_run=_cmd_serve)
    return parser


def _report_failure(args, exc: BaseException) -> int:
    """Typed-error epilogue: journal a ``run-error``, print, pick the code.

    Runs inside the ``_telemetry`` scope so the event reaches the
    journal the run was using.  A :class:`RunDrainedError` is the one
    "failure" that exits 0: the run already saved its final checkpoint,
    so the user just gets the resume hint.
    """
    from repro import errors
    from repro.obs import journal as journal_mod

    code = classify_exit_code(exc)
    journal_mod.emit(
        journal_mod.RUN_ERROR,
        source="cli",
        command=args.command,
        error=type(exc).__name__,
        message=str(exc),
        field=getattr(exc, "field", None) or None,
        exit_code=code,
    )
    if isinstance(exc, errors.RunDrainedError):
        print(f"[repro] drained: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"[repro] resume with: python -m repro {args.command} "
                  f"--resume {exc.checkpoint_path}", file=sys.stderr)
        return EXIT_OK
    field = getattr(exc, "field", "")
    where = f" (field: {field})" if field else ""
    print(f"[repro] {type(exc).__name__}{where}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code (see module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command is None or args.command == "list":
            print("available artefacts:")
            for name in sorted(COMMANDS):
                print(f"  {name}")
            return EXIT_OK
        handler = getattr(args, "_run", None) or COMMANDS[args.command]
        # A checkpointing run turns SIGTERM into a cooperative drain:
        # one final checkpoint, then RunDrainedError -> exit 0 below.
        # (The service installs its own SIGTERM handling.)
        if getattr(args, "checkpoint", None) is not None:
            from repro.ckpt.drain import sigterm_drain

            drain_ctx = sigterm_drain()
        else:
            drain_ctx = contextlib.nullcontext()
        with _telemetry(args), drain_ctx:
            try:
                text = handler(args)
            except Exception as exc:
                from repro.errors import ReproError

                if not isinstance(exc, ReproError):
                    raise  # unexpected: full traceback, exit 1
                return _report_failure(args, exc)
        print(text)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
