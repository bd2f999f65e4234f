"""Crash-safety integration: interrupted runs resume bitwise-identically.

The hard gate of the checkpoint subsystem: a run that is killed between
checkpoints and resumed must produce *exactly* the result of an
uninterrupted run — not approximately, bitwise.  Three layers are
exercised:

* in-process interruption (an ``on_checkpoint`` hook that raises),
* a subprocess that SIGKILLs itself mid-run (nothing gets to clean up,
  exactly like an OOM kill or power loss),
* the ``python -m repro ... --checkpoint/--resume`` CLI path.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.montecarlo import run_sample_hold_montecarlo
from repro.ckpt import load_checkpoint
from repro.ckpt.drain import clear_drain, request_drain
from repro.errors import CheckpointError, RunDrainedError
from repro.experiments.endurance import run_week
from repro.experiments.resilience import run_resilience

DT = 60.0
DAYS = 1
CKPT_EVERY = 4.0 * 3600.0


class _StopAfter(Exception):
    """Injected interruption: raised out of the Nth checkpoint hook."""


def _interrupt_after(n):
    def hook(count, path):
        if count >= n:
            raise _StopAfter(f"interrupted after checkpoint {count}")

    return hook


class TestEnduranceResume:
    def test_interrupted_run_resumes_bitwise_identical(self, tmp_path):
        reference = run_week(dt=DT, days=DAYS)

        ckpt = str(tmp_path / "week.ckpt.json")
        with pytest.raises(_StopAfter):
            run_week(
                dt=DT,
                days=DAYS,
                checkpoint_path=ckpt,
                checkpoint_every=CKPT_EVERY,
                on_checkpoint=_interrupt_after(2),
            )
        resumed = run_week(
            dt=DT,
            days=DAYS,
            checkpoint_path=ckpt,
            checkpoint_every=CKPT_EVERY,
            resume_from=ckpt,
        )
        # Bitwise, not approx: the resumed run IS the reference run.
        assert resumed.to_dict() == reference.to_dict()

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        ckpt = str(tmp_path / "week.ckpt.json")
        with pytest.raises(_StopAfter):
            run_week(
                dt=DT,
                days=DAYS,
                checkpoint_path=ckpt,
                checkpoint_every=CKPT_EVERY,
                on_checkpoint=_interrupt_after(1),
            )
        with pytest.raises(CheckpointError, match="seed"):
            run_week(dt=DT, days=DAYS, seed=99, resume_from=ckpt)

    def test_checkpoint_file_is_valid_envelope(self, tmp_path):
        ckpt = str(tmp_path / "week.ckpt.json")
        with pytest.raises(_StopAfter):
            run_week(
                dt=DT,
                days=DAYS,
                checkpoint_path=ckpt,
                checkpoint_every=CKPT_EVERY,
                on_checkpoint=_interrupt_after(1),
            )
        envelope = load_checkpoint(ckpt, kind="endurance")
        assert envelope["spec"]["dt"] == DT
        assert "sim" in envelope["state"] and "scheduler" in envelope["state"]


_CHILD = """\
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.experiments.endurance import run_week

def kill_after(count, path):
    if count >= 2:
        os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no atexit

run_week(dt={dt!r}, days={days!r}, checkpoint_path={ckpt!r},
         checkpoint_every={every!r}, on_checkpoint=kill_after)
raise SystemExit("should have been killed")
"""


class TestSigkillResume:
    def test_sigkilled_subprocess_resumes_bitwise_identical(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        ckpt = str(tmp_path / "killed.ckpt.json")
        script = _CHILD.format(src=src, dt=DT, days=DAYS, ckpt=ckpt, every=CKPT_EVERY)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=600
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        # The atomically-written checkpoint survived the kill intact.
        envelope = load_checkpoint(ckpt, kind="endurance")
        assert envelope["meta"]["sim_time"] > 0.0

        resumed = run_week(dt=DT, days=DAYS, resume_from=ckpt)
        reference = run_week(dt=DT, days=DAYS)
        assert resumed.to_dict() == reference.to_dict()


class TestResilienceResume:
    KWARGS = dict(
        duration=2.0 * 3600.0,
        dt=300.0,
        techniques=["proposed-S&H-trimmed", "hill-climbing"],
        scenarios=["office-desk"],
        campaigns=["clean", "light-dropout"],
        include_recovery=False,
        include_coldstart=False,
    )

    def test_truncated_checkpoint_resumes_identically(self, tmp_path):
        reference = run_resilience(**self.KWARGS)

        ckpt = tmp_path / "res.ckpt.json"
        run_resilience(**self.KWARGS, checkpoint_path=str(ckpt))
        # Simulate a crash partway: keep only the first finished batch.
        envelope = json.loads(ckpt.read_text())
        done = envelope["state"]["batches"]
        envelope["state"]["batches"] = dict(list(done.items())[:1])
        ckpt.write_text(json.dumps(envelope))

        resumed = run_resilience(
            **self.KWARGS, checkpoint_path=str(ckpt), resume_from=str(ckpt)
        )
        assert [c.to_dict() for c in resumed.cells] == [
            c.to_dict() for c in reference.cells
        ]

    def test_drained_run_resumes_identically(self, tmp_path):
        reference = run_resilience(**self.KWARGS)

        ckpt = str(tmp_path / "res.ckpt.json")
        request_drain()
        try:
            with pytest.raises(RunDrainedError) as excinfo:
                run_resilience(**self.KWARGS, checkpoint_path=ckpt)
        finally:
            clear_drain()
        # The drain stops at the first batch boundary, checkpoint written.
        assert excinfo.value.step == 1
        assert excinfo.value.checkpoint_path == ckpt
        envelope = load_checkpoint(ckpt, kind="resilience")
        assert len(envelope["state"]["batches"]) == 1

        resumed = run_resilience(**self.KWARGS, checkpoint_path=ckpt, resume_from=ckpt)
        assert [c.to_dict() for c in resumed.cells] == [
            c.to_dict() for c in reference.cells
        ]


class TestMonteCarloResume:
    def test_partial_chunks_resume_identically(self, tmp_path):
        reference = run_sample_hold_montecarlo(boards=40, workers=2)

        ckpt = tmp_path / "mc.ckpt.json"
        run_sample_hold_montecarlo(boards=40, workers=2, checkpoint_path=str(ckpt))
        envelope = json.loads(ckpt.read_text())
        chunks = envelope["state"]["chunks"]
        kept = {k: chunks[k] for k in list(chunks)[: len(chunks) // 2]}
        envelope["state"]["chunks"] = kept
        ckpt.write_text(json.dumps(envelope))

        resumed = run_sample_hold_montecarlo(
            boards=40, workers=2, checkpoint_path=str(ckpt), resume_from=str(ckpt)
        )
        assert np.array_equal(resumed.ratios, reference.ratios)


class TestCliResume:
    def test_cli_checkpoint_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "cli.ckpt.json")
        assert main([
            "endurance", "--days", "1", "--dt", "120",
            "--checkpoint", ckpt, "--checkpoint-every", "21600",
        ]) == 0
        full_output = capsys.readouterr().out
        assert load_checkpoint(ckpt, kind="endurance")

        assert main([
            "endurance", "--days", "1", "--dt", "120", "--resume", ckpt,
        ]) == 0
        resumed_output = capsys.readouterr().out
        # Resuming from the final checkpoint replays the tail of the run
        # and renders the identical artefact.
        assert resumed_output == full_output
