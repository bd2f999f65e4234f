"""The CLI exit-code contract: typed errors map to documented codes.

Codes (mirrored in README "Exit codes"): 0 success / graceful drain,
1 unexpected, 2 usage, 3 bench regression, 4 config, 5 numerical
guard, 6 checkpoint/lock.  Typed failures also journal a ``run-error``
event carrying the command, error type, and the code.
"""

import json

import pytest

from repro import errors
from repro.cli import (
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    classify_exit_code,
    main,
)
from repro.obs import journal


class TestClassifier:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (errors.ConfigError("bad", field="hours"), EXIT_CONFIG),
            (errors.ModelParameterError("bad"), EXIT_CONFIG),
            (errors.ConfigurationError("bad"), EXIT_CONFIG),
            (errors.FaultConfigError("bad"), EXIT_CONFIG),
            (errors.NumericalGuardError("nan", signal="v"), EXIT_GUARD),
            (errors.CheckpointError("torn"), EXIT_CHECKPOINT),
            (errors.StateFormatError("schema"), EXIT_CHECKPOINT),
            (errors.LockTimeoutError("held"), EXIT_CHECKPOINT),
            (errors.RunDrainedError("drained", checkpoint_path="ck"), EXIT_OK),
            (errors.SimulationError("other"), 1),
            (RuntimeError("alien"), 1),
        ],
    )
    def test_mapping(self, exc, code):
        assert classify_exit_code(exc) == code

    def test_drained_beats_checkpoint_bucket(self):
        # RunDrainedError IS-A CheckpointError; drain must win.
        exc = errors.RunDrainedError("d")
        assert isinstance(exc, errors.CheckpointError)
        assert classify_exit_code(exc) == EXIT_OK


class TestMainExitCodes:
    def test_config_error_exits_4_with_field(self, capsys):
        # montecarlo boards=0 trips validation inside the driver
        code = main(["montecarlo", "--boards", "0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "boards" in err

    def test_config_error_emits_journal_run_error(self, tmp_path, capsys):
        journal_path = tmp_path / "run.jsonl"
        code = main(["montecarlo", "--boards", "0", "--journal", str(journal_path)])
        assert code == EXIT_CONFIG
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
            if line.strip()
        ]
        run_errors = [e for e in events if e["event"] == "run-error"
                      and e.get("source") == "cli"]
        assert len(run_errors) == 1
        assert run_errors[0]["command"] == "montecarlo"
        assert run_errors[0]["exit_code"] == EXIT_CONFIG

    def test_resume_mismatch_exits_checkpoint_code(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("{ not json")
        code = main(["endurance", "--resume", str(ck), "--days", "1"])
        assert code == EXIT_CHECKPOINT
        assert "CheckpointError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, engine",
        [
            pytest.param("comparison", "fleet", id="comparison"),
            pytest.param("strings", "fleet", id="strings"),
            pytest.param("montecarlo", "compiled", id="montecarlo-compiled"),
            pytest.param("resilience", "compiled", id="resilience-compiled"),
        ],
    )
    def test_fleet_engine_is_a_usage_error(self, command, engine, capsys):
        # The comparison tiers are scalar and compiled, the resilience and
        # Monte Carlo tiers scalar and fleet; argparse refuses any other
        # tier before any work runs.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--engine", engine])
        assert excinfo.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_success_still_exits_zero(self, capsys):
        assert main(["montecarlo", "--boards", "20"]) == EXIT_OK
        capsys.readouterr()
