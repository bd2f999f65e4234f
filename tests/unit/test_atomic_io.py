"""Unit tests for the atomic artifact I/O layer (repro.ckpt.atomic)."""

import json
import os

import pytest

from repro.ckpt.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    file_lock,
)
from repro.errors import LockTimeoutError


class TestAtomicWrite:
    def test_writes_new_file(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "artifact.txt"
        target.write_text("old contents")
        atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "artifact.bin"
        atomic_write_bytes(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "x")
        atomic_write_text(target, "y")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]

    def test_failure_leaves_old_file_intact(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        # Old artifact untouched, no temp droppings.
        assert json.loads(target.read_text()) == {"ok": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]

    def test_json_is_stable_and_newline_terminated(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"b": 1, "a": 2})
        text = target.read_text()
        assert text.endswith("\n")
        # sort_keys default makes repeated writes byte-identical.
        atomic_write_json(target, {"a": 2, "b": 1})
        assert target.read_text() == text


class TestFileLock:
    def test_lock_creates_sidecar(self, tmp_path):
        target = tmp_path / "ledger.json"
        with file_lock(target) as lock_file:
            assert lock_file.name == "ledger.json.lock"
            assert lock_file.exists()

    def test_lock_times_out_against_held_lock(self, tmp_path):
        target = tmp_path / "ledger.json"
        with file_lock(target):
            with pytest.raises(LockTimeoutError):
                with file_lock(target, timeout=0.1, poll_interval=0.01):
                    pass  # pragma: no cover

    def test_lock_reacquirable_after_release(self, tmp_path):
        target = tmp_path / "ledger.json"
        with file_lock(target, timeout=0.5):
            pass
        with file_lock(target, timeout=0.5):
            pass

    def test_timeout_error_is_typed_and_descriptive(self, tmp_path):
        from repro.errors import ReproError

        target = tmp_path / "ledger.json"
        with file_lock(target):
            with pytest.raises(LockTimeoutError) as excinfo:
                with file_lock(target, timeout=0.05, poll_interval=0.01):
                    pass  # pragma: no cover
        assert isinstance(excinfo.value, ReproError)
        assert "ledger.json" in str(excinfo.value)

    def test_blocking_mode_waits_for_release(self, tmp_path):
        """timeout=None means block (flock semantics), not fail."""
        import threading
        import time

        target = tmp_path / "ledger.json"
        held = threading.Event()
        release = threading.Event()

        def holder():
            with file_lock(target):
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(5.0)
        releaser = threading.Timer(0.2, release.set)
        releaser.start()
        t0 = time.monotonic()
        with file_lock(target, timeout=None):
            waited = time.monotonic() - t0
        thread.join(5.0)
        releaser.cancel()
        # Blocked until the holder let go — never raised, never spun out.
        assert waited >= 0.15
