"""Atomic artifact I/O: write-temp → fsync → rename, plus advisory locks.

Every durable artifact this repo produces — golden traces, profile
exports, experiment checkpoints, the job store — used to be written
with a bare ``open(path, "w")``.  A crash (or a SIGKILL) mid-write
leaves a truncated file, and two concurrent writers appending to the
same shared file tear each other's records.  This module fixes both
failure modes:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` /
  :func:`atomic_write_json` — write to a same-directory temp file,
  ``fsync`` it, then ``os.replace`` onto the destination.  POSIX rename
  is atomic, so readers see either the old complete file or the new
  complete file, never a torn one.
* :func:`file_lock` — an advisory ``flock`` on a sidecar ``.lock``
  file, with a bounded spin so a dead holder cannot wedge callers
  forever (``flock`` locks die with their process, so the timeout only
  fires on genuine long holders).
* :func:`locked_append_text` — one ``O_APPEND`` write under the lock,
  so concurrent writers interleave whole lines.

Locking degrades gracefully where ``fcntl`` is unavailable (non-POSIX):
the lock becomes a no-op and the atomic rename still guarantees
untorn files — only cross-process lock exclusion is lost.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.errors import LockTimeoutError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


def atomic_write_bytes(path: Union[str, Path], data: bytes, fsync: bool = True) -> Path:
    """Atomically replace ``path`` with ``data``.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) and is cleaned up on any failure, so a
    crash never leaves a partial artifact at ``path``.

    Args:
        path: destination file.
        data: the full new contents.
        fsync: flush the temp file to disk before the rename; disable
            only for throwaway artifacts where torn-on-power-loss is
            acceptable (the rename itself is still atomic).

    Returns:
        The destination as a :class:`~pathlib.Path`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: Union[str, Path], text: str, fsync: bool = True) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    fsync: bool = True,
    indent: Optional[int] = 2,
    sort_keys: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``payload`` serialized as JSON.

    A trailing newline is appended so the artifact diffs cleanly.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, fsync=fsync)


def _lock_path(path: Union[str, Path]) -> Path:
    """The sidecar lock file guarding ``path``.

    A sidecar (not the artifact itself) so the lock survives the
    ``os.replace`` that swaps the artifact out from under it.
    """
    path = Path(path)
    return path.parent / (path.name + ".lock")


@contextmanager
def file_lock(
    path: Union[str, Path],
    timeout: Optional[float] = 30.0,
    poll_interval: float = 0.02,
) -> Iterator[Path]:
    """Hold an exclusive advisory lock on ``path``'s sidecar lock file.

    Args:
        path: the artifact being guarded (the lock file is
            ``<path>.lock`` next to it).
        timeout: seconds to keep retrying before raising
            :class:`~repro.errors.LockTimeoutError`.  ``None`` blocks
            forever (a plain blocking ``flock``) — only safe when the
            caller can tolerate waiting on an arbitrarily long-held
            lock; the bounded default exists so a peer that *dies while
            holding* a lock (or wedges mid-update) surfaces as a typed
            error instead of hanging every future writer.
        poll_interval: sleep between acquisition attempts, seconds
            (bounded mode only).

    Yields:
        The lock-file path (mostly for tests).
    """
    lock_file = _lock_path(path)
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield lock_file
        return
    fd = os.open(str(lock_file), os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if timeout is None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        else:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise LockTimeoutError(
                            f"could not acquire {lock_file} within {timeout} s "
                            "(another process holds it?)"
                        ) from None
                    time.sleep(poll_interval)
        try:
            yield lock_file
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def locked_append_text(
    path: Union[str, Path],
    text: str,
    timeout: Optional[float] = 30.0,
    fsync: bool = False,
) -> Path:
    """Append ``text`` to ``path`` under the advisory lock.

    The append itself goes through a single ``O_APPEND`` write while
    holding the sidecar lock, so concurrent writers (e.g. journal
    emissions from service threads, or from separate processes sharing
    one ``REPRO_JOURNAL`` file) interleave at line granularity instead
    of tearing mid-record.  A crash mid-write can still truncate the
    *final* line — append is not rename — which is why
    :func:`repro.obs.journal.read_journal` tolerates a partial trailing
    record.

    Args:
        path: destination file (created, with parents, if absent).
        text: the bytes to append, UTF-8 encoded.
        timeout: lock acquisition bound, seconds (``None``: block
            forever, see :func:`file_lock`).
        fsync: flush to disk before releasing the lock; off by default
            because journals are advisory telemetry, not checkpoints.

    Returns:
        The destination as a :class:`~pathlib.Path`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with file_lock(path, timeout=timeout):
        fd = os.open(str(path), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, text.encode("utf-8"))
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
    return path


__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "file_lock",
    "locked_append_text",
]
