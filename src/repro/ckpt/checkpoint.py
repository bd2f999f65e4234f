"""Versioned, schema-checked checkpoint files.

A checkpoint is one JSON document written atomically
(:func:`repro.ckpt.atomic.atomic_write_json`), so a crash mid-save
leaves the previous checkpoint intact — the resume path never sees a
torn file.  The envelope is deliberately small::

    {
      "schema": 2,                  # format version, checked on load
      "kind": "endurance",          # which experiment wrote it
      "spec": {...},                # the run's construction arguments
      "state": {...},               # the state_dict() snapshot tree
      "meta": {"saved_at_s": 86400.0, ...}   # free-form context
    }

``spec`` lets the loader verify that a resume reconstructs the *same*
run the snapshot came from (same seed, same dt, same horizon) before
applying state — resuming a checkpoint against different arguments is
a :class:`~repro.errors.CheckpointError`, not a silently-wrong result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.ckpt.atomic import atomic_write_json
from repro.errors import CheckpointError
from repro.obs import journal as _journal
from repro.obs.metrics import HOOKS as _OBS

CHECKPOINT_SCHEMA = 2
"""Current checkpoint envelope version."""


def save_checkpoint(
    path: Union[str, Path],
    kind: str,
    state: Dict[str, Any],
    spec: Optional[Dict[str, Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
    fsync: bool = True,
) -> Path:
    """Atomically write a checkpoint envelope to ``path``.

    Args:
        path: destination file (conventionally ``*.ckpt.json``).
        kind: experiment identifier checked on load ("endurance",
            "resilience", "montecarlo", ...).
        state: the ``state_dict()`` snapshot tree.
        spec: the run's construction arguments, echoed for resume-time
            validation.
        meta: free-form context (simulated time, step counts).
        fsync: flush before rename (disable only in tight test loops).

    Returns:
        The checkpoint path.
    """
    envelope = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": kind,
        "spec": spec or {},
        "state": state,
        "meta": meta or {},
    }
    written = atomic_write_json(path, envelope, fsync=fsync)
    h = _OBS.ckpt_saves
    if h is not None:
        h.inc()
    j = _journal.JOURNAL
    if j is not None:
        j.emit(_journal.CHECKPOINT_SAVE, path=str(written), kind=kind)
    return written


def load_checkpoint(path: Union[str, Path], kind: Optional[str] = None) -> Dict[str, Any]:
    """Read and validate a checkpoint envelope.

    Args:
        path: the checkpoint file.
        kind: when given, the envelope's ``kind`` must match.

    Returns:
        The full envelope dict.

    Raises:
        CheckpointError: missing/corrupt file, wrong schema version, or
            wrong kind.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "schema" not in envelope:
        raise CheckpointError(f"checkpoint {path} has no schema field")
    if envelope["schema"] != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema {envelope['schema']!r}; "
            f"this build reads schema {CHECKPOINT_SCHEMA}"
        )
    if kind is not None and envelope.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} is kind {envelope.get('kind')!r}, expected {kind!r}"
        )
    for key in ("state", "spec", "meta"):
        if not isinstance(envelope.get(key), dict):
            raise CheckpointError(f"checkpoint {path} is missing its {key!r} tree")
    h = _OBS.ckpt_restores
    if h is not None:
        h.inc()
    j = _journal.JOURNAL
    if j is not None:
        j.emit(
            _journal.CHECKPOINT_RESTORE,
            path=str(path),
            kind=envelope.get("kind"),
        )
    return envelope


def check_spec_match(envelope: Dict[str, Any], spec: Dict[str, Any], path: Any = "") -> None:
    """Require the checkpoint's echoed spec to equal the resume's spec.

    Raises:
        CheckpointError: listing every differing field — resuming a
            snapshot under different run arguments would produce a
            result that matches neither run.
    """
    saved = envelope.get("spec", {})
    diffs = []
    for key in sorted(set(saved) | set(spec)):
        if saved.get(key) != spec.get(key):
            diffs.append(f"{key}: checkpoint={saved.get(key)!r} resume={spec.get(key)!r}")
    if diffs:
        raise CheckpointError(
            f"checkpoint {path} was written by a different run; refusing to "
            "resume with mismatched arguments (" + "; ".join(diffs) + ")"
        )


__all__ = [
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "check_spec_match",
]
