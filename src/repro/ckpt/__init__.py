"""``repro.ckpt`` — crash-safe experiments.

Three layers, used together by the long-running experiments:

* :mod:`repro.ckpt.atomic` — atomic artifact writes
  (write-temp → fsync → rename) and advisory file locking, so crashes
  never tear an artifact and concurrent runs never drop each other's
  updates.
* :mod:`repro.ckpt.state` — the ``state_dict()/load_state()``
  protocol engines, controllers, storage, schedulers and fault
  wrappers implement, plus RNG-position serialization.
* :mod:`repro.ckpt.checkpoint` — the versioned JSON checkpoint
  envelope experiments save with ``checkpoint_every=`` and resume with
  ``python -m repro <experiment> --resume <ckpt>``.
* :mod:`repro.ckpt.drain` — cooperative SIGTERM shutdown: checkpoint-
  enabled loops poll the drain flag, write one final checkpoint, and
  raise :class:`~repro.errors.RunDrainedError` so the CLI and the job
  server exit 0 with nothing lost.

The hard guarantee (gated by ``tests/integration/test_crash_resume.py``
and the CI crash/resume smoke job): an interrupted-then-resumed run
produces a **bitwise-identical** summary to an uninterrupted one.
"""

from repro.ckpt.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    file_lock,
    locked_append_text,
)
from repro.ckpt.checkpoint import (
    CHECKPOINT_SCHEMA,
    check_spec_match,
    load_checkpoint,
    save_checkpoint,
)
from repro.ckpt.drain import (
    RunDrainedError,
    clear_drain,
    drain_requested,
    request_drain,
    sigterm_drain,
)
from repro.ckpt.state import (
    Stateful,
    capture_fields,
    child_state,
    load_child_state,
    load_rng_state,
    restore_fields,
    rng_state_dict,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "file_lock",
    "locked_append_text",
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "check_spec_match",
    "RunDrainedError",
    "request_drain",
    "clear_drain",
    "drain_requested",
    "sigterm_drain",
    "Stateful",
    "capture_fields",
    "restore_fields",
    "child_state",
    "load_child_state",
    "rng_state_dict",
    "load_rng_state",
]
