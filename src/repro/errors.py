"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelParameterError(ReproError, ValueError):
    """A device or circuit model was constructed with invalid parameters."""


class ConvergenceError(ReproError, RuntimeError):
    """A numerical solve (Newton, bisection, MNA) failed to converge."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class OperatingPointError(ReproError, ValueError):
    """A requested electrical operating point is outside the device's range."""


class SimulationError(ReproError, RuntimeError):
    """The simulation engine reached an inconsistent or impossible state."""


class ColdStartError(SimulationError):
    """The system failed to cold-start within the allotted simulation window."""


class NumericalGuardError(SimulationError):
    """A simulated quantity went non-finite (NaN/Inf) — the engine stops
    instead of silently corrupting downstream energy accounting."""

    def __init__(self, message: str, signal: str = "", time: float = float("nan")):
        super().__init__(message)
        self.signal = signal
        self.time = time


class LUTValidationError(SimulationError):
    """A power interpolation table failed its pre-run validation gate:
    the worst-case error against exact solves exceeds the declared
    budget (the table is undersized for the requested accuracy)."""

    def __init__(self, message: str, max_rel_error: float = float("nan"),
                 rel_budget: float = float("nan")):
        super().__init__(message)
        self.max_rel_error = max_rel_error
        self.rel_budget = rel_budget


class TraceError(ReproError, KeyError):
    """A requested signal trace does not exist or is malformed."""


class ConfigurationError(ReproError, ValueError):
    """A system-level configuration is inconsistent (e.g. mismatched rails)."""


class FaultConfigError(ReproError, ValueError):
    """A fault schedule or fault wrapper was configured inconsistently."""


class ConfigError(ModelParameterError, ConfigurationError):
    """A physical parameter failed construction-time validation (NaN,
    Inf, wrong sign).  Carries the offending field name so a run that
    would otherwise die deep inside the engine with a
    :class:`NumericalGuardError` fails at the constructor instead.

    Subclasses both :class:`ModelParameterError` and
    :class:`ConfigurationError` so every pre-existing ``except``/
    ``pytest.raises`` site keeps catching what it always caught."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be written, read, or applied."""


class StateFormatError(CheckpointError):
    """A serialized state blob does not match the schema the target
    object expects (wrong kind, wrong schema version, missing keys)."""


class LockTimeoutError(ReproError, RuntimeError):
    """An advisory file lock could not be acquired within its timeout."""


class RunDrainedError(CheckpointError):
    """A run was stopped cooperatively (SIGTERM / service drain) after
    writing one final checkpoint.  Not a failure: the checkpoint named
    here resumes the run to a bitwise-identical result.
    """

    def __init__(self, message: str, checkpoint_path: str = "", step: int = -1):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.step = step


class ServiceError(ReproError, RuntimeError):
    """Base class for simulation-service (job server) failures."""


class QueueFullError(ServiceError):
    """Admission refused: the job queue is at its bounded depth.

    ``retry_after`` is the suggested client backoff, seconds — the HTTP
    layer surfaces it as a 429 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceDrainingError(ServiceError):
    """Admission refused: the server is draining (SIGTERM received)."""


class JobNotFoundError(ServiceError, KeyError):
    """No job with the requested id exists in the store."""


class JobTimeoutError(ServiceError):
    """A job attempt exceeded the service's per-job wall-clock budget,
    or its heartbeat went silent — the attempt is abandoned and the job
    retried/quarantined like any other failure."""

    def __init__(self, message: str, job_id: str = "", timeout: float = float("nan")):
        super().__init__(message)
        self.job_id = job_id
        self.timeout = timeout


class ServiceClientError(ServiceError):
    """The service answered a client request with an error status.

    ``status`` is the HTTP status code; ``payload`` the decoded error
    body (including ``field`` detail for 400 spec rejections and
    ``retry_after`` for 429 backpressure)."""

    def __init__(self, message: str, status: int = 0, payload: object = None):
        super().__init__(message)
        self.status = status
        self.payload = payload if payload is not None else {}


class JournalError(ReproError, RuntimeError):
    """A run journal could not be written or replayed (strict mode only:
    the default reader tolerates a crash-truncated final line)."""

    def __init__(self, message: str, line_number: int = -1):
        super().__init__(message)
        self.line_number = line_number
