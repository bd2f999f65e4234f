"""The HTTP face of the simulation service (stdlib ``http.server``).

A deliberately thin layer: every route is a few lines that translate
HTTP into :class:`~repro.service.queue.JobService` calls and typed
errors back into status codes.  All policy — admission, retries,
quarantine, drain — lives in the control plane, which is what the unit
tests exercise; the server's own tests only cover the translation.

Routes::

    POST   /v1/jobs        submit a spec          202 (or coalesced 200)
    GET    /v1/jobs        list jobs (no results) 200
    GET    /v1/jobs/<id>   one job, with result   200
    DELETE /v1/jobs/<id>   cancel a queued job    200
    GET    /healthz        liveness               200
    GET    /readyz         readiness              200 / 503 (draining|full)
    GET    /metrics        Prometheus text        200

Error mapping (the contract the client and tests pin down):

====================================  ======================================
exception                             response
====================================  ======================================
malformed / non-object JSON body      400 ``{"error": ...}``
:class:`ConfigError`                  400 ``{"error", "field"}``
body over :data:`MAX_BODY_BYTES`      413
:class:`JobNotFoundError`             404
:class:`ServiceError` (bad cancel)    409
:class:`QueueFullError`               429 + ``Retry-After`` header
:class:`ServiceDrainingError`         503 + ``Retry-After`` header
====================================  ======================================

SIGTERM (and SIGINT) trigger the graceful drain: admissions stop,
running checkpoint-enabled jobs save a final checkpoint and are
re-queued with ``resume_from``, the store is flushed, and
:func:`serve_forever` returns so the CLI can exit 0.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceDrainingError,
    ServiceError,
)
from repro.obs import journal as _journal
from repro.obs.export import prometheus_text
from repro.service.queue import JobService

MAX_BODY_BYTES = 1 << 20
"""Request bodies above this (1 MiB) are refused with 413 before any
parsing — a spec is a handful of scalars; anything bigger is abuse."""


def _service_metrics_text(service: JobService) -> str:
    """Service gauges appended to the shared Prometheus exposition."""
    counts = service.counts_by_state()
    lines = [
        "# TYPE repro_service_queue_depth gauge",
        f"repro_service_queue_depth {service.depth()}",
        "# TYPE repro_service_draining gauge",
        f"repro_service_draining {1 if service.draining else 0}",
        "# TYPE repro_service_jobs gauge",
    ]
    for state in sorted(counts):
        lines.append(f'repro_service_jobs{{state="{state}"}} {counts[state]}')
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """One request; the service instance hangs off the server object."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # --- plumbing -----------------------------------------------------------

    @property
    def service(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the journal is the log; stderr chatter helps nobody

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:
            # The client reset the connection while we read its next
            # request (or a body); nobody is left to answer.
            self.close_connection = True

    def _send(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:
            # The client went away mid-response; the job is unaffected.
            self.close_connection = True

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, "application/json", body, headers)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _TooLarge(length)
        return self.rfile.read(length) if length > 0 else b""

    # --- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/readyz":
            if self.service.draining:
                self._send_json(503, {"ready": False, "reason": "draining"})
            elif self.service.depth() >= self.service.queue_depth:
                self._send_json(503, {"ready": False, "reason": "queue-full"})
            else:
                self._send_json(200, {"ready": True})
        elif path == "/metrics":
            text = prometheus_text() + _service_metrics_text(self.service)
            self._send(200, "text/plain; version=0.0.4", text.encode("utf-8"))
        elif path == "/v1/jobs":
            jobs = [r.public_dict(include_result=False) for r in self.service.list_jobs()]
            self._send_json(200, {"jobs": jobs})
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            try:
                record = self.service.get(job_id)
            except JobNotFoundError as exc:
                self._send_json(404, {"error": str(exc)})
                return
            self._send_json(200, {"job": record.public_dict()})
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/jobs":
            self._send_json(404, {"error": f"no route {path!r}"})
            return
        try:
            raw = self._read_body()
        except _TooLarge as exc:
            self._send_json(
                413,
                {"error": f"body of {exc.length} bytes exceeds {MAX_BODY_BYTES}"},
            )
            return
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        try:
            record, coalesced = self.service.submit(payload)
        except ConfigError as exc:
            detail: Dict[str, Any] = {"error": str(exc)}
            if getattr(exc, "field", ""):
                detail["field"] = exc.field
            self._send_json(400, detail)
            return
        except QueueFullError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after},
                headers={"Retry-After": str(max(1, int(round(exc.retry_after))))},
            )
            return
        except ServiceDrainingError as exc:
            self._send_json(503, {"error": str(exc)}, headers={"Retry-After": "30"})
            return
        status = 200 if coalesced else 202
        self._send_json(
            status,
            {"job": record.public_dict(include_result=False), "coalesced": coalesced},
        )

    def do_DELETE(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/v1/jobs/"):
            self._send_json(404, {"error": f"no route {path!r}"})
            return
        job_id = path[len("/v1/jobs/"):]
        try:
            record = self.service.cancel(job_id)
        except JobNotFoundError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except ServiceError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        self._send_json(200, {"job": record.public_dict(include_result=False)})


class _TooLarge(Exception):
    def __init__(self, length: int):
        self.length = length


class JobServer:
    """The composed server: a :class:`JobService` behind HTTP.

    ``port=0`` binds an ephemeral port (tests); read :attr:`port` after
    construction.  :meth:`serve_forever` blocks until :meth:`drain` (or
    a signal installed by :meth:`install_signal_handlers`) stops it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, **service_kwargs: Any):
        self.service = JobService(**service_kwargs)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._drain_lock = threading.Lock()
        self._drain_done = False
        self.readmitted: list = []

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JobServer":
        """Recover the store and start the worker pool (not the listener)."""
        readmitted = self.service.start()
        self.readmitted = readmitted
        for record in readmitted:
            _journal.emit(
                _journal.CHECKPOINT_RESTORE,
                kind="service",
                job_id=record.job_id,
                resume_from=record.resume_from,
            )
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admissions, checkpoint, stop listening.

        Idempotent and synchronized: a second caller (the CLI's main
        thread racing the signal thread) blocks until the first drain
        finishes, so "drained" is never reported early.
        """
        with self._drain_lock:
            if self._drain_done:
                return
            self.service.begin_drain()  # readiness goes false immediately
            threading.Thread(target=self._httpd.shutdown, daemon=True).start()
            self.service.drain(timeout=timeout)
            self._httpd.server_close()
            self._drain_done = True

    def close(self) -> None:
        """Hard teardown for tests (no drain semantics)."""
        threading.Thread(target=self._httpd.shutdown, daemon=True).start()
        self.service.close()
        self._httpd.server_close()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain; ``serve_forever`` then returns."""

        def _handle(signum: int, frame: Any) -> None:
            threading.Thread(
                target=self.drain, name="repro-service-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    **service_kwargs: Any,
) -> Tuple[JobServer, threading.Thread]:
    """Start a server on a background thread (tests / embedding).

    Returns ``(server, thread)``; call ``server.drain()`` or
    ``server.close()`` to stop it.
    """
    server = JobServer(host=host, port=port, **service_kwargs).start()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


__all__ = ["MAX_BODY_BYTES", "JobServer", "run_server"]
