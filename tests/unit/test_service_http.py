"""HTTP failure-path tests for the service (repro.service.server).

The satellite contract: malformed/oversize bodies get field-level 400s
(or 413), a full queue returns 429 and never hangs, duplicate specs
coalesce onto the same job id, a poison job is quarantined while its
siblings finish, and a client disconnecting mid-response never takes a
worker or the listener down.
"""

import http.client
import json
import socket
import struct
import time

import pytest

from repro.errors import ServiceClientError
from repro.service.client import ServiceClient
from repro.service.server import MAX_BODY_BYTES, run_server

ENDURANCE = {"kind": "endurance", "params": {"days": 1}}


def ok_runner(spec, **kwargs):
    return {"kind": spec.kind, "ok": True}


def slow_runner(spec, **kwargs):
    time.sleep(0.2)
    return {"ok": True}


@pytest.fixture
def make_server(tmp_path):
    servers = []

    def factory(**kwargs):
        kwargs.setdefault("data_dir", tmp_path / "jobs")
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("backoff_cap", 0.05)
        kwargs.setdefault("runner", ok_runner)
        server, _thread = run_server(port=0, **kwargs)
        servers.append(server)
        return server, ServiceClient(server.url)

    yield factory
    for server in servers:
        server.close()


def raw_request(server, method, path, body=b"", headers=None):
    """A request below the client abstraction, for malformed payloads."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestBadRequests:
    def test_malformed_json_is_400(self, make_server):
        server, _ = make_server()
        status, _, body = raw_request(server, "POST", "/v1/jobs", b"{nope")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_non_object_body_is_400_with_field(self, make_server):
        server, _ = make_server()
        status, _, body = raw_request(server, "POST", "/v1/jobs", b"[1, 2]")
        assert status == 400
        assert json.loads(body)["field"] == "body"

    def test_non_finite_number_is_400_with_field(self, make_server):
        server, _ = make_server()
        status, _, body = raw_request(
            server, "POST", "/v1/jobs", b'{"kind": "endurance", "params": {"days": NaN}}'
        )
        assert status == 400
        assert json.loads(body)["field"] == "days"

    def test_config_error_carries_field_detail(self, make_server):
        _, client = make_server()
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"kind": "endurance", "params": {"days": -3}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "days"
        assert "days" in excinfo.value.payload["error"]

    def test_unknown_parameter_named_in_field(self, make_server):
        _, client = make_server()
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"kind": "endurance", "params": {"weeks": 1}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "weeks"

    def test_oversize_body_is_413(self, make_server):
        server, _ = make_server()
        blob = b'{"kind": "endurance", "pad": "' + b"x" * MAX_BODY_BYTES + b'"}'
        status, _, body = raw_request(server, "POST", "/v1/jobs", blob)
        assert status == 413
        assert "exceeds" in json.loads(body)["error"]

    def test_unknown_routes_are_404(self, make_server):
        server, client = make_server()
        assert raw_request(server, "GET", "/v2/jobs")[0] == 404
        assert raw_request(server, "POST", "/v1/nonsense")[0] == 404
        with pytest.raises(ServiceClientError) as excinfo:
            client.get("ffffffffffff-000404")
        assert excinfo.value.status == 404


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, make_server):
        server, client = make_server(workers=0, queue_depth=1)
        client.submit({"kind": "endurance", "params": {"days": 1}})
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"kind": "endurance", "params": {"days": 2}})
        assert excinfo.value.status == 429
        assert excinfo.value.payload["retry_after_s"] > 0
        status, headers, _ = raw_request(
            server,
            "POST",
            "/v1/jobs",
            json.dumps({"kind": "endurance", "params": {"days": 3}}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1

    def test_readyz_reports_queue_full(self, make_server):
        server, client = make_server(workers=0, queue_depth=1)
        assert client.ready()
        client.submit(ENDURANCE)
        status, _, body = raw_request(server, "GET", "/readyz")
        assert status == 503
        assert json.loads(body)["reason"] == "queue-full"
        assert client.healthy()  # liveness unaffected

    def test_draining_server_rejects_with_503(self, make_server):
        server, client = make_server(workers=0)
        server.service.begin_drain()
        status, _, body = raw_request(server, "GET", "/readyz")
        assert status == 503
        assert json.loads(body)["reason"] == "draining"
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(ENDURANCE)
        assert excinfo.value.status == 503


class TestCoalescing:
    def test_duplicate_spec_returns_same_job_id(self, make_server):
        _, client = make_server(workers=0)
        first = client.submit(ENDURANCE)
        second = client.submit(dict(ENDURANCE))
        assert not first["coalesced"]
        assert second["coalesced"]
        assert second["job_id"] == first["job_id"]

    def test_completed_result_coalesces_within_ttl(self, make_server):
        _, client = make_server(result_ttl=60.0)
        job = client.submit(ENDURANCE)
        client.wait(job["job_id"], timeout=10)
        again = client.submit(ENDURANCE)
        assert again["coalesced"] and again["job_id"] == job["job_id"]


class TestLifecycleOverHttp:
    def test_submit_wait_fetch_result(self, make_server):
        _, client = make_server()
        job = client.submit(ENDURANCE)
        done = client.wait(job["job_id"], timeout=10)
        assert done["result"] == {"kind": "endurance", "ok": True}
        listed = client.list_jobs()
        assert [j["job_id"] for j in listed] == [job["job_id"]]
        assert "result" not in listed[0]  # list omits bulky results

    def test_poison_job_quarantined_while_siblings_complete(self, make_server):
        def selective(spec, **kwargs):
            if spec.kind == "montecarlo":
                raise RuntimeError("montecarlo poisoned")
            return {"ok": True}

        _, client = make_server(runner=selective, workers=2, max_attempts=2)
        poison = client.submit({"kind": "montecarlo", "params": {"boards": 10}})
        siblings = [
            client.submit({"kind": "endurance", "params": {"days": d}})
            for d in (1, 2)
        ]
        for job in siblings:
            client.wait(job["job_id"], timeout=10)
        with pytest.raises(ServiceClientError) as excinfo:
            client.wait(poison["job_id"], timeout=10)
        dead = excinfo.value.payload
        assert dead["state"] == "quarantined"
        assert dead["attempts"] == 2
        assert "RuntimeError: montecarlo poisoned" in dead["error"]

    def test_cancel_queued_then_conflict(self, make_server):
        _, client = make_server(workers=0)
        job = client.submit(ENDURANCE)
        cancelled = client.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(job["job_id"])
        assert excinfo.value.status == 409

    def test_metrics_exposition_includes_service_gauges(self, make_server):
        _, client = make_server(workers=0)
        client.submit(ENDURANCE)
        text = client.metrics_text()
        assert "repro_service_queue_depth 1" in text
        assert 'repro_service_jobs{state="queued"} 1' in text
        assert "repro_service_draining 0" in text


class TestClientDisconnect:
    def test_disconnect_mid_response_leaves_server_healthy(self, make_server):
        server, client = make_server(runner=slow_runner)
        job = client.submit(ENDURANCE)
        # Open a raw socket, fire a request, slam the connection shut
        # before reading the response the handler is writing.
        for _ in range(3):
            sock = socket.create_connection((server.host, server.port), timeout=5)
            sock.sendall(b"GET /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.close()
        # The listener and the worker pool shrug it off: the job still
        # completes and new requests are served.
        done = client.wait(job["job_id"], timeout=10)
        assert done["state"] == "succeeded"
        assert client.healthy()

    def test_reset_after_a_response_raises_nothing_in_the_handler(self, make_server):
        # A keep-alive client that reads its response and then resets the
        # connection (RST): the handler's wait for the next request must
        # end quietly, not reach socketserver's handle_error.
        server, client = make_server()
        httpd = server._httpd
        errors, finished = [], []
        httpd.handle_error = lambda request, address: errors.append(address)
        shutdown_request = httpd.shutdown_request

        def counted_shutdown(request):
            shutdown_request(request)
            finished.append(request)

        httpd.shutdown_request = counted_shutdown
        attempts = 5
        for _ in range(attempts):
            sock = socket.create_connection((server.host, server.port), timeout=5)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            response = b""
            while not response.endswith(b"}"):
                response += sock.recv(4096)
            time.sleep(0.02)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
        deadline = time.monotonic() + 5.0
        while len(finished) < attempts and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(finished) == attempts
        assert errors == []
        assert client.healthy()

    def test_disconnect_before_body_is_harmless(self, make_server):
        server, client = make_server()
        sock = socket.create_connection((server.host, server.port), timeout=5)
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 500\r\n\r\n"
        )
        sock.close()  # promised 500 bytes, sent none
        assert client.healthy()
