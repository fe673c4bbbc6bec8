"""HTTP transport tests (repro.service.app) over a real bound socket.

Each test stands up the server on an OS-assigned port, drives it with a
minimal HTTP/1.1 client on a raw socket (the server speaks
one-request-per-connection, ``Connection: close``), and tears it down.
Verification is stubbed to keep the focus on the transport.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.campaign import RetryPolicy
from repro.core.results import VerificationResult
from repro.service.app import ServiceApp, _Handler
from repro.service.sessions import SessionManager


class CountingVerify:
    def __init__(self, block=None):
        self.calls = []
        self.block = block

    def __call__(self, config, **kwargs):
        if self.block is not None:
            assert self.block.wait(30.0), "test gate never opened"
        self.calls.append((config.n_rob, config.issue_width))
        return VerificationResult(
            config=config, method=kwargs.get("method", "rewriting"),
            bug=None, correct=True, timings={"total": 0.0},
        )


def make_manager(tmp_path, verify, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    return SessionManager(str(tmp_path / "data"), verify_fn=verify,
                          **kwargs)


def raw_request(host, port, data):
    """Send ``data`` as it is; returns every byte the server answers."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_response(raw):
    """(status, headers, body_bytes) of one raw HTTP response."""
    head_raw, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def request(host, port, method, path, payload=None):
    """One HTTP round-trip; returns (status, headers, body_bytes)."""
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    raw = raw_request(host, port, head.encode("latin-1") + body)
    return parse_response(raw)


def run_app(manager, scenario):
    """Start the app on port 0, run the scenario, tear down."""
    app = ServiceApp(manager, "127.0.0.1", 0)
    server = threading.Thread(target=app.serve_forever, daemon=True)
    server.start()
    try:
        scenario(*app.server_address[:2])
    finally:
        app.shutdown()
        server.join(10.0)
        app.server_close()


def json_request(host, port, method, path, payload=None):
    status, headers, body = request(host, port, method, path, payload)
    return status, headers, json.loads(body.decode("utf-8"))


class TestPlumbing:
    def test_healthz_version_metrics(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            status, _headers, payload = json_request(
                host, port, "GET", "/healthz"
            )
            assert (status, payload) == (200, {"ok": True})
            status, _headers, payload = json_request(
                host, port, "GET", "/version"
            )
            assert status == 200
            assert payload["repro"]
            assert payload["registry_version"].endswith(
                payload["registry_fingerprint"][:12]
            )
            status, _headers, payload = json_request(
                host, port, "GET", "/metrics"
            )
            assert status == 200
            assert payload["queue_limit"] == manager.queue_limit

        run_app(manager, scenario)

    def test_error_statuses(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            status, _h, _b = request(host, port, "GET", "/nope")
            assert status == 404
            status, _h, _b = request(host, port, "DELETE",
                                     "/v1/sessions/abc")
            assert status == 405
            status, _h, body = request(host, port, "POST",
                                       "/v1/sessions")
            assert status == 400  # empty body is not a request object
            status, _h, _b = request(host, port, "GET",
                                     "/v1/sessions/doesnotexist")
            assert status == 404
            status, _h, _b = request(
                host, port, "GET", "/v1/sessions/abc?wait=banana"
            )
            assert status == 400
            status, _h, _b = request(host, port, "GET",
                                     "/v1/artifacts/ZZ")
            assert status == 400
            status, _h, _b = request(host, port, "GET",
                                     "/v1/artifacts/" + "ab" * 8)
            assert status == 404

        run_app(manager, scenario)

    def test_unknown_request_field_is_400(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            status, _h, payload = json_request(
                host, port, "POST", "/v1/sessions", {"gird": "2x1"}
            )
            assert status == 400
            assert "gird" in payload["error"]

        run_app(manager, scenario)

    def test_non_numeric_config_field_is_400(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            status, _h, payload = json_request(
                host, port, "POST", "/v1/sessions",
                {"configs": [{"n_rob": "abc", "issue_width": 1}]},
            )
            assert status == 400
            assert "n_rob" in payload["error"]

        run_app(manager, scenario)
        assert "service.errors" not in manager.metrics.values()


class TestSubmitFlow:
    def test_submit_longpoll_result(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)

        def scenario(host, port):
            status, _h, submitted = json_request(
                host, port, "POST", "/v1/sessions",
                {"grid": "2x1,3x1", "client": "test-app"},
            )
            assert status == 200
            sid = submitted["session"]
            assert submitted["jobs"]["total"] == 2

            payload = submitted
            for _attempt in range(120):
                if payload["state"] in ("completed", "failed"):
                    break
                status, _h, payload = json_request(
                    host, port, "GET",
                    f"/v1/sessions/{sid}?wait=1&version="
                    f"{payload['version']}",
                )
                assert status == 200
            assert payload["state"] == "completed"

            status, _h, result = json_request(
                host, port, "GET", f"/v1/sessions/{sid}/result"
            )
            assert status == 200
            assert len(result["results"]) == 2
            assert {r["status"] for r in result["results"].values()} == \
                {"PROVED"}

        run_app(manager, scenario)

    def test_duplicate_submit_is_served_complete_from_cache(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)

        def scenario(host, port):
            status, _h, first = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = first["session"]
            payload = first
            while payload["state"] not in ("completed", "failed"):
                _status, _h, payload = json_request(
                    host, port, "GET",
                    f"/v1/sessions/{sid}?wait=1&version="
                    f"{payload['version']}",
                )
            assert payload["state"] == "completed"

            status, _h, second = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            assert status == 200
            assert second["complete"] is True
            states = [job["state"]
                      for job in second["job_states"].values()]
            assert states == ["cached"]
            assert len(verify.calls) == 1

        run_app(manager, scenario)

    def test_backpressure_answers_429_with_retry_after(self, tmp_path):
        gate = threading.Event()
        verify = CountingVerify(block=gate)
        manager = make_manager(tmp_path, verify, queue_limit=1)

        def scenario(host, port):
            status, _h, _first = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            assert status == 200
            status, headers, payload = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "3x1"}
            )
            assert status == 429
            assert "retry-after" in headers
            assert int(headers["retry-after"]) >= 1
            assert "queue is full" in payload["error"]
            gate.set()

        try:
            run_app(manager, scenario)
        finally:
            gate.set()


class TestEventsAndArtifacts:
    def test_sse_streams_journal_records_then_state(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)

        def scenario(host, port):
            _status, _h, submitted = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = submitted["session"]
            status, headers, body = request(
                host, port, "GET", f"/v1/sessions/{sid}/events?wait=30"
            )
            assert status == 200
            assert headers["content-type"] == "text/event-stream"
            text = body.decode("utf-8")
            frames = [frame for frame in text.split("\n\n") if frame]
            data_frames = [json.loads(frame[len("data: "):])
                           for frame in frames
                           if frame.startswith("data: ")]
            events = [frame["event"] for frame in data_frames]
            assert "enqueue" in events
            assert "finish" in events
            assert frames[-1].startswith("event: state\n")
            final = json.loads(frames[-1].split("\n", 1)[1][len("data: "):])
            assert final["state"] == "completed"

        run_app(manager, scenario)

    def test_artifact_bytes_roundtrip_over_http(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())
        digest = "ab12" * 4
        payload = b"p drup\n1 0\n"
        manager.store.put(digest, payload, media_type="text/x-drup")

        def scenario(host, port):
            status, headers, body = request(
                host, port, "GET", f"/v1/artifacts/{digest}"
            )
            assert status == 200
            assert body == payload  # byte-identical through the store
            assert headers["content-type"] == "text/x-drup"

        run_app(manager, scenario)


def wait_until_running(host, port, sid):
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        _status, _h, payload = json_request(
            host, port, "GET", f"/v1/sessions/{sid}"
        )
        if payload["state"] == "running":
            return payload
        time.sleep(0.02)
    raise AssertionError(f"session {sid} never started running")


class TestConcurrency:
    def test_open_long_polls_do_not_hold_other_requests(self, tmp_path):
        # One more long-poll than asyncio's default executor has threads:
        # a transport that ran blocking calls on that pool would hold
        # the submit until a long-poll returned.
        polls = min(32, (os.cpu_count() or 1) + 4) + 1
        gate = threading.Event()
        manager = make_manager(tmp_path, CountingVerify(block=gate))

        def scenario(host, port):
            _status, _h, submitted = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = submitted["session"]
            version = wait_until_running(host, port, sid)["version"]
            waiting = []
            try:
                for _poll in range(polls):
                    sock = socket.create_connection((host, port), 30.0)
                    waiting.append(sock)
                    sock.sendall(
                        f"GET /v1/sessions/{sid}?wait=20&version={version} "
                        "HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
                    )
                time.sleep(0.5)  # let every long-poll reach its wait
                started = time.monotonic()
                status, _h, payload = json_request(
                    host, port, "POST", "/v1/sessions", {"grid": "3x1"}
                )
                assert status == 200, payload
                assert time.monotonic() - started < 2.0
                started = time.monotonic()
                status, _h, stats = json_request(host, port, "GET", "/metrics")
                assert status == 200
                assert time.monotonic() - started < 2.0
                assert stats["sessions"]["running"] == 1
            finally:
                gate.set()
                for sock in waiting:
                    sock.close()

        try:
            run_app(manager, scenario)
        finally:
            gate.set()

    def test_a_burst_of_connects_is_accepted_at_once(self, tmp_path):
        # A connect past a full listen backlog waits for a SYN
        # retransmit; with a backlog of 5 this burst took 2 to 3 s.
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            clients = []
            started = time.monotonic()
            try:
                for _connect in range(22):
                    clients.append(socket.create_connection((host, port), 30.0))
                assert time.monotonic() - started < 1.0
            finally:
                for client in clients:
                    client.close()

        run_app(manager, scenario)


class TestIdleConnections:
    def test_silent_clients_lose_their_connection_and_thread(
        self, tmp_path, monkeypatch
    ):
        timeout = 1.5
        monkeypatch.setattr(_Handler, "timeout", timeout)
        gate = threading.Event()
        manager = make_manager(tmp_path, CountingVerify(block=gate))

        def connect(host, port, data=b""):
            client = socket.create_connection((host, port), 30.0)
            client.sendall(data)
            return client

        def scenario(host, port):
            baseline = threading.active_count()
            first = time.monotonic()
            clients = [connect(host, port) for _ in range(20)]
            clients.append(
                connect(host, port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            )
            clients.append(connect(
                host, port,
                b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 100\r\n"
                b"\r\n{\"grid\": ",
            ))
            opened = time.monotonic()
            try:
                # Each silent client holds a handler thread at first...
                while threading.active_count() < baseline + len(clients):
                    assert time.monotonic() - first < timeout
                    time.sleep(0.01)
                # ...until its read times out and the server drops it.
                while threading.active_count() > baseline:
                    assert time.monotonic() - opened < timeout + 1.0, (
                        f"{threading.active_count() - baseline} handler "
                        "thread(s) outlived the socket timeout"
                    )
                    time.sleep(0.02)
                for client in clients:
                    assert client.recv(65536) == b""  # closed, no answer
            finally:
                for client in clients:
                    client.close()
            status, _h, payload = json_request(host, port, "GET", "/healthz")
            assert (status, payload) == (200, {"ok": True})
            assert "service.errors" not in manager.metrics.values()

            # A long-poll waits on the session, not on the socket: one
            # longer than the socket timeout still answers.
            _status, _h, submitted = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = submitted["session"]
            version = wait_until_running(host, port, sid)["version"]
            started = time.monotonic()
            status, _h, payload = json_request(
                host, port, "GET",
                f"/v1/sessions/{sid}?wait={timeout + 0.5}&version={version}",
            )
            assert status == 200
            assert payload["state"] == "running"
            assert time.monotonic() - started >= timeout + 0.5
            gate.set()

        try:
            run_app(manager, scenario)
        finally:
            gate.set()


class TestRequestValidation:
    @pytest.mark.parametrize("wait", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("route", ["", "/events"])
    def test_bad_wait_is_a_400_before_any_byte(self, tmp_path, route, wait):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            _status, _h, submitted = json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            path = f"/v1/sessions/{submitted['session']}{route}?wait={wait}"
            raw = raw_request(
                host, port,
                f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode(),
            )
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert raw.count(b"HTTP/1.1 ") == 1
            status, headers, body = parse_response(raw)
            assert headers["content-type"] == "application/json"
            assert "wait" in json.loads(body)["error"]

        run_app(manager, scenario)

    # Each head ends where the server stops reading, so no unread byte
    # can turn its close into a reset; the long lines are 65,537 bytes,
    # one over the standard library's line limit.
    @pytest.mark.parametrize("head, status", [
        (b"GARBAGE\r\n", 400),
        (b"GET /" + b"a" * 65521 + b" HTTP/1.1\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 65528 + b"\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: 1\r\n" % n for n in range(101)), 431),
    ], ids=["malformed-line", "long-line", "long-header", "many-headers"])
    def test_parse_errors_are_json(self, tmp_path, head, status):
        manager = make_manager(tmp_path, CountingVerify())

        def scenario(host, port):
            answered, headers, body = parse_response(
                raw_request(host, port, head)
            )
            assert answered == status
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["error"]

        run_app(manager, scenario)
