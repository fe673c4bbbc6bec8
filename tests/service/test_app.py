"""HTTP transport tests (repro.service.app) over a real bound socket.

Each test stands up the asyncio server on an OS-assigned port, drives it
with a minimal HTTP/1.1 client on raw streams (the server speaks
one-request-per-connection, ``Connection: close``), and tears it down.
Verification is stubbed to keep the focus on the transport.
"""

import asyncio
import json
import threading

from repro.campaign import RetryPolicy
from repro.campaign.runner import DegradePolicy
from repro.core.results import VerificationResult
from repro.service.app import ServiceApp
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
    kwargs.setdefault("degrade", DegradePolicy(fallback_method=None))
    return SessionManager(str(tmp_path / "data"), verify_fn=verify,
                          **kwargs)


async def request(host, port, method, path, payload=None):
    """One HTTP round-trip; returns (status, headers, body_bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_raw, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def run_app(manager, scenario):
    """Start the app on port 0, run the async scenario, tear down."""

    async def main():
        app = ServiceApp(manager)
        host, port = await app.start("127.0.0.1", 0)
        try:
            await scenario(host, port)
        finally:
            await app.close()

    asyncio.run(main())


async def json_request(host, port, method, path, payload=None):
    status, headers, body = await request(host, port, method, path, payload)
    return status, headers, json.loads(body.decode("utf-8"))


class TestPlumbing:
    def test_healthz_version_metrics(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        async def scenario(host, port):
            status, _headers, payload = await json_request(
                host, port, "GET", "/healthz"
            )
            assert (status, payload) == (200, {"ok": True})
            status, _headers, payload = await json_request(
                host, port, "GET", "/version"
            )
            assert status == 200
            assert payload["repro"]
            assert payload["registry_version"].endswith(
                payload["registry_fingerprint"][:12]
            )
            status, _headers, payload = await json_request(
                host, port, "GET", "/metrics"
            )
            assert status == 200
            assert payload["queue_limit"] == manager.queue_limit

        run_app(manager, scenario)

    def test_error_statuses(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        async def scenario(host, port):
            status, _h, _b = await request(host, port, "GET", "/nope")
            assert status == 404
            status, _h, _b = await request(host, port, "DELETE",
                                           "/v1/sessions/abc")
            assert status == 405
            status, _h, body = await request(host, port, "POST",
                                             "/v1/sessions")
            assert status == 400  # empty body is not a request object
            status, _h, _b = await request(host, port, "GET",
                                           "/v1/sessions/doesnotexist")
            assert status == 404
            status, _h, _b = await request(
                host, port, "GET", "/v1/sessions/abc?wait=banana"
            )
            assert status == 400
            status, _h, _b = await request(host, port, "GET",
                                           "/v1/artifacts/ZZ")
            assert status == 400
            status, _h, _b = await request(host, port, "GET",
                                           "/v1/artifacts/" + "ab" * 8)
            assert status == 404

        run_app(manager, scenario)

    def test_unknown_request_field_is_400(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        async def scenario(host, port):
            status, _h, payload = await json_request(
                host, port, "POST", "/v1/sessions", {"gird": "2x1"}
            )
            assert status == 400
            assert "gird" in payload["error"]

        run_app(manager, scenario)


    def test_non_numeric_config_field_is_400(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())

        async def scenario(host, port):
            status, _h, payload = await json_request(
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

        async def scenario(host, port):
            status, _h, submitted = await json_request(
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
                status, _h, payload = await json_request(
                    host, port, "GET",
                    f"/v1/sessions/{sid}?wait=1&version="
                    f"{payload['version']}",
                )
                assert status == 200
            assert payload["state"] == "completed"

            status, _h, result = await json_request(
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

        async def scenario(host, port):
            status, _h, first = await json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = first["session"]
            payload = first
            while payload["state"] not in ("completed", "failed"):
                _status, _h, payload = await json_request(
                    host, port, "GET",
                    f"/v1/sessions/{sid}?wait=1&version="
                    f"{payload['version']}",
                )
            assert payload["state"] == "completed"

            status, _h, second = await json_request(
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

        async def scenario(host, port):
            status, _h, _first = await json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            assert status == 200
            status, headers, payload = await json_request(
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

        async def scenario(host, port):
            _status, _h, submitted = await json_request(
                host, port, "POST", "/v1/sessions", {"grid": "2x1"}
            )
            sid = submitted["session"]
            status, headers, body = await request(
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

        async def scenario(host, port):
            status, headers, body = await request(
                host, port, "GET", f"/v1/artifacts/{digest}"
            )
            assert status == 200
            assert body == payload  # byte-identical through the store
            assert headers["content-type"] == "text/x-drup"

        run_app(manager, scenario)
