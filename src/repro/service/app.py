"""The HTTP/JSON transport of the verification service.

The standard library's :class:`http.server.ThreadingHTTPServer` serves
each connection on a thread of its own, and that thread calls the
thread-safe :class:`~repro.service.sessions.SessionManager` directly, so
a long-poll or an event stream blocks only its own connection.  One
request per connection, explicit ``Connection: close``.

Endpoints (all JSON unless noted):

=====================================  ==================================
``GET  /healthz``                      liveness probe
``GET  /version``                      package + rule-registry versions
``GET  /metrics``                      service counters and queue stats
``POST /v1/sessions``                  submit a verification request
``GET  /v1/sessions/{id}``             status; ``?wait=S&version=V``
                                       long-polls until the session
                                       version passes ``V``
``GET  /v1/sessions/{id}/result``      verdicts + metrics snapshots
``GET  /v1/sessions/{id}/events``      Server-Sent Events: the session's
                                       journal records as they land
``GET  /v1/artifacts/{digest}``        witness artifact bytes (DRUP
                                       proof / counterexample JSON)
=====================================  ==================================

Backpressure surfaces here as HTTP: a full admission queue answers
``429`` with a ``Retry-After`` header (the scheduler's own estimate),
malformed requests ``400``, unknown sessions/artifacts ``404``, and an
oversized body ``413`` — the service never buffers unbounded input.
Every error, the standard library's own parse errors included, is a
JSON ``{"error": ...}`` body.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..campaign.journal import JournalTailer
from .protocol import ServiceError, SubmitRequest
from .sessions import SessionManager

__all__ = ["ServiceApp"]

#: Upper bound on request bodies; a submit request is a few KiB.
MAX_BODY_BYTES = 1 << 20
#: Ceiling on one long-poll / SSE attachment; clients re-attach.  Also
#: each connection's socket timeout: a client silent that long mid-read
#: (request line, head or body) loses its connection and its thread.
#: Long-polls wait on the session, not on the socket.
MAX_WAIT_SECONDS = 60.0
#: The listening socket's backlog: a burst of connects past it waits
#: for SYN retransmits, a second or more each.
LISTEN_BACKLOG = 128
_SSE_POLL_SECONDS = 0.15


def _version_payload() -> Dict[str, Any]:
    from .. import __version__
    from ..rewriting.version import registry_fingerprint, registry_version

    return {
        "repro": __version__,
        "registry_version": registry_version(),
        "registry_fingerprint": registry_fingerprint(),
    }


def _wait_seconds(query: Dict[str, str], default: float) -> float:
    """The ``wait`` query parameter, capped at :data:`MAX_WAIT_SECONDS`."""
    raw = query.get("wait")
    if raw is None:
        return default
    try:
        wait = float(raw)
    except ValueError:
        wait = math.nan
    if not 0 <= wait < math.inf:
        raise ServiceError(
            400, f"wait must be a finite number of seconds >= 0, got {raw!r}"
        )
    return min(wait, MAX_WAIT_SECONDS)


class ServiceApp(ThreadingHTTPServer):
    """Binds a :class:`~repro.service.sessions.SessionManager` to HTTP.

    Construction binds the socket and starts the manager's scheduler;
    :meth:`serve_forever` serves, and :meth:`server_close` closes the
    socket and stops the manager.
    """

    request_queue_size = LISTEN_BACKLOG

    def __init__(self, manager: SessionManager, host: str, port: int) -> None:
        self.manager = manager
        if ":" in host:  # an IPv6 address
            self.address_family = socket.AF_INET6
        super().__init__((host, port), _Handler)
        manager.start()

    def server_bind(self) -> None:
        # HTTPServer's own server_bind also reverse-resolves the host
        # name, which only CGI reads.
        socketserver.TCPServer.server_bind(self)

    def server_close(self) -> None:
        super().server_close()
        self.manager.stop()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceApp
    protocol_version = "HTTP/1.1"
    # Answer a request line without a version with a status line and
    # headers, as every other request.
    default_request_version = "HTTP/1.0"
    # A read that times out closes the connection (the standard
    # library's handle_one_request catches the TimeoutError).
    timeout = MAX_WAIT_SECONDS
    #: set once a status line is written; an error after it just ends
    #: the response (an event stream) instead of writing a second one.
    _head_sent = False

    def __getattr__(self, name: str) -> Any:
        # Every method reaches the router, which answers 404/405 itself.
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up: nobody is left to answer

    def _handle(self) -> None:
        manager = self.server.manager
        try:
            body = self._read_body()
            manager.metrics.inc("service.requests")
            self._route(body)
        except ServiceError as exc:
            self.send_error(exc.status, str(exc), retry_after=exc.retry_after)
        except (ConnectionError, TimeoutError):
            raise  # the client hung up or went silent; nobody to answer
        except Exception as exc:  # never leak a traceback as a hang
            manager.metrics.inc("service.errors")
            self.send_error(500, f"{type(exc).__name__}: {exc}")

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ServiceError(400, "bad Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ServiceError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    # -- routing --------------------------------------------------------

    def _route(self, body: bytes) -> None:
        method = self.command.upper()
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        query = {
            name: values[-1]
            for name, values in parse_qs(url.query).items()
        }
        segments = [seg for seg in path.split("/") if seg]
        manager = self.server.manager
        if path == "/healthz" and method == "GET":
            self._send_json(200, {"ok": True})
        elif path == "/version" and method == "GET":
            self._send_json(200, _version_payload())
        elif path == "/metrics" and method == "GET":
            self._send_json(200, manager.stats())
        elif path == "/v1/sessions" and method == "POST":
            self._submit(body)
        elif len(segments) == 3 and segments[:2] == ["v1", "sessions"]:
            _require(method, "GET")
            self._status(segments[2], query)
        elif len(segments) == 4 and segments[:2] == ["v1", "sessions"] \
                and segments[3] == "result":
            _require(method, "GET")
            session = manager.get(segments[2])
            self._send_json(200, session.result_dict(manager.store))
        elif len(segments) == 4 and segments[:2] == ["v1", "sessions"] \
                and segments[3] == "events":
            _require(method, "GET")
            self._events(segments[2], query)
        elif len(segments) == 3 and segments[:2] == ["v1", "artifacts"]:
            _require(method, "GET")
            self._artifact(segments[2])
        else:
            raise ServiceError(404, f"no route for {method} {path}")

    # -- handlers -------------------------------------------------------

    def _submit(self, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except ValueError:
            raise ServiceError(400, "body is not valid JSON")
        request = SubmitRequest.parse(payload)
        session = self.server.manager.submit(request)
        self._send_json(200, {
            **session.status_dict(),
            # An all-cache-hit request is already complete: say so, so
            # clients skip the status polling round-trip entirely.
            "complete": session.done(),
        })

    def _status(self, session_id: str, query: Dict[str, str]) -> None:
        wait = _wait_seconds(query, 0.0)
        try:
            version = int(query.get("version", -1))
        except ValueError:
            raise ServiceError(400, "version must be an integer")
        manager = self.server.manager
        if wait > 0:
            session = manager.wait_for_change(session_id, version, wait)
        else:
            session = manager.get(session_id)
        self._send_json(200, session.status_dict())

    def _events(self, session_id: str, query: Dict[str, str]) -> None:
        """SSE: stream the session's journal records as they land."""
        session = self.server.manager.get(session_id)
        budget = _wait_seconds(query, MAX_WAIT_SECONDS)
        self._send_head(200, {
            "Content-Type": "text/event-stream",
            "Cache-Control": "no-store",
        })
        tailer = JournalTailer(session.journal_path)
        # Attachment is bounded by ``budget``: ticks drain pending
        # journal records; the stream ends early once the session is
        # terminal and the journal is drained.  Clients re-attach with a
        # fresh request (their tailer restarts from the top — records
        # are idempotent, keyed by job/attempt).
        ticks = max(1, int(budget / _SSE_POLL_SECONDS))
        for _tick in range(ticks):
            records = tailer.poll()
            if session.done():
                # One final drain so records between the last poll and
                # the terminal transition are not lost.
                self._send_records(records + tailer.poll())
                break
            self._send_records(records)
            time.sleep(_SSE_POLL_SECONDS)
        payload = json.dumps(
            {"state": session.state, "version": session.version},
            sort_keys=True,
        )
        self.wfile.write(f"event: state\ndata: {payload}\n\n".encode("utf-8"))

    def _send_records(self, records: List[Dict[str, Any]]) -> None:
        if records:
            self.wfile.write("".join(
                f"data: {json.dumps(record, sort_keys=True)}\n\n"
                for record in records
            ).encode("utf-8"))

    def _artifact(self, digest: str) -> None:
        store = self.server.manager.store
        try:
            data = store.get(digest)
        except ValueError:
            raise ServiceError(400, f"malformed artifact digest {digest!r}")
        if data is None:
            raise ServiceError(404, f"no artifact {digest!r}")
        self.server.manager.metrics.inc("service.artifacts_served")
        self._send(200, data, store.media_type(digest))

    # -- responses ------------------------------------------------------

    def _send_head(self, status: int, headers: Dict[str, str]) -> None:
        self._head_sent = True
        self.send_response_only(status)
        for name, value in {**headers, "Connection": "close"}.items():
            self.send_header(name, value)
        self.end_headers()

    def _send(
        self, status: int, body: bytes, media_type: str,
        retry_after: Optional[float] = None,
    ) -> None:
        headers = {"Content-Type": media_type,
                   "Content-Length": str(len(body))}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(round(retry_after))))
        self._send_head(status, headers)
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: Any, retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", retry_after)

    def send_error(
        self, code: int, message: Optional[str] = None,
        explain: Optional[str] = None, retry_after: Optional[float] = None,
    ) -> None:
        """Every error, the standard library's parse errors included, as
        a JSON ``{"error": ...}`` body."""
        if self._head_sent:
            return
        message = message or self.responses[code][0]
        if explain is not None:
            message = f"{message}: {explain}"
        self._send_json(code, {"error": message}, retry_after)


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise ServiceError(405, f"use {expected}")
