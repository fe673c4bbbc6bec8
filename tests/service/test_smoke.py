"""End-to-end service smoke: a real ``python -m repro serve`` process.

Scenario (this is also what the CI service-smoke job runs):

1. start the server on an OS-assigned port;
2. three concurrent clients submit, one of them a duplicated
   configuration — exactly one content-addressed cache hit must be
   served, with correct verdicts everywhere;
3. a longer campaign is submitted and the server is ``kill -9``-ed
   mid-run;
4. a restarted server on the same data directory re-attaches the
   interrupted session from its journal and completes it;
5. SIGTERM stops the restarted server cleanly: exit 0 within 5 s.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def api(port, method, path, payload=None, timeout=30.0):
    """One JSON round-trip against the local server."""
    body = None
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


class Server:
    """A real `python -m repro serve` subprocess bound to a free port."""

    def __init__(self, data_dir, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--data-dir", str(data_dir), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        self.port = None
        self.killed = False
        self.lines = []
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip())
            if line.startswith("ready http://"):
                self.port = int(line.rstrip().rsplit(":", 1)[1])
                break
        if self.port is None:
            self.kill()
            raise AssertionError(
                "server never became ready:\n" + "\n".join(self.lines)
            )
        # Keep draining stdout so the pipe can never fill up and stall
        # the server on a blocked write.
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _drain(self):
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())

    def kill(self):
        """SIGKILL — the crash the journal + cache must survive."""
        self.killed = True
        try:
            self.proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30.0)

    def terminate(self):
        """SIGTERM must stop a live server cleanly: exit 0 within 5 s."""
        if self.killed:
            return
        self.proc.terminate()
        try:
            status = self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise AssertionError("server still running 5 s after SIGTERM")
        assert status == 0, "\n".join(self.lines)


def poll_until_done(port, session_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    version = -1
    while time.monotonic() < deadline:
        status, payload = api(
            port, "GET",
            f"/v1/sessions/{session_id}?wait=2&version={version}",
        )
        assert status == 200, payload
        version = payload["version"]
        if payload["state"] in ("completed", "failed"):
            return payload
    raise AssertionError(f"session {session_id} never finished")


def test_service_smoke_concurrent_clients_and_kill9_resume(tmp_path):
    data_dir = tmp_path / "service-data"
    server = Server(data_dir)
    try:
        port = server.port

        # -- phase 1: three clients, one duplicated configuration ------
        outcomes = {}

        def client(name, payload):
            status, submitted = api(port, "POST", "/v1/sessions", payload)
            assert status == 200, submitted
            final = poll_until_done(port, submitted["session"])
            _status, result = api(
                port, "GET", f"/v1/sessions/{submitted['session']}/result"
            )
            outcomes[name] = (submitted, final, result)

        first = threading.Thread(
            target=client,
            args=("one", {"grid": "2x1,3x1", "client": "one"}),
        )
        third = threading.Thread(
            target=client, args=("three", {"grid": "4x1", "client": "three"})
        )
        first.start()
        third.start()
        first.join(120.0)
        third.join(120.0)
        assert set(outcomes) == {"one", "three"}
        # Client two duplicates a configuration client one already
        # proved: it must be answered entirely from the cache.
        client("two", {"grid": "2x1", "client": "two"})

        for name, (_submitted, final, result) in outcomes.items():
            assert final["state"] == "completed", (name, final)
            assert {r["status"] for r in result["results"].values()} == \
                {"PROVED"}, name
        submitted_two = outcomes["two"][0]
        assert submitted_two["complete"] is True
        assert [job["state"]
                for job in submitted_two["job_states"].values()] == \
            ["cached"]

        _status, metrics = api(port, "GET", "/metrics")
        counters = metrics["metrics"]
        assert counters.get("service.cache.hits", 0) == 1
        assert counters.get("service.cache.stored", 0) == 3

        # -- phase 2: kill -9 mid-campaign, restart, resume ------------
        grid = ",".join(
            f"{n_rob}x{width}"
            for n_rob in (5, 6, 7, 8, 9, 10, 11, 12)
            for width in (1, 2)
        )
        status, submitted = api(
            port, "POST", "/v1/sessions",
            {"grid": grid, "client": "kill9"},
        )
        assert status == 200, submitted
        session_id = submitted["session"]
        total = submitted["jobs"]["total"]
        assert total == 16

        # Wait for a mid-run state: some jobs done, some not.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _status, payload = api(
                port, "GET", f"/v1/sessions/{session_id}"
            )
            done = payload["jobs"].get("done", 0)
            if payload["state"] in ("completed", "failed") or done >= 1:
                break
            time.sleep(0.02)
        server.kill()

        journal = data_dir / "sessions" / session_id / "journal.jsonl"
        assert journal.exists()

        # -- restart on the same data dir ------------------------------
        server2 = Server(data_dir)
        try:
            final = poll_until_done(server2.port, session_id)
            assert final["state"] == "completed"
            assert final["jobs"].get("done", 0) + \
                final["jobs"].get("cached", 0) == total
            _status, result = api(
                server2.port, "GET", f"/v1/sessions/{session_id}/result"
            )
            assert len(result["results"]) == total
            assert {r["status"] for r in result["results"].values()} == \
                {"PROVED"}
            # Phase-1 sessions are still queryable after the crash.
            for name, (submitted_before, _final, _result) in \
                    outcomes.items():
                _status, revived = api(
                    server2.port, "GET",
                    f"/v1/sessions/{submitted_before['session']}",
                )
                assert revived["state"] == "completed", name
        finally:
            server2.terminate()
    finally:
        server.terminate()
