"""Session-manager tests: cache semantics, dedupe, backpressure and
crash re-attach (repro.service.sessions)."""

import threading
import time

import pytest

from repro.campaign import Journal, RetryPolicy
from repro.campaign.jobs import JobResult
from repro.core.results import VerificationResult
from repro.errors import BudgetExhausted
from repro.service.protocol import ServiceError, SubmitRequest
from repro.service.sessions import SessionManager


class CountingVerify:
    """A fast verify() stand-in that tallies every real solve."""

    def __init__(self, exc=None, block=None):
        self.calls = []
        self.exc = exc
        self.block = block  # threading.Event gating every call

    def __call__(self, config, **kwargs):
        if self.block is not None:
            assert self.block.wait(30.0), "test gate never opened"
        self.calls.append((config.n_rob, config.issue_width,
                           kwargs.get("method")))
        if self.exc is not None:
            raise self.exc
        return VerificationResult(
            config=config, method=kwargs.get("method", "rewriting"),
            bug=None, correct=True, timings={"total": 0.0},
        )


def make_manager(tmp_path, verify, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    return SessionManager(str(tmp_path / "data"), verify_fn=verify,
                          **kwargs)


def wait_done(manager, session, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        session = manager.wait_for_change(
            session.session_id, session.version, 0.5
        )
        if session.done():
            return session
    raise AssertionError(f"session never finished: {session.status_dict()}")


class TestRunAndComplete:
    def test_submit_runs_jobs_to_completion(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            session = manager.submit(SubmitRequest.parse(
                {"grid": "2x1,3x1"}
            ))
            session = wait_done(manager, session)
            assert session.state == "completed"
            results = session.result_dict(manager.store)["results"]
            assert {r["status"] for r in results.values()} == {"PROVED"}
            assert sorted(verify.calls) == [(2, 1, "rewriting"),
                                            (3, 1, "rewriting")]
        finally:
            manager.stop()

    def test_machinery_failure_marks_the_session_failed(self, tmp_path):
        import os

        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        # Sabotage the campaign machinery itself (not a job verdict):
        # the journal path is a directory, so the runner cannot open it.
        session = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
        os.makedirs(session.journal_path)
        manager.start()
        try:
            session = wait_done(manager, session)
            assert session.state == "failed"
            assert session.error
            assert verify.calls == []
        finally:
            manager.stop()


class TestSessionWorkers:
    def test_a_one_job_session_runs_on_the_pool(self, tmp_path):
        # With session_workers > 1 even a lone job runs on a worker
        # process, where the campaign's hang timeout is enforced.
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify, session_workers=2)
        manager.start()
        try:
            session = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            session = wait_done(manager, session)
            assert session.state == "completed"
            finish = list(Journal.load(session.journal_path).events("finish"))
            assert [(r["status"], r["worker"]) for r in finish] == [
                ("PROVED", 0)
            ]
            assert verify.calls == []  # the solve ran in the worker
        finally:
            manager.stop()


class TestCacheSemantics:
    def test_hit_serves_without_resolving(self, tmp_path):
        """The satellite contract: a cache hit must not re-solve — no
        verify() call, no campaign run, every sat.* counter untouched."""
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            request = {"grid": "2x1,3x1"}
            first = manager.submit(SubmitRequest.parse(request))
            first = wait_done(manager, first)
            assert len(verify.calls) == 2
            assert manager.metrics.values()["service.cache.stored"] == 2

            before = dict(manager.metrics.values())
            second = manager.submit(SubmitRequest.parse(request))
            # All-hit sessions complete at admission; no scheduler trip.
            assert second.done() and second.state == "completed"
            assert all(view.cached and view.state == "cached"
                       for view in second.jobs.values())
            assert len(verify.calls) == 2  # nothing re-solved
            after = dict(manager.metrics.values())
            assert after["service.cache.hits"] == \
                before.get("service.cache.hits", 0) + 2
            # No campaign ran, so every solver counter is exactly flat —
            # in particular all sat.* spans stayed zero for the hit.
            for name in set(before) | set(after):
                if name.startswith("service.campaign."):
                    assert after.get(name, 0) == before.get(name, 0), name
            results = second.result_dict(manager.store)["results"]
            assert all(r["cached"] for r in results.values())
        finally:
            manager.stop()

    def test_miss_runs_and_populates(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            assert len(manager.cache) == 0
            session = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            session = wait_done(manager, session)
            assert len(verify.calls) == 1
            assert len(manager.cache) == 1
            (view,) = session.jobs.values()
            entry = manager.cache.get(view.cache_key)
            assert entry.result["status"] == "PROVED"
            assert entry.registry_version
            assert entry.repro_version
        finally:
            manager.stop()

    def test_inconclusive_is_never_cached(self, tmp_path):
        verify = CountingVerify(exc=BudgetExhausted("nope", conflicts=1))
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            session = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            session = wait_done(manager, session)
            (view,) = session.jobs.values()
            assert view.result["status"] == "INCONCLUSIVE"
            assert len(manager.cache) == 0
            # A second submit runs again — exhaustion is not a verdict.
            verify.exc = None
            second = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            second = wait_done(manager, second)
            (view2,) = second.jobs.values()
            assert view2.result["status"] == "PROVED"
            assert not view2.cached
            assert len(manager.cache) == 1
        finally:
            manager.stop()

    def test_cache_survives_a_new_manager(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            session = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            wait_done(manager, session)
        finally:
            manager.stop()
        # A fresh manager over the same data dir: pure disk hit.
        verify2 = CountingVerify()
        manager2 = make_manager(tmp_path, verify2)
        session = manager2.submit(SubmitRequest.parse({"grid": "2x1"}))
        assert session.done()
        assert verify2.calls == []


class TestDedupe:
    def test_duplicate_configs_in_one_request_run_once(self, tmp_path):
        verify = CountingVerify()
        manager = make_manager(tmp_path, verify)
        manager.start()
        try:
            session = manager.submit(SubmitRequest.parse(
                {"grid": "2x1,2x1,2x1"}
            ))
            session = wait_done(manager, session)
            assert len(verify.calls) == 1
            states = sorted(v.state for v in session.jobs.values())
            assert states == ["done", "done", "done"]
            duplicates = [v for v in session.jobs.values()
                          if v.duplicate_of]
            assert len(duplicates) == 2
            results = session.result_dict(manager.store)["results"]
            assert len(results) == 3
            assert {r["status"] for r in results.values()} == {"PROVED"}
            # Each duplicate reports under its own job id.
            for job_id, payload in results.items():
                assert payload["job_id"] == job_id
        finally:
            manager.stop()


class TestBackpressure:
    def test_admission_queue_full_answers_429(self, tmp_path):
        gate = threading.Event()
        verify = CountingVerify(block=gate)
        manager = make_manager(tmp_path, verify, queue_limit=1)
        manager.start()
        try:
            first = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            with pytest.raises(ServiceError) as excinfo:
                manager.submit(SubmitRequest.parse({"grid": "3x1"}))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert manager.metrics.values()["service.rejected_429"] == 1
            gate.set()
            wait_done(manager, first)
            # Capacity freed: the retry is admitted.
            second = manager.submit(SubmitRequest.parse({"grid": "3x1"}))
            wait_done(manager, second)
        finally:
            gate.set()
            manager.stop()

    def test_all_cache_hit_requests_bypass_the_queue(self, tmp_path):
        gate = threading.Event()
        gate.set()
        verify = CountingVerify(block=gate)
        manager = make_manager(tmp_path, verify, queue_limit=1)
        manager.start()
        try:
            warm = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            wait_done(manager, warm)
            gate.clear()
            running = manager.submit(SubmitRequest.parse({"grid": "3x1"}))
            # The queue is full, but a pure cache hit needs no slot.
            hit = manager.submit(SubmitRequest.parse({"grid": "2x1"}))
            assert hit.done()
            gate.set()
            wait_done(manager, running)
        finally:
            gate.set()
            manager.stop()


class TestReattach:
    def test_unstarted_session_is_requeued_and_completes(self, tmp_path):
        # Manager one admits durably but its scheduler never starts —
        # the moral equivalent of SIGKILL right after the 200 response.
        verify1 = CountingVerify()
        manager1 = make_manager(tmp_path, verify1)
        session = manager1.submit(SubmitRequest.parse({"grid": "2x1,3x1"}))
        assert verify1.calls == []

        verify2 = CountingVerify()
        manager2 = make_manager(tmp_path, verify2)
        requeued = manager2.reattach()
        assert requeued == [session.session_id]
        manager2.start()
        try:
            revived = wait_done(manager2, manager2.get(session.session_id))
            assert revived.state == "completed"
            assert sorted(verify2.calls) == [(2, 1, "rewriting"),
                                             (3, 1, "rewriting")]
        finally:
            manager2.stop()

    def test_journal_results_are_kept_and_only_unfinished_jobs_run(
        self, tmp_path
    ):
        verify1 = CountingVerify()
        manager1 = make_manager(tmp_path, verify1)
        session = manager1.submit(SubmitRequest.parse({"grid": "2x1,3x1"}))
        jobs = list(session.request.jobs)
        # Simulate a crash mid-campaign: job one's INCONCLUSIVE finish is
        # already journaled (a verdict the cache refuses to hold — only
        # the journal can resurrect it), job two never started.
        with Journal(session.journal_path) as journal:
            journal.append({"event": "enqueue", "job": jobs[0].to_dict()})
            journal.append({"event": "finish", **JobResult(
                job_id=jobs[0].job_id, status="INCONCLUSIVE",
                method="rewriting", attempts=1,
                detail="BudgetExhausted: budgets spent",
            ).to_dict()})

        verify2 = CountingVerify()
        manager2 = make_manager(tmp_path, verify2)
        assert manager2.reattach() == [session.session_id]
        manager2.start()
        try:
            revived = wait_done(manager2, manager2.get(session.session_id))
            assert revived.state == "completed"
            view_a = revived.jobs[jobs[0].job_id]
            view_b = revived.jobs[jobs[1].job_id]
            assert view_a.result["status"] == "INCONCLUSIVE"
            assert not view_a.cached
            assert view_b.result["status"] == "PROVED"
            # Only the unfinished job was verified again.
            assert verify2.calls == [(3, 1, "rewriting")]
        finally:
            manager2.stop()

    def test_finished_session_reattaches_queryable_not_requeued(
        self, tmp_path
    ):
        verify1 = CountingVerify()
        manager1 = make_manager(tmp_path, verify1)
        manager1.start()
        try:
            session = manager1.submit(SubmitRequest.parse({"grid": "2x1"}))
            wait_done(manager1, session)
        finally:
            manager1.stop()

        manager2 = make_manager(tmp_path, CountingVerify())
        assert manager2.reattach() == []
        revived = manager2.get(session.session_id)
        assert revived.state == "completed"
        results = revived.result_dict(manager2.store)["results"]
        assert {r["status"] for r in results.values()} == {"PROVED"}

    def test_request_document_with_retired_max_seconds_reattaches(
        self, tmp_path
    ):
        # Older builds wrote ``"max_seconds": null`` into every job spec.
        import json
        import os

        manager1 = make_manager(tmp_path, CountingVerify())
        session = manager1.submit(SubmitRequest.parse({"grid": "2x1"}))
        path = os.path.join(session.directory, "request.json")
        with open(path) as handle:
            document = json.load(handle)
        for spec in document["jobs"]:
            spec["max_seconds"] = None
        with open(path, "w") as handle:
            json.dump(document, handle)

        verify2 = CountingVerify()
        manager2 = make_manager(tmp_path, verify2)
        assert manager2.reattach() == [session.session_id]
        manager2.start()
        try:
            revived = wait_done(manager2, manager2.get(session.session_id))
            assert revived.state == "completed"
            assert verify2.calls == [(2, 1, "rewriting")]
        finally:
            manager2.stop()

    def test_unreadable_request_document_is_skipped(self, tmp_path):
        manager1 = make_manager(tmp_path, CountingVerify())
        session = manager1.submit(SubmitRequest.parse({"grid": "2x1"}))
        import os

        with open(os.path.join(session.directory, "request.json"),
                  "w") as handle:
            handle.write("{torn")
        manager2 = make_manager(tmp_path, CountingVerify())
        assert manager2.reattach() == []
        with pytest.raises(ServiceError):
            manager2.get(session.session_id)


class TestValidation:
    def test_bad_limits_are_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            SessionManager(str(tmp_path / "d"), queue_limit=0)
        with pytest.raises(ServiceError):
            SessionManager(str(tmp_path / "d"), max_running=0)
        with pytest.raises(ServiceError):
            SessionManager(str(tmp_path / "d"), session_workers=0)

    def test_unknown_session_is_404(self, tmp_path):
        manager = make_manager(tmp_path, CountingVerify())
        with pytest.raises(ServiceError) as excinfo:
            manager.get("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError):
            manager.wait_for_change("nope", -1, 0.01)
