"""Session model and scheduler of the verification service.

A *session* is one accepted submit request: a batch of verification
jobs, each first deduped against the content-addressed result cache and
then — for the misses — run on the campaign runner against the
session's own crash-safe journal.  The session directory

::

    <data_dir>/sessions/<session_id>/
        request.json     # the validated request, written before accept
        journal.jsonl    # the campaign journal of the cache-miss jobs

is the durable truth: everything the server holds in memory is derived
from it plus the cache, which is what makes SIGKILL survivable.  On
startup :meth:`SessionManager.reattach` scans the directory, replays
each journal, and re-queues sessions with unfinished jobs — in-flight
jobs resume under the journal's usual semantics (finished jobs are never
re-run; the attempt that was in flight re-runs at the same escalated
budget) instead of starting over.

Scheduling and backpressure are explicit and bounded:

* a bounded **admission queue** (``queue_limit``) — when full, submits
  are refused with HTTP 429 and a ``Retry-After`` hint rather than
  accepted into an unbounded backlog;
* a **running-session limit** (``max_running`` scheduler threads), and a
  per-session worker count (``session_workers``) bounding each
  campaign's process fan-out — together the service's concurrency
  ceiling.

Every admitted job that misses the cache runs: an ``INCONCLUSIVE``
outcome is never cached, so the next request for it runs it again.

The manager is plain threads + locks: the HTTP layer
(:mod:`repro.service.app`) calls into it from each connection's own
thread, and unit tests drive it directly.
"""

from __future__ import annotations

import json
import os
import queue
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..campaign.journal import Journal
from ..campaign.jobs import Job, JobResult
from ..errors import CampaignError
from ..campaign.runner import CampaignRunner, RetryPolicy
from ..core.keys import canonical_key, config_dict
from ..obs.metrics import MetricsRegistry
from .cache import CacheEntry, ResultCache
from .protocol import ServiceError, SubmitRequest, job_options
from .store import ArtifactStore, ArtifactStoringVerify, write_durably

__all__ = ["JobView", "Session", "SessionManager"]

#: Session lifecycle: ``queued`` (admitted, waiting for a scheduler
#: slot) → ``running`` (campaign in progress) → ``completed``; or
#: ``failed`` when the campaign machinery itself errored (not a job
#: verdict — BUG_FOUND sessions still complete).
SESSION_STATES = ("queued", "running", "completed", "failed")


@dataclass
class JobView:
    """One job's place in a session, as the API reports it."""

    job: Job
    cache_key: str
    #: ``cached`` | ``deduped`` | ``pending`` | ``running`` | ``done``
    state: str
    result: Optional[Dict[str, Any]] = None
    #: served from the result cache without running anything.
    cached: bool = False
    #: job id of the same-key sibling in this request this one follows.
    duplicate_of: Optional[str] = None

    def status_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "state": self.state,
            "cache_key": self.cache_key,
            "cached": self.cached,
        }
        if self.result is not None:
            out["status"] = self.result.get("status")
        if self.duplicate_of:
            out["duplicate_of"] = self.duplicate_of
        return out


@dataclass
class Session:
    """In-memory view of one accepted request; durable truth is on disk."""

    session_id: str
    request: SubmitRequest
    directory: str
    state: str = "queued"
    created: float = field(default_factory=time.time)
    jobs: Dict[str, JobView] = field(default_factory=dict)
    error: str = ""
    #: bumped on every observable change; long-pollers wait on it.
    version: int = 0

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {"total": len(self.jobs)}
        for view in self.jobs.values():
            tally[view.state] = tally.get(view.state, 0) + 1
        return tally

    def status_dict(self) -> Dict[str, Any]:
        return {
            "session": self.session_id,
            "state": self.state,
            "version": self.version,
            "created": self.created,
            "client": self.request.client,
            "error": self.error,
            "jobs": self.counts(),
            "job_states": {
                job_id: view.status_dict()
                for job_id, view in self.jobs.items()
            },
        }

    def result_dict(self, store: ArtifactStore) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        for job_id, view in self.jobs.items():
            if view.result is None:
                continue
            entry = dict(view.result)
            entry["cached"] = view.cached
            entry["cache_key"] = view.cache_key
            witness = entry.get("witness") or {}
            digest = witness.get("digest")
            entry["artifacts"] = (
                [digest] if digest and store.has(digest) else []
            )
            results[job_id] = entry
        return {
            "session": self.session_id,
            "state": self.state,
            "error": self.error,
            "results": results,
        }

    def done(self) -> bool:
        return self.state in ("completed", "failed")


class SessionManager:
    """Owns the cache, the artifact store, and the session scheduler.

    Args:
        data_dir: service state root (``cache/``, ``artifacts/``,
            ``sessions/`` live under it).
        queue_limit: max sessions admitted but not yet finished running;
            beyond it, :meth:`submit` raises a 429 :class:`ServiceError`.
        max_running: scheduler threads = sessions running concurrently.
        session_workers: ``workers`` for each session's campaign runner
            (1 = in-process; >1 fans out to a multiprocessing pool).
        retry: the campaign retry policy shared by every session
            (request budgets ride on the jobs themselves).
        verify_fn: test seam; defaults to the artifact-storing wrapper
            around :func:`repro.core.verify`.
    """

    def __init__(
        self,
        data_dir: str,
        queue_limit: int = 16,
        max_running: int = 1,
        session_workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        verify_fn: Optional[Callable] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(500, "queue_limit must be at least 1")
        if max_running < 1:
            raise ServiceError(500, "max_running must be at least 1")
        if session_workers < 1:
            raise ServiceError(500, "session_workers must be at least 1")
        self.data_dir = os.fspath(data_dir)
        self.sessions_dir = os.path.join(self.data_dir, "sessions")
        os.makedirs(self.sessions_dir, exist_ok=True)
        self.cache = ResultCache(os.path.join(self.data_dir, "cache"))
        self.store = ArtifactStore(os.path.join(self.data_dir, "artifacts"))
        self.queue_limit = queue_limit
        self.max_running = max_running
        self.session_workers = session_workers
        self.retry = retry or RetryPolicy()
        self.verify_fn = verify_fn or ArtifactStoringVerify(self.store.root)
        self._log = log or (lambda message: None)
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.sessions: Dict[str, Session] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pending = 0          # admitted, not yet finished running
        self._stopping = False
        self._threads: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spin up the scheduler threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.max_running):
            thread = threading.Thread(
                target=self._scheduler_loop,
                name=f"repro-session-runner-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the scheduler threads."""
        with self._lock:
            self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []

    # -- submission -----------------------------------------------------

    def submit(self, request: SubmitRequest) -> Session:
        """Admit one request; returns the (possibly already-complete)
        session.  Raises a 429 :class:`ServiceError` on backpressure."""
        self.metrics.inc("service.submits")
        session_id = secrets.token_hex(8)
        directory = os.path.join(self.sessions_dir, session_id)
        session = Session(
            session_id=session_id, request=request, directory=directory
        )
        self._build_job_views(session)
        to_run = [
            view.job for view in session.jobs.values()
            if view.state == "pending"
        ]
        with self._lock:
            if self._stopping:
                raise ServiceError(503, "server is shutting down")
            if to_run and self._pending >= self.queue_limit:
                self.metrics.inc("service.rejected_429")
                raise ServiceError(
                    429,
                    f"admission queue is full "
                    f"({self._pending}/{self.queue_limit} sessions pending); "
                    "retry later",
                    retry_after=1.0 + self._pending,
                )
            if to_run:
                self._pending += 1
        # Durable before acknowledged: the request document is what a
        # restarted server re-attaches from.
        try:
            document = {"session_id": session_id,
                        "created": session.created, **request.to_dict()}
            write_durably(
                os.path.join(directory, "request.json"),
                json.dumps(document, sort_keys=True, indent=1).encode("utf-8"),
            )
        except BaseException:
            if to_run:
                with self._lock:
                    self._pending -= 1
            raise
        with self._lock:
            self.sessions[session_id] = session
            if not to_run:
                session.state = "completed"
            session.version += 1
            self._changed.notify_all()
        self.metrics.inc("service.sessions")
        self.metrics.inc("service.jobs", float(len(session.jobs)))
        if to_run:
            self._queue.put(session_id)
            self._log(
                f"session {session_id}: admitted with {len(to_run)} "
                f"job(s) to run, {len(session.jobs) - len(to_run)} served "
                "from cache"
            )
        else:
            self._log(
                f"session {session_id}: fully served from cache "
                f"({len(session.jobs)} job(s))"
            )
        return session

    def _build_job_views(self, session: Session) -> None:
        """Key, dedupe and cache-check every job."""
        request = session.request
        by_key: Dict[str, str] = {}
        for job in request.jobs:
            key = canonical_key(
                job.config(),
                job_options(job, request.certify, request.analyze),
            )
            view = JobView(job=job, cache_key=key, state="pending")
            if key in by_key:
                # Same content key as an earlier job in this request:
                # one run (or one cache hit) serves both.
                view.state = "deduped"
                view.duplicate_of = by_key[key]
                session.jobs[job.job_id] = view
                continue
            by_key[key] = job.job_id
            entry = self.cache.get(key)
            if entry is not None:
                view.state = "cached"
                view.cached = True
                view.result = entry.result
                self.metrics.inc("service.cache.hits")
            else:
                self.metrics.inc("service.cache.misses")
            session.jobs[job.job_id] = view
        # Resolve deduped views against their representative.
        self._propagate_duplicates(session)

    def _propagate_duplicates(self, session: Session) -> None:
        for view in session.jobs.values():
            if view.duplicate_of:
                source = session.jobs[view.duplicate_of]
                if source.result is not None:
                    view.result = dict(
                        source.result, job_id=view.job.job_id
                    )
                    view.cached = source.cached
                    view.state = "done" if source.state in (
                        "done", "cached"
                    ) else view.state

    # -- re-attach ------------------------------------------------------

    def reattach(self) -> List[str]:
        """Recover sessions from disk after a restart (even SIGKILL).

        Completed sessions come back queryable; sessions with unfinished
        jobs are re-queued and their campaigns resume from the journal.
        Returns the re-queued session ids.
        """
        requeued: List[str] = []
        try:
            entries = sorted(os.listdir(self.sessions_dir))
        except FileNotFoundError:
            return requeued
        for session_id in entries:
            directory = os.path.join(self.sessions_dir, session_id)
            request_path = os.path.join(directory, "request.json")
            if session_id in self.sessions or not os.path.isfile(
                request_path
            ):
                continue
            try:
                with open(request_path, encoding="utf-8") as handle:
                    data = json.load(handle)
                request = SubmitRequest.from_dict(data)
            except (ValueError, KeyError, CampaignError) as exc:
                self._log(
                    f"session {session_id}: unreadable request.json "
                    f"({exc}); skipped"
                )
                continue
            session = Session(
                session_id=session_id,
                request=request,
                directory=directory,
                created=float(data.get("created", time.time())),
            )
            self._build_job_views(session)
            # Fold in results the journal already has (they beat a
            # fresh cache lookup: same verdicts, plus INCONCLUSIVE
            # outcomes the cache refuses to hold).
            replay = Journal.load(session.journal_path)
            finished = replay.finished()
            for view in session.jobs.values():
                record = finished.get(view.job.job_id)
                if record is not None and view.state in ("pending", "cached"):
                    view.state = "done"
                    view.cached = False
                    view.result = {
                        name: value for name, value in record.items()
                        if name != "event"
                    }
            self._propagate_duplicates(session)
            unfinished = [
                view.job for view in session.jobs.values()
                if view.state == "pending"
            ]
            with self._lock:
                self.sessions[session_id] = session
                if unfinished:
                    session.state = "queued"
                    self._pending += 1
                else:
                    session.state = "completed"
                session.version += 1
                self._changed.notify_all()
            if unfinished:
                self._queue.put(session_id)
                requeued.append(session_id)
                self._log(
                    f"session {session_id}: re-attached with "
                    f"{len(unfinished)} unfinished job(s); resuming"
                )
        if requeued:
            self.metrics.inc("service.reattached", float(len(requeued)))
        return requeued

    # -- scheduler ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            session_id = self._queue.get()
            if session_id is None:  # shutdown sentinel
                return
            with self._lock:
                session = self.sessions.get(session_id)
            if session is None:
                continue
            try:
                self._run_session(session)
            except Exception as exc:  # campaign machinery failure
                with self._changed:
                    session.state = "failed"
                    session.error = f"{type(exc).__name__}: {exc}"
                    session.version += 1
                    self._changed.notify_all()
                self._log(f"session {session_id}: FAILED — {session.error}")
            finally:
                with self._lock:
                    self._pending -= 1

    def _run_session(self, session: Session) -> None:
        to_run = [
            view.job for view in session.jobs.values()
            if view.state == "pending"
        ]
        with self._changed:
            session.state = "running"
            session.version += 1
            self._changed.notify_all()
        if not to_run:
            with self._changed:
                session.state = "completed"
                session.version += 1
                self._changed.notify_all()
            return
        request = session.request
        runner = CampaignRunner(
            session.journal_path,
            retry=self.retry,
            verify_fn=self.verify_fn,
            on_result=lambda job, result: self._job_finished(
                session, job, result
            ),
            log=self._log,
            analyze=request.analyze,
            certify=request.certify,
            workers=self.session_workers,
        )
        report = runner.run(to_run)
        self.metrics.merge({
            f"service.campaign.{name}": value
            for name, value in report.metrics.items()
        })
        with self._changed:
            session.state = "completed"
            self._propagate_duplicates(session)
            session.version += 1
            self._changed.notify_all()
        self._log(
            f"session {session.session_id}: completed "
            f"({', '.join(f'{v} {k}' for k, v in report.counts().items())})"
        )

    def _job_finished(
        self, session: Session, job: Job, result: JobResult
    ) -> None:
        """Terminal-result hook: update the views and the cache."""
        record = result.to_dict()
        view = session.jobs.get(job.job_id)
        with self._changed:
            if view is not None:
                view.state = "done"
                view.result = record
            session.version += 1
            self._changed.notify_all()
        if view is not None:
            artifacts = []
            witness = record.get("witness") or {}
            if witness.get("digest") and self.store.has(witness["digest"]):
                artifacts.append(witness["digest"])
            request = session.request
            stored = self.cache.put(CacheEntry(
                key=view.cache_key,
                result=record,
                config=config_dict(job.config()),
                options=job_options(job, request.certify, request.analyze),
                registry_version=_registry_version(),
                repro_version=_repro_version(),
                artifacts=artifacts,
            ))
            if stored:
                self.metrics.inc("service.cache.stored")

    # -- queries --------------------------------------------------------

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError(404, f"no session {session_id!r}")
        return session

    def wait_for_change(
        self, session_id: str, known_version: int, timeout: float
    ) -> Session:
        """Block until the session's version passes ``known_version`` or
        the timeout elapses (the long-poll primitive)."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._changed:
            while True:
                session = self.sessions.get(session_id)
                if session is None:
                    raise ServiceError(404, f"no session {session_id!r}")
                remaining = deadline - time.monotonic()
                if session.version > known_version or remaining <= 0 \
                        or session.done():
                    return session
                self._changed.wait(min(remaining, 1.0))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for session in self.sessions.values():
                states[session.state] = states.get(session.state, 0) + 1
            pending = self._pending
        return {
            "sessions": states,
            "pending": pending,
            "queue_limit": self.queue_limit,
            "max_running": self.max_running,
            "cache_entries": len(self.cache),
            "artifacts": len(self.store),
            "metrics": self.metrics.values(),
        }


def _repro_version() -> str:
    from .. import __version__

    return __version__


def _registry_version() -> str:
    from ..rewriting.version import registry_version

    return registry_version()
