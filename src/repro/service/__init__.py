"""Verification-as-a-service: the job server.

``python -m repro serve`` wraps the campaign substrate (crash-safe
journal, retry/escalation runner, supervision budgets, witness
certification) in a long-lived HTTP/JSON service, one thread per
connection (:mod:`repro.service.app`):

* **submit** — ``POST /v1/sessions`` accepts a verification request
  (explicit configs or a grid, plus method/criterion/bug/certify
  options), dedupes every job against the content-addressed result
  cache (:mod:`repro.service.cache`, keyed by
  :func:`repro.core.keys.canonical_key`), and runs the misses on the
  campaign runner under guard budgets;
* **status** — ``GET /v1/sessions/{id}`` (optionally long-polling) and
  ``GET /v1/sessions/{id}/events`` (Server-Sent Events derived from the
  session journal via :class:`repro.campaign.journal.JournalTailer`);
* **result** — ``GET /v1/sessions/{id}/result`` with verdicts, metrics
  snapshots and witness digests;
* **artifact** — ``GET /v1/artifacts/{digest}`` serving DRUP proofs and
  counterexample witnesses from the persistent content-addressed store
  (:mod:`repro.service.store`).

Backpressure is explicit: a bounded admission queue answers ``429`` with
``Retry-After`` when full, and a concurrency limit bounds running
sessions.  The server survives ``SIGKILL``: every
session's request document and journal are durable, so a restarted
server re-attaches unfinished sessions and resumes their in-flight jobs
from the journal instead of rerunning finished ones.
"""

from .cache import CacheEntry, ResultCache
from .sessions import Session, SessionManager
from .store import ArtifactStore
from .protocol import ServiceError, SubmitRequest, job_options

__all__ = [
    "ArtifactStore",
    "CacheEntry",
    "ResultCache",
    "ServiceError",
    "Session",
    "SessionManager",
    "SubmitRequest",
    "job_options",
]
