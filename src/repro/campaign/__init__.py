"""Crash-safe verification campaigns.

The paper's experimental sections (Tables 1–5, the scaling study up to
N=1,500, the buggy 72nd-slice hunt) are *campaigns*: batches of
``(config, method, bug)`` verification jobs in which individual runs can
blow their SAT budget — the paper's Positive-Equality baseline dies at
N=16 — while the campaign as a whole must still produce a complete,
trustworthy table.  This package supplies the surrounding experiment
infrastructure the paper assumes but never ships:

* :class:`~repro.campaign.jobs.Job` — a serializable verification job;
* :class:`~repro.campaign.journal.Journal` — an append-only,
  checksummed JSONL journal that survives crashes and torn writes;
* :class:`~repro.campaign.runner.CampaignRunner` — schedules every
  attempt of every job in one loop: per-attempt budgets, retry with
  exponential budget escalation, journal resume, and a structured
  ``INCONCLUSIVE`` outcome when a job's method runs out of attempts;
  it is the journal's single writer;
* :mod:`~repro.campaign.executor` — one attempt
  (:func:`~repro.campaign.executor.run_attempt`), run the same way
  in-process and in a worker;
* :mod:`~repro.campaign.parallel` — the worker pool behind
  ``CampaignRunner(..., workers=N)``: each worker runs exactly the
  attempt it is handed and reports how it ended;
* :mod:`~repro.campaign.faults` — a deterministic fault-injection
  harness so the recovery paths are themselves testable.

Command-line entry point: ``python -m repro campaign`` (see
:mod:`repro.campaign.cli`).
"""

from .faults import Fault, FaultKind, FaultPlan, InjectedCrash
from .jobs import TERMINAL_STATES, Job, JobResult
from .journal import Journal, JournalReplay
from .runner import CampaignReport, CampaignRunner, RetryPolicy

__all__ = [
    "TERMINAL_STATES",
    "Job",
    "JobResult",
    "Journal",
    "JournalReplay",
    "CampaignReport",
    "CampaignRunner",
    "RetryPolicy",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "InjectedCrash",
]
