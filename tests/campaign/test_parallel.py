"""Parallel campaign execution: single-writer journal consistency,
worker-crash recovery, and sequential/parallel equivalence."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignRunner,
    Fault,
    FaultKind,
    FaultPlan,
    Job,
    Journal,
    RetryPolicy,
)
from repro.campaign.jobs import TERMINAL_STATES
from repro.campaign.parallel import WORKER_CRASH_ERROR
from repro.core.results import VerificationResult
from repro.errors import CampaignError

from .test_runner import journaled_methods


def fake_verify(config, method="rewriting", bug=None, criterion="disjunction",
                max_conflicts=None):
    """Instant always-proves verify; module-level so workers can pickle it."""
    return VerificationResult(
        config=config, method=method, bug=None, correct=True,
        timings={"total": 0.0},
    )


def journal_events(path):
    """Raw journal records, proving every line parses (no interleaving)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            wrapper = json.loads(line)  # raises on a torn/corrupt line
            assert set(wrapper) == {"crc", "data"}
            events.append(wrapper["data"])
    return events


GRID = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]


def make_jobs(grid=GRID):
    return [Job.build(n, k) for n, k in grid]


class TestParallelBasics:
    def test_parallel_matches_sequential_outcomes(self, tmp_path):
        jobs = make_jobs()
        seq = CampaignRunner(
            str(tmp_path / "seq.jsonl"), verify_fn=fake_verify
        ).run(jobs)
        par = CampaignRunner(
            str(tmp_path / "par.jsonl"), verify_fn=fake_verify, workers=3
        ).run(jobs)
        assert {j: (r.status, r.method, r.attempts)
                for j, r in seq.results.items()} == \
               {j: (r.status, r.method, r.attempts)
                for j, r in par.results.items()}
        assert par.workers == 3
        # Results come back in job-list order regardless of finish order.
        assert list(par.results) == [job.job_id for job in jobs]

    def test_default_verify_runs_in_workers(self, tmp_path):
        # verify_fn=None: each worker imports repro.core.verify itself.
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), workers=2
        ).run(make_jobs([(2, 1), (2, 2), (3, 1)]))
        assert report.counts() == {"PROVED": 3}
        assert all(r.worker is not None for r in report.results.values())

    def test_worker_metrics_are_merged(self, tmp_path):
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), verify_fn=fake_verify, workers=2
        ).run(make_jobs())
        assert report.metrics["campaign.jobs_run"] == len(GRID)
        assert report.metrics["campaign.job_seconds"] > 0.0

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRunner(str(tmp_path / "j.jsonl"), workers=0)

    def test_single_job_runs_in_process(self, tmp_path):
        # One job never pays pool overhead; no worker id is recorded.
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), verify_fn=fake_verify, workers=4
        ).run([Job.build(2, 1)])
        assert report.counts() == {"PROVED": 1}
        assert next(iter(report.results.values())).worker is None


class TestSingleWriterJournal:
    def test_journal_is_consistent_under_workers_and_crashes(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = make_jobs()
        crashed = [jobs[1].job_id, jobs[4].job_id]
        plan = FaultPlan(
            [Fault(FaultKind.CRASH, job_id=job_id, attempt=1)
             for job_id in crashed]
            + [Fault(FaultKind.SOLVER_TIMEOUT, job_id=jobs[2].job_id,
                     attempt=1)]
        )
        report = CampaignRunner(
            path, verify_fn=fake_verify, workers=3, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, escalation=2.0),
        ).run(jobs)

        # Every job recovered to a terminal state.
        assert set(report.results) == {job.job_id for job in jobs}
        for result in report.results.values():
            assert result.status in TERMINAL_STATES
        assert report.counts() == {"PROVED": len(jobs)}
        assert report.metrics["campaign.worker_crashes"] == len(crashed)

        # The journal one writer produced: every line parses, replay is
        # clean even under strict mode, and the event ledger balances.
        events = journal_events(path)
        replay = Journal.load(path, strict=True)
        assert replay.corrupt_lines == 0
        assert not replay.torn_tail
        assert not replay.in_flight()

        by_kind = {}
        for event in events:
            by_kind.setdefault(event["event"], []).append(event)
        assert len(by_kind["enqueue"]) == len(jobs)
        assert len(by_kind["finish"]) == len(jobs)
        failures = by_kind["attempt_failed"]
        assert sorted(
            e["job_id"] for e in failures if e["error"] == WORKER_CRASH_ERROR
        ) == sorted(crashed)
        assert any(e["error"] == "BudgetExhausted" for e in failures)

    def test_crashed_worker_job_is_requeued_and_resumable(self, tmp_path):
        """Acceptance scenario: a worker dies mid-job; the campaign
        journals the crash, retries the job, and a later run replays."""
        path = str(tmp_path / "j.jsonl")
        jobs = make_jobs([(2, 1), (2, 2), (3, 1), (3, 2)])
        victim = jobs[2].job_id
        plan = FaultPlan([Fault(FaultKind.CRASH, job_id=victim, attempt=1)])
        report = CampaignRunner(
            path, verify_fn=fake_verify, workers=2, fault_plan=plan
        ).run(jobs)

        assert report.counts() == {"PROVED": len(jobs)}
        # The victim's first attempt is journaled as a worker crash...
        crash_events = [
            e for e in journal_events(path)
            if e["event"] == "attempt_failed"
            and e["error"] == WORKER_CRASH_ERROR
        ]
        assert [e["job_id"] for e in crash_events] == [victim]
        assert "re-queued" in crash_events[0]["detail"]
        # ...and the escalation schedule advanced past it: the replacement
        # attempt is numbered 2, exactly as a campaign-level resume would.
        starts = [
            e["attempt"] for e in journal_events(path)
            if e["event"] == "start" and e["job_id"] == victim
        ]
        assert starts == [1, 2]

        # A fresh run over the same journal is a pure replay.
        rerun = CampaignRunner(path, verify_fn=fake_verify).run(jobs)
        assert rerun.replayed == len(jobs)

    def test_job_that_always_crashes_goes_inconclusive(self, tmp_path):
        # A crash fault on every attempt: the job must end INCONCLUSIVE
        # after its max_attempts crashes instead of looping forever.
        path = str(tmp_path / "j.jsonl")
        jobs = make_jobs([(2, 1), (2, 2)])
        victim = jobs[0].job_id
        plan = FaultPlan([
            Fault(FaultKind.CRASH, job_id=victim, attempt=attempt)
            for attempt in (1, 2)
        ])
        report = CampaignRunner(
            path, verify_fn=fake_verify, workers=2, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, escalation=2.0),
        ).run(jobs)
        assert report.results[victim].status == "INCONCLUSIVE"
        assert report.results[jobs[1].job_id].status == "PROVED"
        assert report.metrics["campaign.worker_crashes"] == 2
        assert journaled_methods(path) == {"rewriting"}


RECOVERABLE = [FaultKind.SOLVER_TIMEOUT, FaultKind.OOM,
               FaultKind.REWRITE_FAILURE]
PARITY_JOBS = [(2, 1), (2, 2), (3, 1), (3, 2)]
_counter = itertools.count()


def _attempt_trace(path):
    """Per-job (attempt, method, error) failure sequences — the observable
    fault firings — plus terminal (status, method, attempts)."""
    failures = {}
    outcomes = {}
    for event in journal_events(path):
        if event["event"] == "attempt_failed":
            failures.setdefault(event["job_id"], []).append(
                (event["attempt"], event["method"], event["error"])
            )
        elif event["event"] == "finish":
            outcomes[event["job_id"]] = (
                event["status"], event["method"], event["attempts"]
            )
    return failures, outcomes


@settings(max_examples=8, deadline=None)
@given(
    plan_spec=st.dictionaries(
        keys=st.tuples(
            st.integers(0, len(PARITY_JOBS) - 1), st.integers(1, 2)
        ),
        values=st.sampled_from(RECOVERABLE),
        max_size=4,
    )
)
def test_sequential_and_parallel_runs_are_equivalent(
    tmp_path_factory, plan_spec
):
    """Property: the same spec + fault plan produces identical per-job
    statuses and fault firings whether run sequentially or with workers.

    Restricted to recoverable fault kinds: ``crash`` intentionally differs
    in scope (kills the whole sequential campaign but only one worker)."""
    tmp_path = tmp_path_factory.mktemp(f"parity{next(_counter)}")
    jobs = make_jobs(PARITY_JOBS)

    def run(workers):
        path = str(tmp_path / f"w{workers}.jsonl")
        plan = FaultPlan(
            Fault(kind, job_id=jobs[index].job_id, attempt=attempt)
            for (index, attempt), kind in plan_spec.items()
        )
        report = CampaignRunner(
            path,
            verify_fn=fake_verify,
            workers=workers,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, escalation=2.0),
        ).run(jobs)
        return _attempt_trace(path), report

    (seq_failures, seq_outcomes), seq_report = run(workers=1)
    (par_failures, par_outcomes), par_report = run(workers=2)

    assert par_outcomes == seq_outcomes
    assert par_failures == seq_failures
    assert par_report.counts() == seq_report.counts()
    assert {j: r.status for j, r in par_report.results.items()} == \
           {j: r.status for j, r in seq_report.results.items()}
