"""Parallel campaign execution: single-writer journal consistency,
worker-crash recovery, and sequential/parallel equivalence."""

import itertools
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

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
from repro.campaign.parallel import WORKER_CRASH_ERROR, WORKER_HUNG_ERROR
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

    def test_single_job_runs_on_a_worker(self, tmp_path):
        # A lone job still runs on the pool, where the hang timeout is
        # enforced: its result names the worker.
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), verify_fn=fake_verify, workers=4
        ).run([Job.build(2, 1)])
        assert report.counts() == {"PROVED": 1}
        assert next(iter(report.results.values())).worker == 0

    def test_single_job_hang_is_killed_and_retried(self, tmp_path):
        # One job left (a one-job grid, or a resume) with workers=2: the
        # hang of its first attempt is detected, and the retry proves it.
        # The hang is bounded, so a run that never detects it fails in
        # 10 s (BudgetExhausted) instead of hanging the suite.
        path = str(tmp_path / "j.jsonl")
        hang = Fault(FaultKind.HANG, job_id="rw-N2-k1", amount=10.0)
        report = CampaignRunner(
            path, verify_fn=fake_verify, workers=2, hang_timeout=1.0,
            fault_plan=FaultPlan([hang]),
        ).run([Job.build(2, 1)])
        result = report.results["rw-N2-k1"]
        assert (result.status, result.attempts) == ("PROVED", 2)
        hung = [
            e for e in journal_events(path)
            if e["event"] == "attempt_failed"
            and e["error"] == WORKER_HUNG_ERROR
        ]
        assert [e["attempt"] for e in hung] == [1]
        assert report.metrics["campaign.worker_hangs"] == 1


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
        # The job's finish counts the crashed attempt too.
        attempts = {
            e["job_id"]: e["attempts"] for e in journal_events(path)
            if e["event"] == "finish"
        }
        assert attempts == {
            job.job_id: 2 if job.job_id == victim else 1 for job in jobs
        }

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


class TestAttemptCount:
    """A job's ``attempts`` counts its attempts journaled as failed
    before this run, in-process and with workers alike."""

    JOBS = make_jobs([(2, 1), (3, 1)])

    def _journal_failures(self, path, failures, error):
        with Journal(path) as journal:
            for job in self.JOBS:
                journal.append({"event": "enqueue", "job": job.to_dict()})
            for job in self.JOBS:
                for attempt in range(1, failures + 1):
                    journal.append({"event": "start", "job_id": job.job_id,
                                    "attempt": attempt, "method": job.method})
                    journal.append({"event": "attempt_failed",
                                    "job_id": job.job_id, "attempt": attempt,
                                    "method": job.method, "error": error,
                                    "detail": "x"})

    def _finishes(self, path):
        return {
            e["job_id"]: (e["status"], e["attempts"])
            for e in journal_events(path) if e["event"] == "finish"
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_after_a_crashed_attempt_counts_it(self, tmp_path, workers):
        # The records a crashed worker leaves: attempt 1 started and was
        # journaled as failed.  The resumed attempt 2 succeeds.
        path = str(tmp_path / "j.jsonl")
        self._journal_failures(path, 1, WORKER_CRASH_ERROR)
        CampaignRunner(path, verify_fn=fake_verify, workers=workers).run()
        assert self._finishes(path) == {
            job.job_id: ("PROVED", 2) for job in self.JOBS
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_with_the_schedule_used_up(self, tmp_path, workers):
        path = str(tmp_path / "j.jsonl")
        self._journal_failures(path, 3, "BudgetExhausted")
        report = CampaignRunner(
            path, verify_fn=fake_verify, workers=workers,
            retry=RetryPolicy(max_attempts=3),
        ).run()
        assert self._finishes(path) == {
            job.job_id: ("INCONCLUSIVE", 3) for job in self.JOBS
        }
        assert all(
            result.detail == "no attempts left"
            for result in report.results.values()
        )


RECOVERABLE = [FaultKind.SOLVER_TIMEOUT, FaultKind.OOM,
               FaultKind.REWRITE_FAILURE]
PARITY_JOBS = [(2, 1), (2, 2), (3, 1), (3, 2)]
_counter = itertools.count()


def _attempt_trace(path):
    """Per-job (attempt, max_conflicts) start sequences — the escalation
    schedule — and (attempt, method, error) failure sequences — the
    observable fault firings — plus terminal (status, method, attempts,
    detail): an ``INCONCLUSIVE`` job's detail names its last failure."""
    starts = {}
    failures = {}
    outcomes = {}
    for event in journal_events(path):
        if event["event"] == "start":
            starts.setdefault(event["job_id"], []).append(
                (event["attempt"], event["max_conflicts"])
            )
        elif event["event"] == "attempt_failed":
            failures.setdefault(event["job_id"], []).append(
                (event["attempt"], event["method"], event["error"])
            )
        elif event["event"] == "finish":
            outcomes[event["job_id"]] = (
                event["status"], event["method"], event["attempts"],
                event["detail"],
            )
    return starts, failures, outcomes


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
    attempt schedules, fault firings, statuses and ``INCONCLUSIVE``
    details whether run sequentially or with workers.

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

    (seq_starts, seq_failures, seq_outcomes), seq_report = run(workers=1)
    (par_starts, par_failures, par_outcomes), par_report = run(workers=2)

    assert par_starts == seq_starts
    assert par_outcomes == seq_outcomes
    assert par_failures == seq_failures
    assert par_report.counts() == seq_report.counts()
    assert {j: r.status for j, r in par_report.results.items()} == \
           {j: r.status for j, r in seq_report.results.items()}


# ----------------------------------------------------------------------
# A killed campaign leaves no workers behind
# ----------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _stat(pid):
    """``(state, ppid, start time)`` of ``pid`` from ``/proc``, or ``None``
    once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1]), fields[19]


def _children(pid):
    """``{child pid: start time}`` of the processes ``pid`` forked."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] == pid:
                found[int(entry)] = stat[2]
    return found


def _running(processes):
    """The processes of ``{pid: start time}`` still alive and not zombies
    (the start time tells a reused pid apart)."""
    alive = []
    for pid, started in processes.items():
        stat = _stat(pid)
        if stat is not None and stat[0] != "Z" and stat[2] == started:
            alive.append(pid)
    return alive


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_exit_when_the_campaign_is_killed(tmp_path):
    # kill -9 sends the workers no sentinel: each must notice its parent
    # is gone, between tasks or at its next heartbeat (every 3 s at the
    # default --hang-timeout 30), and exit instead of waiting forever.
    journal = tmp_path / "kill.jsonl"
    campaign = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "--journal", str(journal),
         "--grid", "96x4,128x4,128x8,160x4,192x4,192x8", "--workers", "2",
         "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = {}
    try:
        waited = time.monotonic() + 60
        while campaign.poll() is None and time.monotonic() < waited:
            workers = _children(campaign.pid)
            if len(workers) == 2 and journal.exists() \
                    and any(Journal.load(str(journal)).events("start")):
                break
            time.sleep(0.05)
        assert len(workers) == 2 and campaign.poll() is None, \
            "the campaign never ran two workers"
        campaign.kill()
        campaign.wait()
        waited = time.monotonic() + 10
        while _running(workers) and time.monotonic() < waited:
            time.sleep(0.1)
        assert _running(workers) == [], "workers outlived their campaign"
    finally:
        if campaign.poll() is None:
            campaign.kill()
            campaign.wait()
        for pid in _running(workers):
            os.kill(pid, signal.SIGKILL)
