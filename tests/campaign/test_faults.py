"""Fault-injection harness tests: every injected failure kind must drive
the runner down its corresponding recovery path."""

import pytest

from repro.campaign import (
    CampaignRunner,
    DegradePolicy,
    Fault,
    FaultKind,
    FaultPlan,
    InjectedCrash,
    Job,
    Journal,
    RetryPolicy,
)
from repro.errors import BudgetExhausted, CampaignError, RewriteFailed

from .test_runner import SpyVerify


class TestFaultPlanMechanics:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            Fault("meteor-strike", job_id="a")

    def test_duplicate_fault_rejected(self):
        with pytest.raises(CampaignError):
            FaultPlan([
                Fault(FaultKind.OOM, job_id="a", attempt=1),
                Fault(FaultKind.CRASH, job_id="a", attempt=1),
            ])

    def test_faults_fire_exactly_once(self):
        plan = FaultPlan([Fault(FaultKind.SOLVER_TIMEOUT, job_id="a")])
        with pytest.raises(BudgetExhausted):
            plan.fire("a", 1, "rewriting")
        plan.fire("a", 1, "rewriting")  # second call: nothing happens
        assert plan.fired == 1

    def test_method_restriction(self):
        plan = FaultPlan([
            Fault(FaultKind.SOLVER_TIMEOUT, job_id="a", method="rewriting")
        ])
        plan.fire("a", 1, "positive_equality")  # no-op: wrong method
        with pytest.raises(BudgetExhausted):
            plan.fire("a", 1, "rewriting")

    def test_unplanned_attempts_untouched(self):
        plan = FaultPlan([Fault(FaultKind.OOM, job_id="a", attempt=2)])
        plan.fire("a", 1, "rewriting")
        plan.fire("b", 2, "rewriting")
        assert plan.fired == 0


class TestInjectedRecoveryPaths:
    def test_solver_timeout_retries_then_degrades(self, tmp_path):
        job = Job.build(4, 2)
        plan = FaultPlan([
            Fault(FaultKind.SOLVER_TIMEOUT, job_id=job.job_id, attempt=a,
                  method="rewriting")
            for a in (1, 2)
        ])
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"),
            retry=RetryPolicy(max_attempts=2),
            fault_plan=plan,
            verify_fn=SpyVerify(),
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.method == "positive_equality"
        assert result.attempts == 3

    def test_oom_is_retried_like_a_budget_kill(self, tmp_path):
        job = Job.build(4, 2)
        plan = FaultPlan([Fault(FaultKind.OOM, job_id=job.job_id, attempt=1)])
        spy = SpyVerify()
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), fault_plan=plan, verify_fn=spy
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.method == "rewriting"
        assert result.attempts == 2

    def test_rewrite_failure_degrades_immediately(self, tmp_path):
        job = Job.build(4, 2)
        plan = FaultPlan([
            Fault(FaultKind.REWRITE_FAILURE, job_id=job.job_id, attempt=1)
        ])
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), fault_plan=plan, verify_fn=SpyVerify()
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.method == "positive_equality"
        assert result.attempts == 2

    def test_injected_failures_are_journaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2)
        plan = FaultPlan([Fault(FaultKind.OOM, job_id=job.job_id, attempt=1)])
        CampaignRunner(path, fault_plan=plan, verify_fn=SpyVerify()).run([job])
        replay = Journal.load(path)
        failed = list(replay.events("attempt_failed"))
        assert len(failed) == 1
        assert failed[0]["error"] == "MemoryError"


class TestCrashFaults:
    def test_crash_unwinds_the_whole_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2), Job.build(3, 1)]
        plan = FaultPlan([
            Fault(FaultKind.CRASH, job_id=jobs[1].job_id, attempt=1)
        ])
        with pytest.raises(InjectedCrash):
            CampaignRunner(path, fault_plan=plan,
                           verify_fn=SpyVerify()).run(jobs)
        replay = Journal.load(path)
        assert set(replay.finished()) == {jobs[0].job_id}
        assert set(replay.in_flight()) == {jobs[1].job_id}

    def test_crash_is_not_swallowed_by_recovery(self, tmp_path):
        # InjectedCrash is a BaseException: neither the retry loop nor the
        # degradation path may catch it.
        job = Job.build(2, 1)
        plan = FaultPlan([Fault(FaultKind.CRASH, job_id=job.job_id)])
        runner = CampaignRunner(
            str(tmp_path / "j.jsonl"),
            retry=RetryPolicy(max_attempts=5),
            fault_plan=plan,
            verify_fn=SpyVerify(),
        )
        with pytest.raises(InjectedCrash):
            runner.run([job])

    def test_resume_after_crash_completes_in_flight_job(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2)]
        plan = FaultPlan([
            Fault(FaultKind.CRASH, job_id=jobs[1].job_id, attempt=1)
        ])
        with pytest.raises(InjectedCrash):
            CampaignRunner(path, fault_plan=plan,
                           verify_fn=SpyVerify()).run(jobs)
        spy = SpyVerify()
        report = CampaignRunner(path, verify_fn=spy).run(jobs)
        assert report.counts() == {"PROVED": 2}
        # Only the in-flight job is re-run.
        assert [key[:2] for key, _ in spy.calls] == [(2, 2)]

    def test_journal_corrupt_crash_leaves_recoverable_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2)]
        plan = FaultPlan([
            Fault(FaultKind.JOURNAL_CORRUPT, job_id=jobs[1].job_id, attempt=1)
        ])
        with pytest.raises(InjectedCrash):
            CampaignRunner(path, fault_plan=plan,
                           verify_fn=SpyVerify()).run(jobs)
        replay = Journal.load(path)
        assert replay.torn_tail is True
        # The torn record was the second job's start; resume re-runs it.
        report = CampaignRunner(path, verify_fn=SpyVerify()).run(jobs)
        assert report.counts() == {"PROVED": 2}
        assert report.torn_tail is True
