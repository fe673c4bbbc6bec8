"""Diagnostics ride through the campaign journal and survive resume."""

import json

import pytest

from repro.campaign import CampaignRunner, Job, JobResult, RetryPolicy
from repro.campaign.faults import Fault, FaultKind, FaultPlan, InjectedCrash
from repro.core.results import VerificationResult


def _checks(result):
    return {d["check"] for d in result.diagnostics}


class TestAnalyzeFlag:
    def test_diagnostics_recorded_and_journaled(self, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        job = Job.build(2, 1)
        report = CampaignRunner(journal, analyze=True).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.diagnostics
        assert "rewrite.rules-applied" in _checks(result)
        # The finish record carries the findings verbatim.
        finishes = [
            json.loads(line.split("\t", 1)[-1]) if "\t" in line else None
            for line in open(journal, encoding="utf-8")
        ]
        raw = open(journal, encoding="utf-8").read()
        assert "rewrite.rules-applied" in raw

    def test_resume_replays_diagnostics(self, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        job = Job.build(2, 1)
        first = CampaignRunner(journal, analyze=True).run([job])
        recorded = first.results[job.job_id].diagnostics
        assert recorded

        resumed = CampaignRunner(journal, analyze=True).run()
        replayed = resumed.results[job.job_id]
        assert replayed.from_journal
        assert replayed.diagnostics == recorded

    def test_off_by_default(self, tmp_path):
        job = Job.build(2, 1)
        report = CampaignRunner(str(tmp_path / "c.jsonl")).run([job])
        assert report.results[job.job_id].diagnostics == []

    def test_narrow_stub_signature_still_works(self, tmp_path):
        # verify_fn overrides without an ``analyze`` parameter must keep
        # working as long as the runner's analyze flag stays off.
        def stub(config, method="rewriting", bug=None,
                 criterion="disjunction", max_conflicts=None):
            return VerificationResult(
                config=config, method=method, bug=bug, correct=True,
                timings={"total": 0.0},
            )

        job = Job.build(4, 2)
        report = CampaignRunner(
            str(tmp_path / "c.jsonl"), verify_fn=stub
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.diagnostics == []


class TestFaultInjection:
    def test_diagnostics_present_after_retry(self, tmp_path):
        job = Job.build(2, 1)
        plan = FaultPlan([Fault(kind=FaultKind.SOLVER_TIMEOUT,
                                job_id=job.job_id, attempt=1)])
        report = CampaignRunner(
            str(tmp_path / "c.jsonl"),
            retry=RetryPolicy(max_attempts=2),
            fault_plan=plan,
            analyze=True,
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.attempts == 2
        assert "rewrite.rules-applied" in _checks(result)

    def test_diagnostics_survive_crash_and_resume(self, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        survivor = Job.build(2, 1, job_id="survivor")
        doomed = Job.build(2, 1, job_id="doomed")
        plan = FaultPlan([Fault(kind=FaultKind.CRASH,
                                job_id="doomed", attempt=1)])
        with pytest.raises(InjectedCrash):
            CampaignRunner(journal, fault_plan=plan,
                           analyze=True).run([survivor, doomed])

        # The crash unwound the campaign after ``survivor`` finished; its
        # diagnostics must replay from the journal on resume, and the
        # re-run of ``doomed`` must produce its own.
        resumed = CampaignRunner(journal, analyze=True).run()
        replayed = resumed.results["survivor"]
        assert replayed.from_journal
        assert "rewrite.rules-applied" in _checks(replayed)
        rerun = resumed.results["doomed"]
        assert not rerun.from_journal
        assert rerun.status == "PROVED"
        assert "rewrite.rules-applied" in _checks(rerun)


class TestSerialization:
    def test_round_trip_preserves_diagnostics(self):
        result = JobResult(
            job_id="j", status="PROVED", method="rewriting", attempts=1,
            diagnostics=[{
                "severity": "info", "stage": "rewrite",
                "check": "rewrite.rules-applied", "subject": "j",
                "message": "rule applications: merge=1",
                "data": {"rules_applied": {"merge": 1}},
            }],
        )
        assert JobResult.from_dict(result.to_dict()) == result

    def test_from_dict_defaults_to_no_diagnostics(self):
        payload = {"job_id": "j", "status": "PROVED"}
        assert JobResult.from_dict(payload).diagnostics == []
