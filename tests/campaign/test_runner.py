"""Campaign runner tests: budgets, escalation, one method per job, resume."""

import math

import pytest

from repro import ProcessorConfig
from repro.campaign import (
    CampaignRunner,
    Job,
    JobResult,
    Journal,
    RetryPolicy,
)
from repro.core.results import VerificationResult
from repro.errors import BudgetExhausted, CampaignError, RewriteFailed


def proved_result(config, method):
    return VerificationResult(
        config=config, method=method, bug=None, correct=True,
        timings={"total": 0.0},
    )


class SpyVerify:
    """A verify() stand-in with a programmable failure script."""

    def __init__(self, script=None):
        #: maps (job-config key, method, call-ordinal per key) to an
        #: exception instance to raise; everything else returns PROVED.
        self.script = script or {}
        self.calls = []

    def __call__(self, config, method="rewriting", bug=None,
                 criterion="disjunction", max_conflicts=None):
        key = (config.n_rob, config.issue_width, method)
        ordinal = sum(1 for c in self.calls if c[0] == key)
        self.calls.append((key, max_conflicts))
        exc = self.script.get((key, ordinal))
        if exc is not None:
            raise exc
        return proved_result(config, method)


class TestRetryPolicy:
    def test_budget_escalates_exponentially(self):
        policy = RetryPolicy(base_conflicts=100, escalation=2.0,
                             conflicts_cap=350)
        job = Job.build(2, 1)
        assert policy.budget_for(job, 1) == (100, None, None)
        assert policy.budget_for(job, 2) == (200, None, None)
        assert policy.budget_for(job, 3) == (350, None, None)  # capped

    def test_job_budget_overrides_policy_base(self):
        policy = RetryPolicy(base_conflicts=100, escalation=3.0,
                             base_wall_seconds=5.0, base_memory_mb=64)
        job = Job.build(2, 1, max_conflicts=10, max_wall_seconds=1.0)
        conflicts, wall, memory = policy.budget_for(job, 2)
        assert conflicts == 30
        assert wall == pytest.approx(3.0)
        assert memory == pytest.approx(192)

    def test_unbounded_budgets(self):
        policy = RetryPolicy(base_conflicts=None)
        assert policy.budget_for(Job.build(2, 1), 1) == (None, None, None)

    def test_rejects_bad_parameters(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CampaignError):
            RetryPolicy(escalation=0.5)

    @pytest.mark.parametrize(
        "name", ["base_conflicts", "base_wall_seconds", "base_memory_mb"]
    )
    def test_rejects_negative_base_budgets(self, name):
        with pytest.raises(CampaignError) as excinfo:
            RetryPolicy(**{name: -1})
        assert name in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["base_conflicts", "base_wall_seconds", "base_memory_mb"]
    )
    def test_rejects_non_finite_base_budgets(self, name, value):
        with pytest.raises(CampaignError) as excinfo:
            RetryPolicy(**{name: value})
        assert f"{name} must be a finite number" in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_escalation(self, value):
        with pytest.raises(CampaignError) as excinfo:
            RetryPolicy(escalation=value)
        assert "escalation" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["base_conflicts", "base_wall_seconds"])
    def test_zero_base_budget_stays_legal(self, name):
        RetryPolicy(**{name: 0})

    def test_rejects_zero_base_memory(self):
        with pytest.raises(CampaignError) as excinfo:
            RetryPolicy(base_memory_mb=0)
        assert "base_memory_mb must be positive" in str(excinfo.value)


class TestTerminalStates:
    def test_all_jobs_proved(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "j.jsonl"))
        report = runner.run([Job.build(2, 1), Job.build(2, 2)])
        assert report.counts() == {"PROVED": 2}
        assert report.exit_code() == 0

    def test_buggy_job_is_bug_found(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "j.jsonl"))
        job = Job.build(3, 1, bug_kind="forward-wrong-source", bug_entry=2)
        report = runner.run([job])
        result = report.results[job.job_id]
        assert result.status == "BUG_FOUND"
        assert result.suspected_entry == 2
        assert report.exit_code() == 1

    def test_real_budget_exhaustion_goes_inconclusive(self, tmp_path):
        # Positive Equality on (3,3) conflicts immediately; with a 1-conflict
        # base budget and two attempts every budget is exhausted.
        job = Job.build(3, 3, method="positive_equality", max_conflicts=1)
        runner = CampaignRunner(
            str(tmp_path / "j.jsonl"),
            retry=RetryPolicy(max_attempts=2, escalation=2.0),
        )
        report = runner.run([job])
        result = report.results[job.job_id]
        assert result.status == "INCONCLUSIVE"
        assert result.attempts == 2
        assert "BudgetExhausted" in result.detail
        assert report.exit_code() == 4

    def test_invalid_config_is_inconclusive_not_crash(self, tmp_path):
        bad = Job(job_id="bad", n_rob=2, issue_width=8)  # width > ROB
        good = Job.build(2, 1)
        report = CampaignRunner(str(tmp_path / "j.jsonl")).run([bad, good])
        assert report.results["bad"].status == "INCONCLUSIVE"
        assert report.results[good.job_id].status == "PROVED"


class TestEscalation:
    def test_retry_until_budget_suffices(self, tmp_path):
        job = Job.build(4, 2, max_conflicts=10)
        key = (4, 2, "rewriting")
        spy = SpyVerify(script={
            (key, 0): BudgetExhausted("too small", conflicts=10),
            (key, 1): BudgetExhausted("still too small", conflicts=20),
        })
        runner = CampaignRunner(
            str(tmp_path / "j.jsonl"),
            retry=RetryPolicy(max_attempts=3, escalation=2.0),
            verify_fn=spy,
        )
        report = runner.run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.attempts == 3
        # Budgets escalated 10 -> 20 -> 40.
        assert [c[1] for c in spy.calls] == [10, 20, 40]

    def test_memory_error_follows_the_retry_path(self, tmp_path):
        job = Job.build(4, 2)
        key = (4, 2, "rewriting")
        spy = SpyVerify(script={(key, 0): MemoryError("simulated 4 GB kill")})
        report = CampaignRunner(
            str(tmp_path / "j.jsonl"), verify_fn=spy
        ).run([job])
        result = report.results[job.job_id]
        assert result.status == "PROVED"
        assert result.attempts == 2


def journaled_methods(path):
    """The methods named by the start, attempt_failed and finish records."""
    return {
        record["method"] for record in Journal.load(path).records
        if "method" in record
    }


class TestOneMethodPerJob:
    @pytest.mark.parametrize("method", ["rewriting", "positive_equality"])
    def test_exhausted_attempts_go_inconclusive(self, tmp_path, method):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2, method=method)
        key = (4, 2, method)
        spy = SpyVerify(script={
            (key, i): BudgetExhausted("attempt dies") for i in range(3)
        })
        report = CampaignRunner(
            path, retry=RetryPolicy(max_attempts=3), verify_fn=spy,
        ).run([job])
        result = report.results[job.job_id]
        assert (result.status, result.method, result.attempts) == \
            ("INCONCLUSIVE", method, 3)
        assert "BudgetExhausted" in result.detail
        assert [call[0] for call in spy.calls] == [key] * 3
        assert journaled_methods(path) == {method}

    def test_rewrite_failure_goes_inconclusive_without_retrying(
        self, tmp_path
    ):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2)
        key = (4, 2, "rewriting")
        spy = SpyVerify(script={
            (key, 0): RewriteFailed("no structure", stage="decompose"),
        })
        report = CampaignRunner(path, verify_fn=spy).run([job])
        result = report.results[job.job_id]
        assert (result.status, result.method, result.attempts) == \
            ("INCONCLUSIVE", "rewriting", 1)
        assert "RewriteFailed" in result.detail
        assert len(spy.calls) == 1
        assert journaled_methods(path) == {"rewriting"}


class TestResume:
    def test_finished_jobs_are_never_rerun(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2)]
        first = SpyVerify()
        CampaignRunner(path, verify_fn=first).run(jobs)
        assert len(first.calls) == 2
        second = SpyVerify()
        report = CampaignRunner(path, verify_fn=second).run(jobs)
        assert second.calls == []
        assert report.replayed == 2
        assert all(r.from_journal for r in report.results.values())

    def test_resume_from_journal_without_job_list(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(3, 1)]
        CampaignRunner(path, verify_fn=SpyVerify()).run(jobs)
        report = CampaignRunner(path, verify_fn=SpyVerify()).run()
        assert set(report.results) == {j.job_id for j in jobs}

    def test_resume_keeps_escalation_schedule(self, tmp_path):
        # Journal records two failed attempts; the resumed run must start
        # at attempt 3 with the twice-escalated budget.
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2, max_conflicts=10)
        with Journal(path) as journal:
            journal.append({"event": "enqueue", "job": job.to_dict()})
            for attempt in (1, 2):
                journal.append({"event": "start", "job_id": job.job_id,
                                "attempt": attempt, "method": "rewriting"})
                journal.append({"event": "attempt_failed",
                                "job_id": job.job_id, "attempt": attempt,
                                "method": "rewriting",
                                "error": "BudgetExhausted", "detail": "x"})
        spy = SpyVerify()
        report = CampaignRunner(
            path, retry=RetryPolicy(max_attempts=3, escalation=2.0),
            verify_fn=spy,
        ).run()
        assert report.results[job.job_id].status == "PROVED"
        assert [c[1] for c in spy.calls] == [40]  # attempt 3 only

    @staticmethod
    def _write_fallback_journal(path, job, finished):
        """A journal in the layout of builds that re-ran an exhausted
        ``rewriting`` job under ``positive_equality``: three failed
        rewriting attempts, then the fallback's start and, when
        ``finished``, its PROVED finish."""
        with Journal(path) as journal:
            journal.append({"event": "enqueue", "job": job.to_dict()})
            for attempt in (1, 2, 3):
                journal.append({"event": "start", "job_id": job.job_id,
                                "attempt": attempt, "method": "rewriting",
                                "max_conflicts": 100000})
                journal.append({"event": "attempt_failed",
                                "job_id": job.job_id, "attempt": attempt,
                                "method": "rewriting",
                                "error": "BudgetExhausted", "detail": "x"})
            journal.append({"event": "start", "job_id": job.job_id,
                            "attempt": 1, "method": "positive_equality",
                            "max_conflicts": 100000})
            if finished:
                journal.append({"event": "finish", "job_id": job.job_id,
                                "status": "PROVED",
                                "method": "positive_equality",
                                "attempts": 4, "detail": "",
                                "suspected_entry": None,
                                "diagnostics": [], "metrics": {},
                                "witness": None, "worker": None})

    def test_journaled_fallback_verdict_is_a_pure_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2)
        self._write_fallback_journal(path, job, finished=True)
        before = Journal.load(path).records
        spy = SpyVerify()
        report = CampaignRunner(
            path, retry=RetryPolicy(max_attempts=3), verify_fn=spy,
        ).run()
        result = report.results[job.job_id]
        assert (result.status, result.method, result.attempts) == \
            ("PROVED", "positive_equality", 4)
        assert result.from_journal and report.replayed == 1
        assert spy.calls == []
        assert Journal.load(path).records == before

    def test_journal_cut_during_the_fallback_ends_inconclusive(
        self, tmp_path
    ):
        # Every failed attempt counts toward the schedule whatever method
        # it names, and the fallback's in-flight start is not re-run.
        path = str(tmp_path / "j.jsonl")
        job = Job.build(4, 2)
        self._write_fallback_journal(path, job, finished=False)
        before = Journal.load(path).records
        spy = SpyVerify()
        report = CampaignRunner(
            path, retry=RetryPolicy(max_attempts=3), verify_fn=spy,
        ).run()
        result = report.results[job.job_id]
        assert (result.status, result.method) == ("INCONCLUSIVE", "rewriting")
        assert spy.calls == []
        records = Journal.load(path).records
        assert records[:len(before)] == before
        added = records[len(before):]
        assert [record["event"] for record in added] == ["finish"]
        assert added[0]["status"] == "INCONCLUSIVE"

    def test_empty_journal_resume_is_an_error(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRunner(str(tmp_path / "j.jsonl")).run()

    def test_duplicate_job_ids_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRunner(str(tmp_path / "j.jsonl")).run(
                [Job.build(2, 1), Job.build(2, 1)]
            )

    @pytest.mark.parametrize("resupply", [False, True])
    def test_journal_with_retired_max_seconds_is_a_pure_replay(
        self, tmp_path, resupply
    ):
        # The journal layout written while jobs had a SAT-only
        # ``max_seconds`` budget: null in every enqueue spec and start
        # record.
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(3, 1)]
        with Journal(path) as journal:
            for job in jobs:
                journal.append({"event": "enqueue",
                                "job": {**job.to_dict(), "max_seconds": None}})
            for job in jobs:
                journal.append({"event": "start", "job_id": job.job_id,
                                "attempt": 1, "method": "rewriting",
                                "max_conflicts": 100000,
                                "max_seconds": None})
                journal.append({"event": "finish", "job_id": job.job_id,
                                "status": "PROVED", "method": "rewriting",
                                "attempts": 1, "detail": "",
                                "diagnostics": [], "metrics": {},
                                "witness": None, "worker": None})
        spy = SpyVerify()
        report = CampaignRunner(path, verify_fn=spy).run(
            jobs if resupply else None
        )
        assert spy.calls == []
        assert report.replayed == 2
        assert report.counts() == {"PROVED": 2}

    def test_journal_with_retired_diagnostics_is_a_pure_replay(
        self, tmp_path
    ):
        # Campaigns run with the retired ``--analyze`` journaled their
        # soundness findings in every finish record.
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(3, 1)]
        statuses = {jobs[0].job_id: "PROVED", jobs[1].job_id: "BUG_FOUND"}
        finding = {"severity": "info", "stage": "rewrite",
                   "check": "rewrite.rules-applied", "subject": "x",
                   "message": "rule applications: merge=1",
                   "data": {"rules_applied": {"merge": 1}}}
        with Journal(path) as journal:
            for job in jobs:
                journal.append({"event": "enqueue", "job": job.to_dict()})
            for job in jobs:
                journal.append({"event": "finish", "job_id": job.job_id,
                                "status": statuses[job.job_id],
                                "method": "rewriting", "attempts": 1,
                                "detail": "", "suspected_entry": None,
                                "diagnostics": [finding], "metrics": {},
                                "witness": None, "worker": None})
        spy = SpyVerify()
        report = CampaignRunner(path, verify_fn=spy).run()
        assert spy.calls == []
        assert report.replayed == 2
        assert {job_id: result.status
                for job_id, result in report.results.items()} == statuses
        assert all("diagnostics" not in result.to_dict()
                   for result in report.results.values())

    @pytest.mark.parametrize("resupply", [False, True])
    def test_journaled_non_null_max_seconds_is_refused(
        self, tmp_path, resupply
    ):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"event": "enqueue", "job": {
                **Job.build(2, 1).to_dict(), "max_seconds": 30.0,
            }})
        spy = SpyVerify()
        with pytest.raises(CampaignError) as excinfo:
            CampaignRunner(path, verify_fn=spy).run(
                [Job.build(2, 1)] if resupply else None
            )
        assert "max_wall_seconds" in str(excinfo.value)
        assert spy.calls == []


class TestSpecDrift:
    def test_resupplying_identical_spec_is_fine(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2)]
        CampaignRunner(path, verify_fn=SpyVerify()).run(jobs)
        report = CampaignRunner(path, verify_fn=SpyVerify()).run(
            [Job.build(2, 1), Job.build(2, 2)]
        )
        assert report.replayed == 2

    def test_drifted_spec_raises_naming_the_fields(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CampaignRunner(path, verify_fn=SpyVerify()).run([Job.build(2, 1)])
        drifted = Job.build(2, 1, max_conflicts=99,
                            criterion="case_split")
        assert drifted.job_id == Job.build(2, 1).job_id  # same id, new spec
        with pytest.raises(CampaignError) as excinfo:
            CampaignRunner(path, verify_fn=SpyVerify()).run([drifted])
        message = str(excinfo.value)
        assert "spec drifted" in message
        assert "criterion" in message and "max_conflicts" in message
        assert "case_split" in message

    def test_drift_check_fires_before_any_job_runs(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CampaignRunner(path, verify_fn=SpyVerify()).run([Job.build(2, 1)])
        spy = SpyVerify()
        new_job = Job.build(3, 1)
        drifted = Job.build(2, 1, max_conflicts=7)
        with pytest.raises(CampaignError):
            CampaignRunner(path, verify_fn=spy).run([new_job, drifted])
        assert spy.calls == []  # nothing ran against the wrong spec

    def test_new_jobs_may_join_a_resumed_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CampaignRunner(path, verify_fn=SpyVerify()).run([Job.build(2, 1)])
        report = CampaignRunner(path, verify_fn=SpyVerify()).run(
            [Job.build(2, 1), Job.build(3, 1)]
        )
        assert report.replayed == 1
        assert len(report.results) == 2


class TestCallbackErrors:
    def test_callback_exception_does_not_abort_the_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        jobs = [Job.build(2, 1), Job.build(2, 2), Job.build(3, 1)]
        seen = []

        def flaky(job, result):
            seen.append(job.job_id)
            if job.job_id == jobs[1].job_id:
                raise RuntimeError("observer fell over")

        report = CampaignRunner(
            path, verify_fn=SpyVerify(), on_result=flaky
        ).run(jobs)
        # Every job still ran and the callback kept being invoked.
        assert report.counts() == {"PROVED": 3}
        assert seen == [job.job_id for job in jobs]
        assert report.callback_errors == 1
        assert "1 on_result callback error" in report.summary()

    def test_callback_error_is_journaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(2, 1)

        def bad(j, r):
            raise ValueError("bad observer")

        CampaignRunner(path, verify_fn=SpyVerify(), on_result=bad).run([job])
        errors = Journal.load(path).callback_errors()
        assert len(errors) == 1
        assert errors[0]["job_id"] == job.job_id
        assert errors[0]["error"] == "ValueError"
        assert "bad observer" in errors[0]["detail"]

    def test_replayed_results_also_contain_callback_errors(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        job = Job.build(2, 1)
        CampaignRunner(path, verify_fn=SpyVerify()).run([job])

        def bad(j, r):
            raise RuntimeError("boom on replay")

        report = CampaignRunner(
            path, verify_fn=SpyVerify(), on_result=bad
        ).run([job])
        assert report.replayed == 1
        assert report.callback_errors == 1


class TestJobSerialization:
    def test_roundtrip(self):
        job = Job.build(8, 2, bug_kind="forward-stale-result", bug_entry=5,
                        max_conflicts=123)
        assert Job.from_dict(job.to_dict()) == job

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError):
            Job.from_dict({"job_id": "x", "n_rob": 2, "issue_width": 1,
                           "bogus": True})

    def test_null_max_seconds_is_dropped(self):
        job = Job.build(2, 1, max_wall_seconds=5.0)
        assert Job.from_dict({**job.to_dict(), "max_seconds": None}) == job

    @pytest.mark.parametrize("value", [30.0, 0])
    def test_non_null_max_seconds_names_max_wall_seconds(self, value):
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict({**Job.build(2, 1).to_dict(), "max_seconds": value})
        assert "max_wall_seconds" in str(excinfo.value)

    @pytest.mark.parametrize("field, value", [
        ("job_id", 7),
        ("n_rob", "abc"),
        ("n_rob", True),
        ("issue_width", 1.5),
        ("issue_width", None),
        ("retire_width", "2"),
        ("family", None),
        ("method", 1),
        ("criterion", ["disjunction"]),
        ("bug_kind", 3),
        ("bug_entry", None),
        ("bug_operand", False),
        ("max_conflicts", 1.5),
        ("max_wall_seconds", "soon"),
        ("max_memory_mb", True),
    ])
    def test_ill_typed_field_is_refused_by_name(self, field, value):
        spec = {**Job.build(2, 1).to_dict(), field: value}
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict(spec)
        assert f"{field} must be" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field", ["max_conflicts", "max_wall_seconds", "max_memory_mb"]
    )
    def test_negative_budget_is_refused_by_name(self, field):
        spec = {**Job.build(2, 1).to_dict(), field: -1}
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict(spec)
        assert f"{field} must not be negative" in str(excinfo.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["max_wall_seconds", "max_memory_mb"])
    def test_non_finite_budget_is_refused_by_name(self, field, value):
        spec = {**Job.build(2, 1).to_dict(), field: value}
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict(spec)
        assert f"{field} must be a finite number" in str(excinfo.value)

    @pytest.mark.parametrize("field", ["max_conflicts", "max_wall_seconds"])
    def test_zero_budget_is_legal(self, field):
        spec = {**Job.build(2, 1).to_dict(), field: 0}
        assert Job.from_dict(spec).to_dict()[field] == 0

    @pytest.mark.parametrize("value", [0, 0.0])
    def test_zero_memory_budget_is_refused(self, value):
        spec = {**Job.build(2, 1).to_dict(), "max_memory_mb": value}
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict(spec)
        assert "max_memory_mb must be positive" in str(excinfo.value)

    def test_non_object_spec_is_refused(self):
        with pytest.raises(CampaignError) as excinfo:
            Job.from_dict(5)
        assert "must be an object" in str(excinfo.value)

    def test_bad_size_stays_a_run_time_error(self):
        # Value ranges belong to ProcessorConfig: under campaign
        # semantics such a job lands INCONCLUSIVE rather than refused.
        job = Job.from_dict({"job_id": "x", "n_rob": 0, "issue_width": 1})
        with pytest.raises(ValueError):
            job.config()

    def test_result_requires_terminal_state(self):
        with pytest.raises(CampaignError):
            JobResult(job_id="x", status="RUNNING", method="rewriting",
                      attempts=1)

    def test_config_and_bug_materialize(self):
        job = Job.build(8, 2, bug_kind="forward-wrong-source", bug_entry=3)
        assert job.config() == ProcessorConfig(n_rob=8, issue_width=2)
        assert job.bug().entry == 3
        assert Job.build(2, 1).bug() is None
