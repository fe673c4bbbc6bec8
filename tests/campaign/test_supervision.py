"""Supervised execution: hang detection, new fault kinds, guard budgets.

The parallel hang tests use real worker processes and the real verify on
tiny configurations, because the property under test — a silent worker is
detected by heartbeat absence, killed, journaled, and its job re-queued —
only exists in the full process topology.
"""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    DegradePolicy,
    Fault,
    FaultKind,
    FaultPlan,
    Job,
    Journal,
    RetryPolicy,
)
from repro.campaign.parallel import (
    WORKER_HUNG_ERROR,
    _escalate_stop,
)
from repro.core.results import VerificationResult
from repro.errors import (
    BudgetExhausted,
    CampaignError,
    MemoryBudgetExhausted,
)
from repro.guard import Deadline, MemoryBudget, use_deadline


# -- fault grammar -------------------------------------------------------


class TestFaultParsing:
    def test_wildcard_attempt(self):
        fault = Fault.parse("hang@rw-N3-k1:*")
        assert fault.kind == FaultKind.HANG
        assert fault.attempt == 0

    def test_hang_with_duration(self):
        fault = Fault.parse("hang:10@rw-N3-k1")
        assert fault.amount == 10.0
        assert fault.attempt == 1

    def test_slow_with_stage_and_seconds(self):
        fault = Fault.parse("slow:sat:0.5@rw-N4-k2:2")
        assert fault.kind == FaultKind.SLOW
        assert fault.stage == "sat"
        assert fault.amount == 0.5
        assert fault.attempt == 2

    def test_slow_without_stage_means_every_stage(self):
        fault = Fault.parse("slow:0.25@rw-N4-k2")
        assert fault.stage is None
        assert fault.amount == 0.25

    def test_memory_bloat_with_mib(self):
        fault = Fault.parse("memory-bloat:64@rw-N4-k2")
        assert fault.kind == FaultKind.MEMORY_BLOAT
        assert fault.amount == 64.0

    def test_old_grammar_still_parses(self):
        fault = Fault.parse("solver-timeout@rw-N4-k2:2")
        assert fault.kind == FaultKind.SOLVER_TIMEOUT
        assert fault.attempt == 2

    def test_slow_requires_a_delay(self):
        with pytest.raises(CampaignError):
            Fault.parse("slow@rw-N4-k2")

    def test_memory_bloat_requires_a_size(self):
        with pytest.raises(CampaignError):
            Fault.parse("memory-bloat@rw-N4-k2")

    def test_argument_on_argless_kind_rejected(self):
        with pytest.raises(CampaignError):
            Fault.parse("oom:12@rw-N4-k2")

    def test_non_numeric_argument_rejected(self):
        with pytest.raises(CampaignError):
            Fault.parse("hang:soon@rw-N4-k2")

    def test_roundtrips_through_dict(self):
        fault = Fault.parse("slow:sat:0.5@rw-N4-k2:*")
        assert Fault.from_dict(fault.to_dict()) == fault


class TestFaultFiring:
    def test_wildcard_fires_on_every_attempt(self):
        plan = FaultPlan([Fault.parse("solver-timeout@job:*")])
        for attempt in (1, 2, 3):
            with pytest.raises(BudgetExhausted):
                plan.fire("job", attempt, "rewriting")
        assert plan.fired == 3

    def test_exact_fault_shadows_wildcard_then_stays_one_shot(self):
        plan = FaultPlan([
            Fault.parse("oom@job:2"),
            Fault.parse("solver-timeout@job:*"),
        ])
        with pytest.raises(BudgetExhausted):
            plan.fire("job", 1, "rewriting")
        with pytest.raises(MemoryError):
            plan.fire("job", 2, "rewriting")
        with pytest.raises(BudgetExhausted):
            plan.fire("job", 3, "rewriting")

    def test_bounded_hang_raises_budget_exhausted(self):
        plan = FaultPlan([Fault.parse("hang:0.05@job")])
        with pytest.raises(BudgetExhausted) as info:
            plan.fire("job", 1, "rewriting")
        assert info.value.stage == "injected-hang"
        assert info.value.budget_kind == "wall"

    def test_memory_bloat_trips_an_ambient_budget(self):
        plan = FaultPlan([Fault.parse("memory-bloat:8@job")])
        deadline = Deadline(memory=MemoryBudget.from_mb(2))
        with use_deadline(deadline):
            with pytest.raises(MemoryBudgetExhausted):
                plan.fire("job", 1, "rewriting")

    def test_memory_bloat_degrades_to_plain_memory_error(self):
        plan = FaultPlan([Fault.parse("memory-bloat:2@job")])
        with pytest.raises(MemoryError):
            plan.fire("job", 1, "rewriting")

    def test_slow_attaches_delay_to_ambient_deadline(self):
        plan = FaultPlan([Fault.parse("slow:sat:0.5@job")])
        deadline = Deadline()
        with use_deadline(deadline):
            plan.fire("job", 1, "rewriting")  # does not raise
        assert deadline.stage_delays == {"sat": 0.5}


# -- escalated stop ------------------------------------------------------


class _StubProcess:
    """Process double: optionally ignores terminate(), dies on kill()."""

    def __init__(self, ignores_sigterm):
        self.ignores_sigterm = ignores_sigterm
        self.alive = True
        self.calls = []
        self.exitcode = None

    def terminate(self):
        self.calls.append("terminate")
        if not self.ignores_sigterm:
            self.alive, self.exitcode = False, -15

    def kill(self):
        self.calls.append("kill")
        self.alive, self.exitcode = False, -9

    def join(self, timeout=None):
        self.calls.append("join")

    def is_alive(self):
        return self.alive


class TestEscalateStop:
    def test_terminate_suffices_for_cooperative_process(self):
        process = _StubProcess(ignores_sigterm=False)
        assert _escalate_stop(process, grace=0.01) == "terminated"
        assert "kill" not in process.calls

    def test_escalates_to_kill_when_sigterm_ignored(self):
        process = _StubProcess(ignores_sigterm=True)
        assert _escalate_stop(process, grace=0.01) == "killed"
        assert process.calls.count("kill") == 1
        assert not process.is_alive()


# -- hung workers, end to end -------------------------------------------


def journal_events(path):
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            wrapper = json.loads(line)  # raises on a torn/corrupt line
            assert set(wrapper) == {"crc", "data"}
            events.append(wrapper["data"])
    return events


class TestHungWorkers:
    def test_permanent_hang_converges_to_inconclusive(self, tmp_path):
        path = str(tmp_path / "hang.jsonl")
        plan = FaultPlan([Fault.parse("hang@rw-N2-k1:*")])
        report = CampaignRunner(
            path,
            retry=RetryPolicy(max_attempts=1, base_conflicts=None),
            degrade=DegradePolicy(fallback_method=None),
            fault_plan=plan,
            workers=2,
            hang_timeout=1.0,
        ).run([Job.build(2, 1), Job.build(3, 1)])

        assert report.results["rw-N2-k1"].status == "INCONCLUSIVE"
        assert report.results["rw-N3-k1"].status == "PROVED"
        assert report.metrics["campaign.worker_hangs"] >= 1.0

        events = journal_events(path)
        hung = [
            e for e in events
            if e.get("event") == "attempt_failed"
            and e.get("error") == WORKER_HUNG_ERROR
        ]
        assert hung, "the hang must be journaled as a WorkerHung attempt"
        assert all(e["job_id"] == "rw-N2-k1" for e in hung)
        assert "heartbeat" not in {e.get("event") for e in events}

        # Resume replays both verdicts without re-running anything.
        resumed = CampaignRunner(path).run()
        assert resumed.replayed == 2
        assert resumed.results["rw-N2-k1"].status == "INCONCLUSIVE"

    def test_healthy_parallel_run_kills_nothing(self, tmp_path):
        report = CampaignRunner(
            str(tmp_path / "ok.jsonl"),
            retry=RetryPolicy(max_attempts=1, base_conflicts=None),
            workers=2,
            hang_timeout=30.0,
        ).run([Job.build(2, 1), Job.build(3, 1)])
        assert report.counts() == {"PROVED": 2}
        assert "campaign.worker_hangs" not in report.metrics
        assert "campaign.worker_crashes" not in report.metrics

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_hang_timeout_must_be_positive(self, tmp_path, timeout):
        with pytest.raises(CampaignError) as excinfo:
            CampaignRunner(
                str(tmp_path / "bad.jsonl"),
                workers=2,
                hang_timeout=timeout,
            ).run([Job.build(2, 1), Job.build(3, 1)])
        assert "hang_timeout" in str(excinfo.value)


# -- every job runs ------------------------------------------------------


def failing_verify(config, **kwargs):
    raise BudgetExhausted("stub blow-up", conflicts=0, seconds=0.0)


def proving_verify(config, method="rewriting", **kwargs):
    return VerificationResult(
        config=config, method=method, bug=None, correct=True,
        timings={"total": 0.0},
    )


FAMILY_JOBS = [Job.build(n, 1) for n in (2, 3, 4, 6)]


class TestEveryJobRuns:
    def test_every_failing_job_runs_its_own_attempt(self, tmp_path):
        path = str(tmp_path / "fail.jsonl")
        report = CampaignRunner(
            path,
            retry=RetryPolicy(max_attempts=1, base_conflicts=None),
            degrade=DegradePolicy(fallback_method=None),
            verify_fn=failing_verify,
        ).run(FAMILY_JOBS)
        # Siblings that differ only in ROB size each spend their own
        # budget: no outcome is inferred from another job's.
        assert all(r.attempts == 1 for r in report.results.values())
        assert all(
            r.status == "INCONCLUSIVE" for r in report.results.values()
        )

    def test_parent_journal_with_short_circuits_is_a_pure_replay(
        self, tmp_path
    ):
        # The layout older builds wrote when a family's circuit opened:
        # two failures, a circuit_open record, and short-circuited
        # finishes with attempts 0 for the remaining siblings.
        path = str(tmp_path / "old.jsonl")
        finish = {"event": "finish", "status": "INCONCLUSIVE",
                  "method": "rewriting", "diagnostics": [], "metrics": {},
                  "witness": None, "worker": None}
        with Journal(path) as journal:
            for job in FAMILY_JOBS:
                journal.append({"event": "enqueue", "job": job.to_dict()})
            for job in FAMILY_JOBS[:2]:
                journal.append({**finish, "job_id": job.job_id,
                                "attempts": 1, "detail": "stub"})
            journal.append({"event": "circuit_open",
                            "family": "rewriting/k1/disjunction",
                            "job_id": FAMILY_JOBS[1].job_id,
                            "threshold": 2})
            for job in FAMILY_JOBS[2:]:
                journal.append({
                    **finish, "job_id": job.job_id, "attempts": 0,
                    "detail": "circuit breaker open for family "
                              "'rewriting/k1/disjunction'",
                })
        calls = []
        report = CampaignRunner(
            path, verify_fn=lambda *args, **kwargs: calls.append(args),
        ).run()
        assert calls == []
        assert report.replayed == len(FAMILY_JOBS)
        assert report.counts() == {"INCONCLUSIVE": len(FAMILY_JOBS)}
        assert report.results["rw-N6-k1"].attempts == 0


# -- guard budgets through the campaign ---------------------------------


class TestGuardBudgetsInCampaign:
    def test_memory_bloat_retries_under_escalated_budget(self, tmp_path):
        path = str(tmp_path / "bloat.jsonl")
        report = CampaignRunner(
            path,
            retry=RetryPolicy(
                max_attempts=2, base_conflicts=None, base_memory_mb=16
            ),
            fault_plan=FaultPlan([Fault.parse("memory-bloat:64@rw-N2-k1:1")]),
        ).run([Job.build(2, 1)])
        result = report.results["rw-N2-k1"]
        assert result.status == "PROVED"
        assert result.attempts == 2
        events = journal_events(path)
        fails = [e for e in events if e.get("event") == "attempt_failed"]
        assert fails[0]["error"] == "MemoryBudgetExhausted"
        starts = [e for e in events if e.get("event") == "start"]
        assert [s["max_memory_mb"] for s in starts] == [16, 32]

    def test_slow_stage_blows_the_wall_deadline(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        report = CampaignRunner(
            path,
            retry=RetryPolicy(
                max_attempts=2, base_conflicts=None, base_wall_seconds=0.5
            ),
            fault_plan=FaultPlan([Fault.parse("slow:tlsim:1.0@rw-N2-k1:1")]),
        ).run([Job.build(2, 1)])
        result = report.results["rw-N2-k1"]
        assert result.status == "PROVED"
        assert result.attempts == 2
        fails = [
            e for e in journal_events(path)
            if e.get("event") == "attempt_failed"
        ]
        assert fails[0]["error"] == "BudgetExhausted"
        assert "tlsim" in fails[0]["detail"]

    def test_unsupervised_start_records_keep_their_shape(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        CampaignRunner(
            path, retry=RetryPolicy(max_attempts=1, base_conflicts=None),
            verify_fn=proving_verify,
        ).run([Job.build(2, 1)])
        starts = [
            e for e in journal_events(path) if e.get("event") == "start"
        ]
        assert starts
        for record in starts:
            assert "max_wall_seconds" not in record
            assert "max_memory_mb" not in record
