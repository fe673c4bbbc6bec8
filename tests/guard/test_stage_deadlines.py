"""Every pipeline layer honors the ambient deadline and names itself.

The technique mirrors how a real stall presents: an injected stage delay
(the ``slow`` fault's mechanism) makes one chosen stage slow, and the
wall budget — ample for the whole healthy run — expires exactly there.
``BudgetExhausted.stage`` must then name that layer, which is what makes
a production timeout actionable.
"""

import pytest

from repro.core.verifier import verify
from repro.errors import BudgetExhausted, MemoryBudgetExhausted
from repro.guard import Deadline, use_deadline
from repro.processor.bugs import Bug, BugKind
from repro.processor.params import ProcessorConfig

CONFIG = ProcessorConfig(n_rob=2, issue_width=1)

#: Stages crossed by a plain rewriting-method run, in pipeline order.
REWRITING_STAGES = [
    "tlsim",
    "rewrite",
    "encode.memory",
    "encode.uf_elim",
    "encode.eij",
    "encode.transitivity",
    "encode.tseitin",
    "sat",
]


def expire_in(stage, budget=2.0, delay=3.0, **verify_kwargs):
    deadline = Deadline(max_wall_seconds=budget)
    deadline.add_stage_delay(stage, delay)
    with use_deadline(deadline):
        with pytest.raises(BudgetExhausted) as info:
            verify(CONFIG, **verify_kwargs)
    return info.value


class TestStageAttribution:
    @pytest.mark.parametrize("stage", REWRITING_STAGES)
    def test_deadline_expiry_names_the_slow_stage(self, stage):
        exc = expire_in(stage)
        assert exc.stage == stage
        assert exc.budget_kind == "wall"
        assert exc.seconds is not None and exc.seconds > 2.0

    def test_witness_stage(self):
        # Witness reconstruction only runs for certified SAT
        # counterexamples, so this needs a planted bug and the
        # Positive-Equality method (no rewrite-flag short-circuit).
        exc = expire_in(
            "witness",
            method="positive_equality",
            bug=Bug(BugKind.RETIRE_WITHOUT_RESULT, entry=1),
            certify=True,
        )
        assert exc.stage == "witness"

    def test_rewrite_phase_polls_as_rewrite(self):
        # The rewriting engine's read pushing walks write chains; its
        # polls belong to the rewrite stage, so every encode.memory poll
        # comes after the last rewrite one.
        beats = []
        deadline = Deadline(heartbeat=beats.append, heartbeat_interval=0.0)
        with use_deadline(deadline):
            assert verify(ProcessorConfig(n_rob=32, issue_width=2)).correct
        last_rewrite = max(i for i, stage in enumerate(beats) if stage == "rewrite")
        memory = [i for i, stage in enumerate(beats) if stage == "encode.memory"]
        assert memory and min(memory) > last_rewrite

    def test_positive_equality_skips_the_rewrite_stage(self):
        # A slow "rewrite" stage cannot stall a method that never
        # rewrites; the run completes inside the budget.
        deadline = Deadline(max_wall_seconds=30.0)
        deadline.add_stage_delay("rewrite", 60.0)
        with use_deadline(deadline):
            result = verify(CONFIG, method="positive_equality")
        assert result.correct


class TestVerifyKwargs:
    def test_zero_wall_budget_dies_at_the_first_stage(self):
        with pytest.raises(BudgetExhausted) as info:
            verify(CONFIG, max_wall_seconds=0.0)
        assert info.value.stage == "tlsim"
        assert info.value.budget_kind == "wall"

    def test_timings_survive_the_abort(self):
        with pytest.raises(BudgetExhausted) as info:
            verify(CONFIG, max_wall_seconds=0.0)
        assert "total" in info.value.timings

    def test_tiny_memory_budget_trips(self):
        with pytest.raises(MemoryBudgetExhausted) as info:
            verify(CONFIG, max_memory_mb=0.001)
        assert info.value.budget_kind == "memory"
        assert info.value.stage  # some pipeline stage is named
        assert info.value.bytes_used > info.value.max_bytes

    def test_generous_budgets_do_not_interfere(self):
        result = verify(CONFIG, max_wall_seconds=600.0, max_memory_mb=4096.0)
        assert result.correct
        counters = result.trace.all_counters()
        assert counters.get("guard.checks", 0) > 0
        assert counters.get("guard.ticks", 0) > 0
        assert counters.get("guard.memory_checks", 0) > 0

    def test_unsupervised_run_reports_no_guard_counters(self):
        result = verify(CONFIG)
        assert result.correct
        assert not any(
            name.startswith("guard.")
            for name in result.trace.all_counters()
        )

    def test_ambient_worker_deadline_caps_verify_budget(self):
        # A verify() inside a campaign worker cannot outlive the
        # worker's own supervisor.
        with use_deadline(Deadline(max_wall_seconds=0.0)):
            with pytest.raises(BudgetExhausted):
                verify(CONFIG, max_wall_seconds=3600.0)
