"""MemoryBudget accounting, exhaustion, and deadline integration."""

import pytest

from repro.errors import BudgetExhausted, MemoryBudgetExhausted
from repro.guard import Deadline, MemoryBudget, use_deadline
from repro.guard.memory import NODE_BYTES


class TestConstruction:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget(-5)

    def test_from_mb(self):
        budget = MemoryBudget.from_mb(2)
        assert budget.max_bytes == 2 * 1024 * 1024

    def test_from_mb_rounds_a_sub_byte_budget_up_to_one_byte(self):
        assert MemoryBudget.from_mb(1e-9).max_bytes == 1
        with pytest.raises(ValueError):
            MemoryBudget.from_mb(0)


class TestAccounting:
    def test_charged_bytes_trip_the_check(self):
        budget = MemoryBudget(1000)
        budget.charge(bytes_=2000)
        with pytest.raises(MemoryBudgetExhausted) as info:
            budget.check("sat")
        assert info.value.stage == "sat"
        assert info.value.max_bytes == 1000
        assert info.value.bytes_used >= 2000
        assert info.value.budget_kind == "memory"

    def test_charged_nodes_count_node_bytes(self):
        budget = MemoryBudget(10 * NODE_BYTES)
        budget.charge(nodes=11)
        with pytest.raises(MemoryBudgetExhausted):
            budget.check("encode.eij")

    def test_under_budget_is_silent(self):
        budget = MemoryBudget(1 << 30)
        budget.charge(nodes=100, bytes_=1000)
        budget.check("sat")
        assert budget.usage_bytes(sample=False) == 1000 + 100 * NODE_BYTES

    def test_exhaustion_is_also_a_memory_error(self):
        # The campaign executor's recoverable-retry path catches
        # (BudgetExhausted, MemoryError); exhaustion must match both.
        budget = MemoryBudget(1)
        budget.charge(bytes_=100)
        with pytest.raises(MemoryError):
            budget.check("sat")
        with pytest.raises(BudgetExhausted):
            budget.check("sat")

    def test_counters(self):
        budget = MemoryBudget(1 << 30)
        budget.charge(nodes=3, bytes_=7)
        budget.check("sat")
        counters = budget.counters()
        assert counters["guard.memory_checks"] == 1.0
        assert counters["guard.memory_charged_nodes"] == 3.0
        assert counters["guard.memory_charged_bytes"] == 7.0
        assert counters["guard.memory_peak_bytes"] >= 7.0

    def test_start_stop_reference_counted(self):
        budget = MemoryBudget(1 << 30)
        budget.start()
        budget.start()
        budget.stop()
        budget.stop()
        budget.stop()  # extra stop is harmless
        assert budget._active_depth == 0


class TestDeadlineIntegration:
    def test_ticks_charge_nodes_to_the_budget(self):
        budget = MemoryBudget(1 << 30)
        deadline = Deadline(memory=budget)
        for _ in range(10):
            deadline.tick("encode.tseitin")
        assert budget.charged_nodes == 10

    def test_check_raises_through_the_deadline(self):
        budget = MemoryBudget(100)
        deadline = Deadline(memory=budget)
        deadline.charge(bytes_=200)
        with pytest.raises(MemoryBudgetExhausted) as info:
            deadline.check("witness")
        assert info.value.stage == "witness"

    def test_bounded_when_only_memory_set(self):
        assert Deadline(memory=MemoryBudget(1000)).bounded

    def test_derived_deadline_shares_budget_by_reference(self):
        budget = MemoryBudget(1 << 30)
        parent = Deadline(memory=budget)
        child = parent.derive(max_wall_seconds=1.0)
        child.charge(bytes_=50)
        assert budget.charged_bytes == 50

    def test_use_deadline_anchors_budget_once(self):
        budget = MemoryBudget(1 << 30)
        parent = Deadline(memory=budget)
        with use_deadline(parent):
            assert budget._active_depth == 1
            with use_deadline(parent.derive()):
                assert budget._active_depth == 2
            assert budget._active_depth == 1
        assert budget._active_depth == 0

    def test_counters_flow_through_deadline(self):
        budget = MemoryBudget(1 << 30)
        deadline = Deadline(memory=budget)
        deadline.check("sat")
        counters = deadline.counters()
        assert "guard.memory_checks" in counters
        assert counters["guard.checks"] == 1.0
