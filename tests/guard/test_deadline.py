"""Deadline mechanics: budgets, heartbeats, ticks, derivation, ambience."""

import time

import pytest

from repro.errors import BudgetExhausted
from repro.guard import (
    NULL_DEADLINE,
    Deadline,
    NullDeadline,
    current_deadline,
    use_deadline,
)
from repro.guard.deadline import TICK_EVERY


class TestBudgets:
    def test_unbounded_check_never_raises(self):
        deadline = Deadline()
        for _ in range(100):
            deadline.check("sat")
        assert not deadline.bounded
        assert deadline.checks == 100

    def test_wall_budget_expires_with_stage_and_kind(self):
        deadline = Deadline(max_wall_seconds=0.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExhausted) as info:
            deadline.check("encode.eij")
        assert info.value.budget_kind == "wall"
        assert info.value.stage == "encode.eij"
        assert info.value.seconds > 0.0

    def test_remaining_clamps_to_zero(self):
        deadline = Deadline(max_wall_seconds=0.0)
        time.sleep(0.005)
        assert deadline.remaining_wall() == 0.0

    def test_elapsed_clocks_advance(self):
        deadline = Deadline()
        time.sleep(0.01)
        assert deadline.elapsed_wall() >= 0.01


class TestTicks:
    def test_tick_checks_only_every_interval(self):
        deadline = Deadline(max_wall_seconds=0.0)
        time.sleep(0.005)
        for _ in range(TICK_EVERY - 1):
            deadline.tick("sat")  # below the interval: no check, no raise
        assert deadline.checks == 0
        with pytest.raises(BudgetExhausted):
            deadline.tick("sat")

    def test_stage_delay_applies_at_check(self):
        deadline = Deadline()
        deadline.add_stage_delay("tlsim", 0.05)
        before = time.monotonic()
        deadline.check("tlsim")
        assert time.monotonic() - before >= 0.05
        before = time.monotonic()
        deadline.check("sat")  # other stages undelayed
        assert time.monotonic() - before < 0.05

    def test_wildcard_stage_delay_applies_everywhere(self):
        deadline = Deadline()
        deadline.add_stage_delay("*", 0.03)
        before = time.monotonic()
        deadline.check("anything")
        assert time.monotonic() - before >= 0.03


class TestHeartbeats:
    def test_first_check_beats_immediately_then_throttles(self):
        beats = []
        deadline = Deadline(heartbeat=beats.append, heartbeat_interval=10.0)
        deadline.check("tlsim")
        for _ in range(50):
            deadline.check("sat")
        assert beats == ["tlsim"]
        assert deadline.heartbeats_sent == 1

    def test_beats_resume_after_interval(self):
        beats = []
        deadline = Deadline(heartbeat=beats.append, heartbeat_interval=0.02)
        deadline.check("a")
        time.sleep(0.03)
        deadline.check("b")
        assert beats == ["a", "b"]


class TestDerive:
    def test_child_budget_capped_by_parent_remaining(self):
        parent = Deadline(max_wall_seconds=100.0)
        child = parent.derive(max_wall_seconds=500.0)
        assert child.max_wall_seconds <= 100.0

    def test_child_inherits_parent_budget_when_unset(self):
        parent = Deadline(max_wall_seconds=50.0)
        child = parent.derive()
        assert child.max_wall_seconds is not None
        assert child.max_wall_seconds <= 50.0

    def test_child_inherits_heartbeat_sink_and_delays(self):
        beats = []
        parent = Deadline(heartbeat=beats.append, heartbeat_interval=5.0)
        parent.add_stage_delay("sat", 0.01)
        child = parent.derive(max_wall_seconds=10.0)
        child.check("sat")
        assert beats == ["sat"]
        assert child.stage_delays.get("sat") == 0.01

    def test_null_derive_builds_real_deadline(self):
        child = NULL_DEADLINE.derive(max_wall_seconds=1.0)
        assert isinstance(child, Deadline)
        assert child.max_wall_seconds == 1.0


class TestAmbient:
    def test_default_is_null_deadline(self):
        assert isinstance(current_deadline(), NullDeadline)

    def test_use_deadline_installs_and_restores(self):
        deadline = Deadline(max_wall_seconds=5.0)
        with use_deadline(deadline) as installed:
            assert installed is deadline
            assert current_deadline() is deadline
        assert current_deadline() is NULL_DEADLINE

    def test_nesting_restores_outer(self):
        outer, inner = Deadline(), Deadline()
        with use_deadline(outer):
            with use_deadline(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_null_deadline_is_inert(self):
        NULL_DEADLINE.check("anything")
        NULL_DEADLINE.tick("anything")
        NULL_DEADLINE.charge(nodes=10, bytes_=1 << 30)
        NULL_DEADLINE.add_stage_delay("sat", 100.0)
        assert NULL_DEADLINE.counters() == {}


class TestCounters:
    def test_counters_report_activity(self):
        deadline = Deadline()
        deadline.check("a")
        for _ in range(2 * TICK_EVERY):
            deadline.tick("b")
        counters = deadline.counters()
        assert counters["guard.checks"] == 3.0  # 1 explicit + 2 from ticks
        assert counters["guard.ticks"] == 2 * TICK_EVERY
        assert counters["guard.heartbeats"] == 0.0
