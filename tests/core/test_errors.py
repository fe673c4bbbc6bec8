"""Tests for the structured exception taxonomy and the budget path."""

import pytest

from repro import (
    BudgetExhausted,
    CampaignError,
    EncodingError,
    JournalError,
    ProcessorConfig,
    ReproError,
    RewriteFailed,
    SolverError,
    verify,
)
from repro.decision.splitter import BudgetExceeded
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver


class TestTaxonomy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (BudgetExhausted, RewriteFailed, EncodingError,
                         SolverError, CampaignError, JournalError):
            assert issubclass(exc_type, ReproError)

    def test_budget_exhausted_is_a_timeout_error(self):
        # Backward compatibility: pre-taxonomy callers caught TimeoutError.
        assert issubclass(BudgetExhausted, TimeoutError)
        with pytest.raises(TimeoutError):
            raise BudgetExhausted("x")

    def test_journal_error_is_a_campaign_error(self):
        assert issubclass(JournalError, CampaignError)

    def test_decision_budget_joins_the_taxonomy(self):
        assert issubclass(BudgetExceeded, BudgetExhausted)

    def test_budget_exhausted_carries_structure(self):
        exc = BudgetExhausted("ran out", conflicts=17, seconds=1.5,
                              budget_kind="conflicts",
                              timings={"sat": 1.5})
        assert exc.conflicts == 17
        assert exc.seconds == 1.5
        assert exc.budget_kind == "conflicts"
        assert exc.timings == {"sat": 1.5}

    def test_rewrite_failed_carries_entry_and_stage(self):
        exc = RewriteFailed("bad shape", entry=7, stage="merge")
        assert exc.entry == 7
        assert exc.stage == "merge"


class TestVerifyBudgetPath:
    def test_tiny_conflict_budget_surfaces_budget_exhausted(self):
        with pytest.raises(BudgetExhausted) as info:
            verify(
                ProcessorConfig(n_rob=3, issue_width=3),
                method="positive_equality",
                max_conflicts=1,
            )
        exc = info.value
        assert exc.conflicts is not None and exc.conflicts >= 1
        assert exc.budget_kind == "conflicts"
        # The phases completed before the abort are still reported.
        for phase in ("simulate", "translate", "sat", "total"):
            assert phase in exc.timings, phase
        assert exc.timings["total"] > 0

    def test_wall_budget_reports_its_kind(self):
        with pytest.raises(BudgetExhausted) as info:
            verify(
                ProcessorConfig(n_rob=3, issue_width=3),
                method="positive_equality",
                max_wall_seconds=0.0,
            )
        assert info.value.budget_kind == "wall"

    @pytest.mark.parametrize(
        "budget", [{"max_conflicts": -1}, {"max_wall_seconds": -0.5}]
    )
    def test_negative_budget_is_a_value_error(self, budget):
        with pytest.raises(ValueError) as info:
            verify(ProcessorConfig(n_rob=2, issue_width=1), **budget)
        assert f"{next(iter(budget))} must not be negative" in str(info.value)

    def test_zero_memory_budget_is_a_value_error_naming_it(self):
        with pytest.raises(ValueError) as info:
            verify(ProcessorConfig(n_rob=2, issue_width=1), max_memory_mb=0)
        assert "max_memory_mb must be positive" in str(info.value)


class TestSolverErrors:
    def test_out_of_range_literal_raises_solver_error(self):
        cnf = Cnf(num_vars=2, clauses=[(1, 9)])
        with pytest.raises(SolverError):
            Solver(cnf)

    def test_zero_literal_raises_solver_error(self):
        cnf = Cnf(num_vars=2, clauses=[(1, 0)])
        with pytest.raises(SolverError):
            Solver(cnf)
