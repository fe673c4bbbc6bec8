"""Tests for the Burch–Dill diagram and correctness formula."""

import pytest

from repro.decision import is_valid
from repro.encode import check_validity
from repro.eufm import TRUE, bool_variables, term_variables
from repro.processor import (
    ProcessorConfig,
    build_correctness_formula,
    run_diagram,
    forwarding_bug,
)


class TestDiagram:
    def test_artifacts_populated(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=1))
        assert artifacts.pc_impl is not None
        assert artifacts.rf_impl is not None
        assert artifacts.rf_impl_mid is not None
        assert len(artifacts.spec_states) == 2

    def test_spec_zero_state_uses_initial_pc(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=1))
        assert artifacts.spec_states[0].pc is artifacts.initial_pc

    def test_mid_state_is_inside_final_state(self):
        from repro.eufm import iter_dag

        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=2))
        assert artifacts.rf_impl_mid in set(iter_dag(artifacts.rf_impl))

    def test_fetch_conditions_are_monotone(self):
        from repro.eufm import Interpretation, evaluate

        artifacts = run_diagram(ProcessorConfig(n_rob=3, issue_width=3))
        for seed in range(20):
            interp = Interpretation(seed=seed)
            values = [evaluate(f, interp) for f in artifacts.fetch_conditions]
            for earlier, later in zip(values, values[1:]):
                if later:
                    assert earlier  # fetch_j implies fetch_{j-1}


class TestCorrectnessFormula:
    def test_disjunction_criterion_shape(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=2))
        phi = build_correctness_formula(artifacts, criterion="disjunction")
        assert phi.kind == "or"
        assert len(phi.args) == 3  # 0, 1 or 2 instructions

    def test_case_split_criterion_shape(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=2))
        phi = build_correctness_formula(artifacts, criterion="case_split")
        assert phi.kind == "and"

    def test_unknown_criterion_rejected(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=1, issue_width=1))
        with pytest.raises(ValueError):
            build_correctness_formula(artifacts, criterion="nonsense")

    def test_formula_mentions_scheduling_variables(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=1))
        phi = build_correctness_formula(artifacts)
        names = {v.name for v in bool_variables(phi)}
        assert "NDFetch1" in names
        assert "NDExecute1" in names or "NDExecute2" in names


class TestEndToEndValidity:
    """The gold checks: correct designs valid, buggy ones invalid, under
    both criteria (small configurations, precise memory model)."""

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    def test_correct_designs_are_valid(self, n, k):
        artifacts = run_diagram(ProcessorConfig(n_rob=n, issue_width=k))
        phi = build_correctness_formula(artifacts)
        assert check_validity(phi).valid is True

    @pytest.mark.parametrize("criterion", ["disjunction", "case_split"])
    def test_both_criteria_hold_for_correct_design(self, criterion):
        artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=1))
        phi = build_correctness_formula(artifacts, criterion=criterion)
        assert check_validity(phi).valid is True

    def test_buggy_design_is_invalid(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=2, issue_width=1), bug=forwarding_bug(2)
        )
        phi = build_correctness_formula(artifacts)
        result = check_validity(phi)
        assert result.valid is False
        assert result.counterexample is not None
