"""Cross-validation properties: the two verification methods must agree.

These are the repository's strongest end-to-end soundness checks: for
randomly drawn small configurations and randomly placed defects, the
rewriting-rules flow and the Positive-Equality-only flow must return the
same verdict — and correct designs must verify under every criterion and
memory model combination.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import Bug, BugKind, ProcessorConfig, verify
from repro.encode import check_validity
from repro.processor import (
    build_correctness_formula,
    build_ooo_processor,
    run_diagram,
)
from repro.rewriting import rewrite_diagram

# Small enough for the PE-only flow, varied enough to be interesting.
SMALL_CONFIGS = [
    ProcessorConfig(n_rob=1, issue_width=1),
    ProcessorConfig(n_rob=2, issue_width=1),
    ProcessorConfig(n_rob=2, issue_width=2),
    ProcessorConfig(n_rob=3, issue_width=1),
    ProcessorConfig(n_rob=3, issue_width=2, retire_width=1),
]

DETECTABLE_BUGS = [
    BugKind.FORWARD_WRONG_SOURCE,
    BugKind.FORWARD_STALE_RESULT,
    BugKind.EXECUTE_IGNORES_HAZARD,
    BugKind.RETIRE_WITHOUT_RESULT,
    BugKind.RETIRE_IGNORES_VALID,
]


def _plantable(config, bug):
    try:
        build_ooo_processor(config, bug)
    except ValueError:
        return False
    return True


class TestMethodAgreementOnCorrectDesigns:
    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    def test_both_methods_say_correct(self, config):
        assert verify(config, method="rewriting").correct
        assert verify(config, method="positive_equality").correct

    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    def test_case_split_criterion_agrees(self, config):
        assert verify(config, criterion="case_split").correct
        assert verify(
            config, method="positive_equality", criterion="case_split"
        ).correct


class TestMethodAgreementOnBuggyDesigns:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(DETECTABLE_BUGS),
        entry=st.integers(1, 3),
        operand=st.sampled_from([1, 2]),
        config_index=st.integers(0, len(SMALL_CONFIGS) - 1),
    )
    def test_random_bug_agreement(self, kind, entry, operand, config_index):
        config = SMALL_CONFIGS[config_index]
        limit = config.n_rob
        if kind in (BugKind.RETIRE_WITHOUT_RESULT, BugKind.RETIRE_IGNORES_VALID):
            limit = config.retire_width
        # The first placement from the drawn entry on that the build
        # accepts (elsewhere the defect would be inert).
        candidates = [
            Bug(kind, entry=e, operand=operand)
            for e in range(min(entry, limit), limit + 1)
        ]
        bug = next((b for b in candidates if _plantable(config, b)), None)
        assume(bug is not None)
        by_rules = verify(config, bug=bug)
        by_pe = verify(config, method="positive_equality", bug=bug)
        assert by_rules.correct == by_pe.correct, (
            f"methods disagree on {bug.describe()} for {config.describe()}: "
            f"rewriting={by_rules.correct}, pe={by_pe.correct}"
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        entry=st.integers(1, 3),
        operand=st.sampled_from([1, 2]),
    )
    def test_forwarding_bug_entry_identified_exactly(self, entry, operand):
        config = ProcessorConfig(n_rob=4, issue_width=2)
        bug = Bug(BugKind.FORWARD_WRONG_SOURCE, entry=entry + 1, operand=operand)
        result = verify(config, bug=bug)
        assert result.correct is False
        assert result.suspected_entry == entry + 1


class TestReducedFormulaSoundness:
    """The reduced formula's verdict must match the full formula's."""

    @pytest.mark.parametrize("config", SMALL_CONFIGS, ids=str)
    def test_correct_design_reduced_matches_full(self, config):
        artifacts = run_diagram(config)
        full = build_correctness_formula(artifacts)
        rewrite = rewrite_diagram(artifacts)
        assert rewrite.succeeded
        full_verdict = check_validity(full).valid
        reduced_verdict = check_validity(
            rewrite.reduced_formula, memory_mode="conservative"
        ).valid
        assert full_verdict is reduced_verdict is True

    def test_pc_bug_reduced_matches_full(self):
        config = ProcessorConfig(n_rob=2, issue_width=2)
        artifacts = run_diagram(config, bug=Bug(BugKind.PC_SINGLE_INCREMENT))
        full = build_correctness_formula(artifacts)
        rewrite = rewrite_diagram(artifacts)
        assert rewrite.succeeded  # PC is outside the ROB data path
        full_verdict = check_validity(full).valid
        reduced_verdict = check_validity(
            rewrite.reduced_formula, memory_mode="conservative"
        ).valid
        assert full_verdict is reduced_verdict is False
