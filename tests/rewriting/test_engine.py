"""Tests for the rewriting engine on simulated diagrams."""

import pytest

from repro.encode import check_validity
from repro.eufm import bool_variables, run_scope, term_variables
from repro.obs.tracer import Tracer, use_tracer
from repro.processor import (
    Bug,
    BugKind,
    ProcessorConfig,
    forwarding_bug,
    run_diagram,
)
from repro.rewriting import decompose_chain, rewrite_diagram


class TestDecomposeChain:
    def test_impl_chain_has_expected_updates(self):
        config = ProcessorConfig(n_rob=3, issue_width=2)
        artifacts = run_diagram(config)
        chain = decompose_chain(artifacts.rf_impl)
        # l retirement + (N + k) completion updates.
        assert len(chain.items) == 2 + 3 + 2
        assert chain.base is artifacts.initial_rf

    def test_spec_chain_has_one_update_per_initial_entry(self):
        config = ProcessorConfig(n_rob=3, issue_width=2)
        artifacts = run_diagram(config)
        chain = decompose_chain(artifacts.spec_states[0].reg_file)
        assert len(chain.items) == 3

    def test_state_after(self):
        config = ProcessorConfig(n_rob=2, issue_width=1)
        artifacts = run_diagram(config)
        chain = decompose_chain(artifacts.spec_states[0].reg_file)
        assert chain.state_after(0) is chain.base
        assert chain.state_after(2) is artifacts.spec_states[0].reg_file


class TestRewriteCorrectDesigns:
    @pytest.mark.parametrize(
        "n,k", [(1, 1), (2, 1), (2, 2), (4, 2), (8, 4), (16, 8)]
    )
    def test_all_entries_proved(self, n, k):
        artifacts = run_diagram(ProcessorConfig(n_rob=n, issue_width=k))
        result = rewrite_diagram(artifacts)
        assert result.succeeded, result.failure
        assert result.proved_entries == list(range(1, n + 1))
        assert result.reduced_formula is not None

    def test_reduced_formula_is_valid(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=4, issue_width=2))
        result = rewrite_diagram(artifacts)
        validity = check_validity(result.reduced_formula, memory_mode="conservative")
        assert validity.valid is True

    def test_reduced_formula_independent_of_rob_size(self):
        """Table 5's property: after rewriting, the formula depends only on
        the newly fetched instructions."""
        stats = []
        for n in (4, 8, 16):
            artifacts = run_diagram(ProcessorConfig(n_rob=n, issue_width=2))
            result = rewrite_diagram(artifacts)
            validity = check_validity(
                result.reduced_formula, memory_mode="conservative"
            )
            s = validity.encoded.stats
            stats.append((s.eij_primary, s.other_primary, s.cnf_clauses))
        assert stats[0] == stats[1] == stats[2]

    def test_no_eij_variables_after_rewriting(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=6, issue_width=2))
        result = rewrite_diagram(artifacts)
        validity = check_validity(result.reduced_formula, memory_mode="conservative")
        assert validity.encoded.stats.eij_primary == 0

    def test_reduced_formula_mentions_no_initial_rob_state(self):
        """The rewriting rules eliminate the variables of the initial ROB
        entries (paper Sect. 7.2)."""
        artifacts = run_diagram(ProcessorConfig(n_rob=4, issue_width=1))
        result = rewrite_diagram(artifacts)
        names = {v.name for v in bool_variables(result.reduced_formula)}
        assert not any(name.startswith("Valid") for name in names)
        assert not any(name.startswith("NDExecute") for name in names)
        term_names = {v.name for v in term_variables(result.reduced_formula)}
        assert not any(name.startswith("Result") for name in term_names)
        assert not any(name.startswith("Dest") for name in term_names)

    def test_case_split_criterion_also_valid(self):
        artifacts = run_diagram(ProcessorConfig(n_rob=3, issue_width=2))
        result = rewrite_diagram(artifacts, criterion="case_split")
        validity = check_validity(result.reduced_formula, memory_mode="conservative")
        assert validity.valid is True


def _rewrite_counters(n, k, family="reg-reg"):
    """The rewrite span's counters of one run on an empty intern table,
    as ``verify`` runs it: a table that still held another run's
    variables would give them older uids than this run's chains."""
    with run_scope():
        artifacts = run_diagram(
            ProcessorConfig(n_rob=n, issue_width=k, family=family)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = rewrite_diagram(artifacts)
    assert result.succeeded, result.failure
    return tracer.root.counters


class TestCaseCone:
    def test_cone_nodes_grow_linearly_with_the_rob(self):
        """Each entry's rule-3 walks rebuild a cone of bounded size, so
        doubling N about doubles the summed count; walks that rebuilt the
        older entries' forwarding chains would grow it quadratically.
        Unlike CPU time, the count shows that even at small N."""
        small, large = (
            _rewrite_counters(n, 2)["rewrite.cone_nodes"] for n in (32, 64)
        )
        assert 0 < large <= 2.1 * small

    @pytest.mark.parametrize("family", ["reg-reg", "mem"])
    def test_cone_visits_grow_linearly_with_the_rob(self, family):
        """The walk that finds each cone visits the cone and the nodes
        just outside it, about twice the cone (reg-reg 770 -> 1,538 and
        mem 2,270 -> 4,542 visits at N=32 -> 64), not the older entries'
        chains beneath it: a walk through those grew 3.8 times."""
        small, large = (_rewrite_counters(n, 2, family) for n in (32, 64))
        assert 0 < large["rewrite.cone_visits"] <= (
            2.1 * small["rewrite.cone_visits"])
        for counters in (small, large):
            assert counters["rewrite.cone_visits"] <= (
                2.5 * counters["rewrite.cone_nodes"])

    def test_forwarding_levels_grow_quadratically_with_the_rob(self):
        """Each operand's forwarding walk compares one level per older
        update on its register file, so the summed count about
        quadruples when N doubles: the walk left quadratic in N."""
        small, large = (
            _rewrite_counters(n, 2)["rewrite.forwarding_levels"]
            for n in (32, 64)
        )
        assert 3.5 * small <= large <= 4.1 * small


class TestRewriteBuggyDesigns:
    def test_forwarding_bug_flags_exact_slice(self):
        """The paper's experiment: the engine names the offending slice."""
        artifacts = run_diagram(
            ProcessorConfig(n_rob=16, issue_width=2), bug=forwarding_bug(11)
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.entry == 11
        assert result.failure.stage == "data"

    def test_second_operand_bug(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=8, issue_width=2),
            bug=Bug(BugKind.FORWARD_STALE_RESULT, entry=5, operand=2),
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.entry == 5
        assert "operand 2" in result.failure.detail

    def test_hazard_bug_detected(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=6, issue_width=2),
            bug=Bug(BugKind.EXECUTE_IGNORES_HAZARD, entry=4),
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.entry == 4

    def test_retire_without_result_fails_data_rule(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=4, issue_width=2),
            bug=Bug(BugKind.RETIRE_WITHOUT_RESULT, entry=2),
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.stage in ("data", "merge")

    def test_out_of_order_retirement_fails_reorder_rule(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=4, issue_width=3),
            bug=Bug(BugKind.RETIRE_OUT_OF_ORDER, entry=3),
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.stage in ("reorder", "merge", "data")

    def test_retire_ignores_valid_fails_merge_rule(self):
        artifacts = run_diagram(
            ProcessorConfig(n_rob=4, issue_width=2),
            bug=Bug(BugKind.RETIRE_IGNORES_VALID, entry=1),
        )
        result = rewrite_diagram(artifacts)
        assert not result.succeeded
        assert result.failure.stage == "merge"

    def test_pc_bug_passes_rewriting_fails_reduced_formula(self):
        """A control bug outside the ROB data path is invisible to the
        rewriting rules and must be caught by the reduced formula."""
        artifacts = run_diagram(
            ProcessorConfig(n_rob=4, issue_width=2),
            bug=Bug(BugKind.PC_SINGLE_INCREMENT),
        )
        result = rewrite_diagram(artifacts)
        assert result.succeeded
        validity = check_validity(result.reduced_formula, memory_mode="conservative")
        assert validity.valid is False

    def test_bugs_are_not_false_negatives(self):
        """Cross-check on a small configuration: every defect the rules
        flag is confirmed invalid by the precise Positive-Equality flow."""
        from repro.processor import build_correctness_formula

        for bug in (
            forwarding_bug(2),
            Bug(BugKind.RETIRE_WITHOUT_RESULT, entry=1),
        ):
            artifacts = run_diagram(ProcessorConfig(n_rob=2, issue_width=1), bug=bug)
            rewrite = rewrite_diagram(artifacts)
            assert not rewrite.succeeded
            phi = build_correctness_formula(artifacts)
            assert check_validity(phi).valid is False
