"""End-to-end verification of every workload family.

Each family must (a) prove the correct design under both methods and
(b) falsify each of its seeded family-specific bug kinds — the PROVED /
BUG_FOUND round trip the family registry promises.  Configurations are
kept tiny: the precise-memory SAT path grows steeply with the ROB size
for the memory families (that blow-up is the research finding charted in
EXPERIMENTS.md, not something to re-measure in unit tests).
"""

import pytest

from repro.core.verifier import verify
from repro.processor.bugs import Bug, BugKind
from repro.processor.params import ProcessorConfig


class TestProvedAllFamilies:
    @pytest.mark.parametrize("family", ["branch", "mem", "mixed"])
    def test_rewriting_proves_each_family(self, family):
        result = verify(ProcessorConfig(2, 1, family=family))
        assert result.correct is True

    @pytest.mark.parametrize("family", ["branch", "mem", "mixed"])
    def test_positive_equality_proves_each_family(self, family):
        result = verify(
            ProcessorConfig(2, 1, family=family), method="positive_equality"
        )
        assert result.correct is True

    def test_mem_family_with_wide_issue(self):
        result = verify(ProcessorConfig(4, 2, family="mem"))
        assert result.correct is True


class TestRewritingReduction:
    def test_mem_family_reduces_fully(self):
        result = verify(ProcessorConfig(6, 2, family="mem"))
        assert result.correct is True
        assert result.rewrite.reduction == "full"
        assert result.rewrite.proved_entries == list(range(1, 7))
        assert result.rewrite.reduced_dmem_impl is not None
        assert len(result.rewrite.reduced_spec_dmems) == 3

    def test_mem_reduced_formula_is_rob_size_independent(self):
        # The paper's central claim, extended to loads/stores: after the
        # rewriting rules remove the initial entries, the residual SAT
        # problem depends only on the issue width.
        small = verify(ProcessorConfig(3, 2, family="mem"))
        large = verify(ProcessorConfig(10, 2, family="mem"))
        assert small.correct and large.correct

        def shape(result):
            stats = result.encoding_stats
            return (stats.eij_primary, stats.other_primary,
                    stats.cnf_vars, stats.cnf_clauses)

        assert shape(small) == shape(large)

    @pytest.mark.parametrize("family", ["branch", "mixed"])
    def test_branch_families_fall_back_to_the_full_formula(self, family):
        result = verify(ProcessorConfig(2, 1, family=family))
        assert result.correct is True
        assert result.rewrite.reduction == "none"
        assert result.rewrite.rules_applied.get("fallback") == 1
        assert result.rewrite.reduced_formula is not None
        # Where the engine declines to reduce, the rewriting flow builds
        # the same CNF as Positive Equality alone — so a campaign job
        # gains nothing by re-running under the other method.
        baseline = verify(
            ProcessorConfig(2, 1, family=family), method="positive_equality"
        )

        def shape(stats):
            return (stats.cnf_vars, stats.cnf_clauses,
                    stats.eij_primary, stats.other_primary)

        assert shape(result.encoding_stats) == \
            shape(baseline.encoding_stats)

    def test_reg_reg_reduction_is_unchanged(self):
        result = verify(ProcessorConfig(3, 2))
        assert result.correct is True
        assert result.rewrite.reduction == "full"
        assert result.rewrite.reduced_dmem_impl is None


class TestSeededBugsFalsify:
    @pytest.mark.parametrize("method", ["rewriting", "positive_equality"])
    def test_wrong_path_retire(self, method):
        result = verify(
            ProcessorConfig(2, 1, 2, family="branch"),
            method=method,
            bug=Bug(BugKind.WRONG_PATH_RETIRE, entry=2),
        )
        assert result.correct is False

    @pytest.mark.parametrize("method", ["rewriting", "positive_equality"])
    def test_dropped_flush(self, method):
        result = verify(
            ProcessorConfig(2, 1, family="branch"),
            method=method,
            bug=Bug(BugKind.DROPPED_FLUSH, entry=2),
        )
        assert result.correct is False

    def test_stale_load_forward(self):
        # Rewriting only: the smallest config expressing this bug (the
        # load needs two preceding stores, so N=3) already exhausts
        # memory under the precise positive-equality translation — the
        # paper's out-of-memory column, charted in EXPERIMENTS.md.  The
        # mem family's BUG_FOUND path under positive_equality is covered
        # by test_store_order below.
        result = verify(
            ProcessorConfig(3, 1, 2, family="mem"),
            bug=Bug(BugKind.STALE_LOAD_FORWARD, entry=3),
        )
        assert result.correct is False

    @pytest.mark.parametrize("method", ["rewriting", "positive_equality"])
    def test_store_order(self, method):
        result = verify(
            ProcessorConfig(2, 1, 2, family="mem"),
            method=method,
            bug=Bug(BugKind.STORE_ORDER, entry=2),
        )
        assert result.correct is False

    def test_stale_load_forward_is_attributed_to_its_slice(self):
        # The rewriting engine names the offending computation slice, the
        # family analogue of the paper's 72nd-slice experiment.
        result = verify(
            ProcessorConfig(3, 1, 2, family="mem"),
            bug=Bug(BugKind.STALE_LOAD_FORWARD, entry=3),
        )
        assert result.correct is False
        assert result.suspected_entry == 3
        assert "data" in result.failure_detail

    def test_legacy_bug_kinds_still_falsify_in_new_families(self):
        result = verify(
            ProcessorConfig(3, 1, family="mem"),
            bug=Bug(BugKind.FORWARD_WRONG_SOURCE, entry=2),
        )
        assert result.correct is False
        assert result.suspected_entry == 2


class TestCriterionSoundness:
    def test_case_split_rejected_for_branch_families(self):
        with pytest.raises(ValueError, match="case_split.*unsound"):
            verify(
                ProcessorConfig(2, 1, family="branch"),
                method="positive_equality",
                criterion="case_split",
            )

    def test_case_split_still_works_for_mem(self):
        result = verify(
            ProcessorConfig(2, 1, family="mem"),
            method="positive_equality",
            criterion="case_split",
        )
        assert result.correct is True
