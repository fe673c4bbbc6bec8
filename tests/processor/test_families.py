"""The workload-family registry and its plumbing through the stack."""

import pytest

from repro.campaign.jobs import Job
from repro.eufm.ast import FALSE, TRUE
from repro.processor.bugs import Bug, BugKind
from repro.processor.families import (
    DEFAULT_FAMILY,
    FAMILIES,
    family_names,
    get_family,
)
from repro.processor.isa import kind_precedence, writes_reg_file
from repro.processor.ooo import build_ooo_processor
from repro.processor.params import ProcessorConfig

from repro.eufm import builder


class TestRegistry:
    def test_the_four_families(self):
        assert family_names() == ("reg-reg", "branch", "mem", "mixed")
        assert DEFAULT_FAMILY == "reg-reg"

    def test_capabilities(self):
        assert not FAMILIES["reg-reg"].has_branches
        assert not FAMILIES["reg-reg"].has_memory
        assert FAMILIES["branch"].has_branches
        assert not FAMILIES["branch"].has_memory
        assert not FAMILIES["mem"].has_branches
        assert FAMILIES["mem"].has_memory
        assert FAMILIES["mixed"].has_branches
        assert FAMILIES["mixed"].has_memory

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown workload family"):
            get_family("vliw")

    def test_every_family_lists_exercisable_bug_kinds(self):
        for family in FAMILIES.values():
            assert family.bug_kinds, family.name
            for kind in family.bug_kinds:
                assert kind in BugKind.ALL
                # Each listed kind must pass the capability gate.
                Bug(kind, entry=1).check_family(family)

    def test_branch_and_memory_kinds_only_in_capable_families(self):
        assert set(BugKind.NEEDS_BRANCHES) <= set(FAMILIES["branch"].bug_kinds)
        assert set(BugKind.NEEDS_MEMORY) <= set(FAMILIES["mem"].bug_kinds)
        assert not set(BugKind.NEEDS_BRANCHES) & set(FAMILIES["mem"].bug_kinds)
        assert not set(BugKind.NEEDS_MEMORY) & set(
            FAMILIES["branch"].bug_kinds
        )


class TestConfigPlumbing:
    def test_default_family_keeps_seed_describe(self):
        config = ProcessorConfig(4, 2)
        assert config.family == "reg-reg"
        assert "family" not in config.describe()

    def test_non_default_family_in_describe(self):
        config = ProcessorConfig(4, 2, family="mem")
        assert "family mem" in config.describe()

    def test_unknown_family_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown workload family"):
            ProcessorConfig(4, 2, family="vliw")

    def test_family_spec_resolves(self):
        assert ProcessorConfig(4, 2, family="mixed").family_spec.has_memory


class TestKindPrecedence:
    def test_reg_reg_pins_every_kind_to_false(self):
        b, l, s = builder.bvar("b"), builder.bvar("l"), builder.bvar("s")
        isb, isl, iss = kind_precedence(get_family("reg-reg"), b, l, s)
        assert isb is FALSE and isl is FALSE and iss is FALSE

    def test_branch_family_pins_memory_kinds(self):
        b, l, s = builder.bvar("b"), builder.bvar("l"), builder.bvar("s")
        isb, isl, iss = kind_precedence(get_family("branch"), b, l, s)
        assert isb is b and isl is FALSE and iss is FALSE

    def test_mixed_kinds_are_mutually_exclusive(self):
        from repro.eufm import Interpretation, evaluate

        b, l, s = builder.bvar("b"), builder.bvar("l"), builder.bvar("s")
        isb, isl, iss = kind_precedence(get_family("mixed"), b, l, s)
        for seed in range(16):
            interp = Interpretation(domain_size=3, seed=seed)
            flags = [evaluate(k, interp) for k in (isb, isl, iss)]
            assert sum(flags) <= 1

    def test_writes_reg_file_collapses_for_reg_reg(self):
        assert writes_reg_file(FALSE, FALSE) is TRUE


class TestBugGating:
    def test_branch_bug_rejected_in_memory_family(self):
        with pytest.raises(ValueError, match="branch logic"):
            Bug(BugKind.DROPPED_FLUSH).check_family(get_family("mem"))

    def test_memory_bug_rejected_in_branch_family(self):
        with pytest.raises(ValueError, match="load-store logic"):
            Bug(BugKind.STORE_ORDER).check_family(get_family("branch"))

    def test_build_rejects_inexpressible_bug(self):
        with pytest.raises(ValueError, match="branch logic"):
            build_ooo_processor(
                ProcessorConfig(2, 1), bug=Bug(BugKind.WRONG_PATH_RETIRE)
            )

    def test_mixed_family_accepts_all_kinds(self):
        mixed = get_family("mixed")
        for kind in BugKind.ALL:
            Bug(kind).check_family(mixed)


class TestCircuitShape:
    def test_reg_reg_circuit_has_no_family_signals(self):
        state = build_ooo_processor(ProcessorConfig(2, 1)).initial
        assert state.dmem is None
        assert state.wp is None
        assert all(
            slot.kb is FALSE and slot.kl is FALSE and slot.ks is FALSE
            for slot in state.slots
        )
        assert all(slot.taken is FALSE for slot in state.slots)

    def test_mem_circuit_has_data_memory(self):
        proc = build_ooo_processor(ProcessorConfig(2, 1, family="mem"))
        state = proc.initial
        assert state.dmem is proc.vars["DMem"]
        assert state.slots[0].kl is proc.vars["IsLoad1"]
        assert state.slots[0].ks is proc.vars["IsStore1"]
        assert state.wp is None

    def test_branch_circuit_has_recovery_state(self):
        proc = build_ooo_processor(ProcessorConfig(2, 1, family="branch"))
        state = proc.initial
        assert state.wp is FALSE
        assert state.slots[0].kb is proc.vars["IsBranch1"]
        assert state.slots[0].taken is proc.vars["Taken1"]
        assert state.dmem is None


class TestJobPlumbing:
    def test_job_family_reaches_the_config(self):
        job = Job.build(4, 2, family="mem")
        assert job.config().family == "mem"
        assert job.job_id.endswith("-mem")

    def test_default_family_keeps_seed_job_ids(self):
        assert Job.build(4, 2).job_id == "rw-N4-k2"

    def test_job_round_trips_family(self):
        job = Job.build(4, 2, family="mixed")
        assert Job.from_dict(job.to_dict()) == job
