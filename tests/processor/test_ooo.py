"""Tests for the abstract out-of-order implementation model."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    Interpretation,
    bvar,
    eq,
    evaluate,
    read,
    tvar,
    uf,
)
from repro.processor import (
    Bug,
    BugKind,
    ProcessorConfig,
    build_ooo_processor,
    flush_range,
    regular_step,
)
from repro.processor.isa import NEXT_PC


def _build(n=2, k=1):
    return build_ooo_processor(ProcessorConfig(n_rob=n, issue_width=k))


def _step(n=2, k=1):
    proc = _build(n=n, k=k)
    return proc, regular_step(proc, proc.initial)


class TestConstruction:
    def test_slot_count(self):
        proc = _build(n=4, k=2)
        assert len(proc.initial.slots) == 6
        assert len(proc.nd_execute) == 4
        assert len(proc.nd_fetch) == 2
        assert proc.total_slots == 6

    def test_initial_state_variables_recorded(self):
        proc = _build(n=2, k=1)
        for name in ("Valid1", "ValidResult2", "Dest1", "Src1_2", "Result1", "PC"):
            assert name in proc.vars

    def test_fetch_slots_start_invalid(self):
        proc = _build(n=2, k=2)
        assert proc.initial.slots[2].valid is FALSE
        assert proc.initial.slots[3].valid is FALSE


class TestRegularOperation:
    def test_pc_advances_by_fetch_count(self):
        _, state = _step(n=2, k=2)
        pc = state.pc
        # PC_Impl = ITE(fetch_2, NextPC^2(PC), ITE(fetch_1, NextPC(PC), PC)).
        interp = Interpretation(bool_values={"NDFetch1": True, "NDFetch2": True})
        two = uf(NEXT_PC, [uf(NEXT_PC, [tvar("PC")])])
        assert evaluate(eq(pc, two), interp) is True
        interp = Interpretation(bool_values={"NDFetch1": True, "NDFetch2": False})
        one = uf(NEXT_PC, [tvar("PC")])
        assert evaluate(eq(pc, one), interp) is True
        interp = Interpretation(bool_values={"NDFetch1": False, "NDFetch2": True})
        assert evaluate(eq(pc, tvar("PC")), interp) is True

    def test_retired_instruction_writes_register_file(self):
        _, state = _step(n=1, k=1)
        rf = state.rf
        probe = tvar("Dest1")
        value = read(rf, probe)
        # Valid & ValidResult -> retires, writing Result1 to Dest1.
        interp = Interpretation(
            domain_size=4,
            bool_values={"Valid1": True, "ValidResult1": True, "NDFetch1": False},
        )
        assert evaluate(eq(value, tvar("Result1")), interp) is True

    def test_unretired_instruction_does_not_write(self):
        _, state = _step(n=1, k=1)
        rf = state.rf
        value = read(rf, tvar("Dest1"))
        baseline = read(tvar("RegFile"), tvar("Dest1"))
        interp = Interpretation(
            domain_size=4,
            bool_values={
                "Valid1": True,
                "ValidResult1": False,
                "NDFetch1": False,
                "NDExecute1": False,
            },
        )
        assert evaluate(eq(value, baseline), interp) is True

    def test_in_order_retirement(self):
        """Entry 2 cannot retire when entry 1 has no result yet."""
        _, state = _step(n=2, k=2)
        rf = state.rf
        value = read(rf, tvar("Dest2"))
        baseline = read(tvar("RegFile"), tvar("Dest2"))
        interp = Interpretation(
            domain_size=5,
            bool_values={
                "Valid1": True,
                "ValidResult1": False,  # blocks retirement of entry 2
                "Valid2": True,
                "ValidResult2": True,
                "NDFetch1": False,
                "NDFetch2": False,
                "NDExecute1": False,
                "NDExecute2": False,
            },
            term_values={"Dest1": 0, "Dest2": 1},
        )
        assert evaluate(eq(value, baseline), interp) is True

    def test_execution_forwards_from_producer(self):
        """Entry 2 executing out of order forwards Result1 when its source
        matches Dest1 and entry 1 has a result."""
        _, state = _step(n=2, k=1)
        vres2 = state.slots[1].vres
        interp = Interpretation(
            domain_size=5,
            bool_values={
                "Valid1": True,
                "ValidResult1": True,
                "Valid2": True,
                "ValidResult2": False,
                "NDExecute1": False,
                "NDExecute2": True,
                "NDFetch1": False,
            },
            term_values={"Dest1": 2, "Src1_2": 2, "Src2_2": 3, "Dest2": 4},
        )
        assert evaluate(vres2, interp) is True

    def test_execution_stalls_on_pending_producer(self):
        _, state = _step(n=2, k=1)
        vres2 = state.slots[1].vres
        interp = Interpretation(
            domain_size=5,
            bool_values={
                "Valid1": True,
                "ValidResult1": False,  # producer has no result yet
                "Valid2": True,
                "ValidResult2": False,
                "NDExecute1": False,
                "NDExecute2": True,
                "NDFetch1": False,
            },
            term_values={"Dest1": 2, "Src1_2": 2, "Src2_2": 3, "Dest2": 4},
        )
        assert evaluate(vres2, interp) is False

    def test_nd_execute_gates_execution(self):
        _, state = _step(n=1, k=1)
        vres1 = state.slots[0].vres
        interp = Interpretation(
            bool_values={
                "Valid1": True,
                "ValidResult1": False,
                "NDExecute1": False,
                "NDFetch1": False,
            },
        )
        assert evaluate(vres1, interp) is False


class TestFlush:
    def test_flush_preserves_pc(self):
        proc, state = _step(n=2, k=1)
        flushed = flush_range(proc, state, 1, proc.total_slots)
        assert flushed.pc is state.pc

    def test_flush_of_initial_state_completes_all_valid(self):
        """Flushing the initial state writes every valid instruction's
        completion data in program order."""
        proc = _build(n=2, k=1)
        rf = flush_range(proc, proc.initial, 1, proc.total_slots).rf
        value = read(rf, tvar("Dest2"))
        interp = Interpretation(
            domain_size=5,
            bool_values={
                "Valid1": False,
                "Valid2": True,
                "ValidResult2": True,
            },
        )
        assert evaluate(eq(value, tvar("Result2")), interp) is True

    def test_program_order_of_completions(self):
        """When two valid entries share a destination, the later one wins."""
        proc = _build(n=2, k=1)
        rf = flush_range(proc, proc.initial, 1, proc.total_slots).rf
        value = read(rf, tvar("Dest1"))
        interp = Interpretation(
            domain_size=5,
            bool_values={
                "Valid1": True,
                "ValidResult1": True,
                "Valid2": True,
                "ValidResult2": True,
            },
            term_values={"Dest1": 2, "Dest2": 2},
        )
        assert evaluate(eq(value, tvar("Result2")), interp) is True

    def test_invalid_entries_do_not_write(self):
        proc = _build(n=1, k=1)
        rf = flush_range(proc, proc.initial, 1, proc.total_slots).rf
        interp = Interpretation(bool_values={"Valid1": False})
        probe = tvar("anywhere")
        assert (
            evaluate(eq(read(rf, probe), read(tvar("RegFile"), probe)), interp)
            is True
        )

    def test_flush_range_validates_bounds(self):
        proc = _build(n=2, k=1)
        with pytest.raises(ValueError):
            flush_range(proc, proc.initial, 0, 1)
        with pytest.raises(ValueError):
            flush_range(proc, proc.initial, 1, 99)


class TestBugPlacement:
    """A defect is planted only where the design has logic for it."""

    @pytest.mark.parametrize(
        "kind,config,entry",
        [
            # No older producer for slice 1 to mis-compare or wait for.
            (BugKind.FORWARD_WRONG_SOURCE, ProcessorConfig(4, 2), 1),
            (BugKind.EXECUTE_IGNORES_HAZARD, ProcessorConfig(4, 2), 1),
            (BugKind.FORWARD_WRONG_SOURCE, ProcessorConfig(4, 2), 5),
            # Stale forwarding needs two older producers.
            (BugKind.FORWARD_STALE_RESULT, ProcessorConfig(4, 2), 2),
            (BugKind.STALE_LOAD_FORWARD, ProcessorConfig(4, 2, family="mem"), 2),
            # Retirement defects live in the l retirement slots.
            (BugKind.RETIRE_WITHOUT_RESULT, ProcessorConfig(4, 2), 3),
            (BugKind.RETIRE_IGNORES_VALID, ProcessorConfig(4, 2), 3),
            # ... and the order defects need an older neighbour.
            (BugKind.RETIRE_OUT_OF_ORDER, ProcessorConfig(4, 2), 1),
            (BugKind.STORE_ORDER, ProcessorConfig(4, 2, family="mem"), 1),
            (BugKind.STORE_ORDER, ProcessorConfig(4, 2, family="mem"), 3),
            (BugKind.WRONG_PATH_RETIRE, ProcessorConfig(4, 2, family="branch"), 1),
            # A dropped flush needs an older entry to squash the slot.
            (BugKind.DROPPED_FLUSH, ProcessorConfig(2, 1, family="branch"), 1),
            (BugKind.DROPPED_FLUSH, ProcessorConfig(2, 1, family="branch"), 4),
            # One NextPC per fetch group is only wrong for groups of two.
            (BugKind.PC_SINGLE_INCREMENT, ProcessorConfig(4, 1), 1),
        ],
    )
    def test_inert_placement_rejected(self, kind, config, entry):
        with pytest.raises(ValueError, match=kind):
            build_ooo_processor(config, bug=Bug(kind, entry=entry))

    @pytest.mark.parametrize(
        "kind,config,entry",
        [
            (BugKind.FORWARD_WRONG_SOURCE, ProcessorConfig(4, 2), 2),
            (BugKind.EXECUTE_IGNORES_HAZARD, ProcessorConfig(4, 2), 4),
            (BugKind.FORWARD_STALE_RESULT, ProcessorConfig(4, 2), 3),
            (BugKind.STALE_LOAD_FORWARD, ProcessorConfig(4, 2, family="mem"), 4),
            (BugKind.RETIRE_WITHOUT_RESULT, ProcessorConfig(4, 2), 1),
            (BugKind.RETIRE_IGNORES_VALID, ProcessorConfig(4, 2), 2),
            (BugKind.RETIRE_OUT_OF_ORDER, ProcessorConfig(4, 2), 2),
            (BugKind.STORE_ORDER, ProcessorConfig(4, 2, family="mem"), 2),
            (BugKind.WRONG_PATH_RETIRE, ProcessorConfig(4, 2, family="branch"), 2),
            (BugKind.DROPPED_FLUSH, ProcessorConfig(2, 1, family="branch"), 2),
            (BugKind.DROPPED_FLUSH, ProcessorConfig(2, 1, family="branch"), 3),
            (BugKind.PC_SINGLE_INCREMENT, ProcessorConfig(4, 2), 1),
        ],
    )
    def test_live_placement_accepted(self, kind, config, entry):
        proc = build_ooo_processor(config, bug=Bug(kind, entry=entry))
        assert proc.bug.entry == entry
