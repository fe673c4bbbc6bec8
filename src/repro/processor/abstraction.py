"""The abstraction function: flushing by completion functions.

Applying the abstraction function completes the ROB slots one at a time
in program order (paper Sect. 4).  A completed slot whose
``ValidResult`` bit is true writes its ``Result`` to the destination
register; otherwise the result is computed instantaneously by the ALU
from operands read from the current Register File.  Writes happen only
for valid instructions.  In the branch families a completed taken branch
redirects the PC and sets the wrong-path flag, so every younger slot is
skipped instead of completed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..eufm import builder
from ..eufm.ast import FALSE, Formula, Term
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .isa import ALU, BRANCH_TAKEN, BRANCH_TARGET, MEM_ADDR, writes_reg_file
from .ooo import MachineState, OooProcessor

__all__ = ["flush_range"]


def flush_range(
    proc: OooProcessor, state: MachineState, first_slot: int, last_slot: int
) -> MachineState:
    """Complete slots ``first_slot..last_slot`` (1-based, inclusive), one
    per step, and return the resulting state."""
    if not (1 <= first_slot <= last_slot <= proc.total_slots):
        raise ValueError(
            f"slot range {first_slot}..{last_slot} outside "
            f"1..{proc.total_slots}"
        )
    deadline = current_deadline()
    tracer = current_tracer()
    for number in range(first_slot, last_slot + 1):
        deadline.check("tlsim")
        deadline.tick("tlsim")
        tracer.add("tlsim.cycles", 1)
        rf, dmem, detect, target = _complete(proc, state, number - 1)
        pc, wp = state.pc, state.wp
        if wp is not None:
            wp = builder.or_(wp, detect)
            pc = builder.ite_term(detect, target, pc)
        state = replace(state, pc=pc, rf=rf, dmem=dmem, wp=wp)
    return state


def _complete(
    proc: OooProcessor, state: MachineState, index: int
) -> Tuple[Term, Optional[Term], Formula, Term]:
    """The completion function of slot ``index + 1``.

    Returns the Register File and Data Memory after the completion,
    whether it completed a taken branch, and that branch's target.
    """
    family = proc.family
    slot = state.slots[index]
    isb, isl, iss = proc.kind_flags(slot)
    rf, dmem = state.rf, state.dmem
    if slot.valid is FALSE:
        return rf, dmem, FALSE, slot.result
    complete = slot.valid
    if family.has_branches:
        complete = builder.and_(complete, builder.not_(state.wp))

    operand1 = builder.read(rf, slot.src1)
    operand2 = builder.read(rf, slot.src2)
    data = builder.uf(ALU, [slot.op, operand1, operand2])
    if family.has_memory:
        addr = builder.uf(MEM_ADDR, [slot.op])
        data = builder.ite_term(isl, builder.read(dmem, addr), data)
    data = builder.ite_term(slot.vres, slot.result, data)
    rf_context = builder.and_(complete, writes_reg_file(isb, iss))
    new_rf = builder.ite_term(
        rf_context, builder.write(rf, slot.dest, data), rf
    )
    if family.has_memory:
        store_data = builder.ite_term(
            slot.vres, slot.result, builder.read(rf, slot.src2)
        )
        dmem = builder.ite_term(
            builder.and_(complete, iss),
            builder.write(dmem, addr, store_data),
            dmem,
        )
    detect, target = FALSE, slot.result
    if family.has_branches:
        taken = builder.ite_formula(
            slot.vres,
            slot.taken,
            builder.up(BRANCH_TAKEN, [slot.op, operand1, operand2]),
        )
        target = builder.ite_term(
            slot.vres,
            slot.result,
            builder.uf(BRANCH_TARGET, [slot.op, operand1, operand2]),
        )
        detect = builder.and_(complete, isb, taken)
    return new_rf, dmem, detect, target
