"""The abstract out-of-order implementation processor (paper Sect. 3–4).

The design of Fig. 1, abstracted exactly the way the paper describes:

* The reorder buffer is ``N + k`` slots: the first ``N`` hold the
  instructions initially in the ROB (fields ``Valid``, ``ValidResult``,
  ``Opcode``, ``Dest``, ``Src1``, ``Src2``, ``Result`` — all symbolic
  initial state), and the last ``k`` accept the newly fetched instructions.
* Scheduling is nondeterministic: fresh Boolean variables ``NDFetch_j``
  form the monotone fetch signals ``fetch_j = NDFetch_1 & .. & NDFetch_j``,
  and ``NDExecute_i`` abstracts the `execute_i` control of each slice.
* The hazard-resolution (stall/forwarding) logic is fully instantiated:
  an instruction is ready when each operand can be read from the Register
  File or forwarded from the ``Result`` field of the *latest* preceding
  valid producer, which must already have its result.
* Retirement is in program order, up to ``l`` per cycle, per formula (1).
* Flushing (the abstraction function, :func:`repro.processor.abstraction.
  flush_range`) completes one slot per step.

The processor is simulated directly: :class:`MachineState` holds the
machine state as terms and formulas, and :func:`regular_step` builds the
state after one cycle of regular operation from the per-slice next-state
functions below.

Workload families (:mod:`repro.processor.families`) extend the design:

* *branch*: every entry carries an ``IsBranch`` kind bit and a ``Taken``
  outcome.  A branch executes like an ALU op but computes
  ``BranchTarget``/``BranchTaken`` of its operands into the
  ``Result``/``Taken`` fields.  Fetch is speculative (predict not-taken:
  the fall-through ``NextPC`` chain).  Misprediction is detected at
  retirement: a retiring taken branch redirects the PC to its target,
  squashes every younger ROB entry and the instructions fetched in the
  same cycle, and blocks younger retirement slots.  The abstraction
  function performs the same recovery for branches still in the ROB: a
  wrong-path flag ``wp`` accumulates over the flush steps, each
  completed taken branch redirects the PC, and wrong-path slots are
  skipped instead of completed.
* *mem*: a Data Memory (``dmem``) joins the architectural state.  Every
  entry carries ``IsLoad``/``IsStore`` kind bits; the effective address is
  the uninterpreted ``MemAddr(op)``.  Stores compute their data (the
  second operand) at execution and commit to the Data Memory *in program
  order at retirement*; loads executing out of order forward from the
  latest preceding store to the same address (store-to-load forwarding)
  and fall through to a Data-Memory read, and may only execute once every
  matching preceding store has its data.

The builder plays the role of the paper's "C program, taking as parameters
the size of the ROB and the issue width"; ``bug`` plants the defects of
:mod:`repro.processor.bugs`.  For the ``reg-reg`` family every kind flag
is the constant ``FALSE`` and the builder's constant folding collapses
the generated formulas to exactly the seed model's.

Build order is part of the output: ``and_``, ``or_`` and ``eq`` sort
their operands by node uid, so the order in which nodes are first built
shows in every formula, and through it in the CNF and the SAT search.
:func:`regular_step` therefore builds the slices in one fixed order:
every slot's kind flags; the fetch conditions youngest first (with the
fetch slots and the PC, unless the family has branches); the execution
slices youngest first; the retirement slots oldest first, each followed
by the Valid bits it decides (youngest first), the stores it commits and
its Register-File write; then, for branch families, the misprediction
recovery, the fetch slots youngest first and the PC.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..eufm import builder
from ..eufm.ast import FALSE, TRUE, Expr, Formula, Term
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .bugs import Bug, BugKind
from .families import Family
from .isa import (
    ALU,
    BRANCH_TAKEN,
    BRANCH_TARGET,
    INSTR_DEST,
    INSTR_IS_BRANCH,
    INSTR_IS_LOAD,
    INSTR_IS_STORE,
    INSTR_OP,
    INSTR_SRC1,
    INSTR_SRC2,
    INSTR_VALID,
    MEM_ADDR,
    NEXT_PC,
    kind_precedence,
    writes_reg_file,
)
from .params import ProcessorConfig

__all__ = [
    "MachineState",
    "OooProcessor",
    "Slot",
    "build_ooo_processor",
    "regular_step",
]

#: prioritized (is-branch, is-load, is-store) flags of one slot.
KindFlags = Tuple[Formula, Formula, Formula]


@dataclass(frozen=True)
class Slot:
    """The fields of one ROB slot.

    The kind bits and the branch outcome stay ``FALSE`` in families
    without the capability.
    """

    valid: Formula
    vres: Formula
    op: Term
    dest: Term
    src1: Term
    src2: Term
    result: Term
    #: raw kind bits: IsBranch (branch families), IsLoad/IsStore (memory
    #: families).
    kb: Formula = FALSE
    kl: Formula = FALSE
    ks: Formula = FALSE
    #: branch outcome (branch families).
    taken: Formula = FALSE


@dataclass(frozen=True)
class MachineState:
    """The implementation state: PC, Register File and the ROB slots."""

    pc: Term
    rf: Term
    slots: Tuple[Slot, ...]
    #: the Data Memory (memory families).
    dmem: Optional[Term] = None
    #: the wrong-path flag accumulated by the abstraction function
    #: (branch families).
    wp: Optional[Formula] = None


@dataclass
class OooProcessor:
    """The implementation's parameters and symbolic initial state."""

    config: ProcessorConfig
    bug: Optional[Bug]
    initial: MachineState
    #: the nondeterministic scheduling inputs NDExecute_i and NDFetch_j.
    nd_execute: List[Formula]
    nd_fetch: List[Formula]
    #: the symbolic variables of the initial state, by conventional name.
    vars: Dict[str, Expr]

    @property
    def total_slots(self) -> int:
        return self.config.total_slots

    @property
    def family(self) -> Family:
        return self.config.family_spec

    def kind_flags(self, slot: Slot) -> KindFlags:
        """The prioritized (is-branch, is-load, is-store) of ``slot``."""
        return kind_precedence(self.family, slot.kb, slot.kl, slot.ks)

    def planted(self, kind: str, entry: int, operand: Optional[int] = None) -> bool:
        """Is the defect ``kind`` planted at ``entry`` (and ``operand``)?"""
        bug = self.bug
        return (
            bug is not None
            and bug.kind == kind
            and bug.entry == entry
            and (operand is None or bug.operand == operand)
        )


def build_ooo_processor(
    config: ProcessorConfig, bug: Optional[Bug] = None
) -> OooProcessor:
    """Generate the abstract OOO implementation for ``config``."""
    n, k = config.n_rob, config.issue_width
    family = config.family_spec
    if bug is not None:
        bug.check(config)
    has_b, has_m = family.has_branches, family.has_memory
    vars_by_name: Dict[str, Expr] = {}

    def var(make, name: str) -> Expr:
        vars_by_name[name] = expr = make(name)
        return expr

    tvar, bvar = builder.tvar, builder.bvar
    pc = var(tvar, "PC")
    rf = var(tvar, "RegFile")
    dmem = var(tvar, "DMem") if has_m else None
    slots: List[Slot] = []
    for i in range(1, n + 1):
        fields = dict(
            valid=var(bvar, f"Valid{i}"),
            vres=var(bvar, f"ValidResult{i}"),
            op=var(tvar, f"Op{i}"),
            dest=var(tvar, f"Dest{i}"),
            src1=var(tvar, f"Src1_{i}"),
            src2=var(tvar, f"Src2_{i}"),
            result=var(tvar, f"Result{i}"),
        )
        if has_b:
            fields.update(
                kb=var(bvar, f"IsBranch{i}"), taken=var(bvar, f"Taken{i}")
            )
        if has_m:
            fields.update(
                kl=var(bvar, f"IsLoad{i}"), ks=var(bvar, f"IsStore{i}")
            )
        slots.append(Slot(**fields))
    # The fetch slots start empty; their free fields are never recorded.
    for j in range(1, k + 1):
        slots.append(
            Slot(
                valid=FALSE,
                vres=FALSE,
                op=tvar(f"FreeOp{j}"),
                dest=tvar(f"FreeDest{j}"),
                src1=tvar(f"FreeSrc1_{j}"),
                src2=tvar(f"FreeSrc2_{j}"),
                result=tvar(f"FreeResult{j}"),
            )
        )
    return OooProcessor(
        config=config,
        bug=bug,
        initial=MachineState(
            pc=pc,
            rf=rf,
            slots=tuple(slots),
            dmem=dmem,
            wp=FALSE if has_b else None,
        ),
        nd_execute=[bvar(f"NDExecute{i}") for i in range(1, n + 1)],
        nd_fetch=[bvar(f"NDFetch{j}") for j in range(1, k + 1)],
        vars=vars_by_name,
    )


# ----------------------------------------------------------------------
# One cycle of regular operation
# ----------------------------------------------------------------------


def regular_step(proc: OooProcessor, state: MachineState) -> MachineState:
    """The state after one cycle of regular operation.

    Retires up to ``l`` instructions, lets every initial entry execute
    (nondeterministically, when ready) and fetches up to ``k`` new ones,
    building the slices in the order the module docstring gives.
    """
    deadline = current_deadline()
    deadline.check("tlsim")
    current_tracer().add("tlsim.cycles", 1)
    config = proc.config
    n, k, l = config.n_rob, config.issue_width, config.retire_width
    has_b = proc.family.has_branches
    slots = state.slots
    flags = [proc.kind_flags(slot) for slot in slots]

    # Fetch conditions, youngest first; without branches nothing the
    # fetch slots read depends on retirement.
    fetch: List[Formula] = [FALSE] * k
    fetched = list(slots[n:])
    pc = state.pc
    for j in reversed(range(k)):
        fetch[j] = builder.and_(*proc.nd_fetch[: j + 1])
        if not has_b:
            deadline.tick("tlsim")
            fetched[j] = _fetch_slot(proc, state, j, fetch[j], FALSE)
    if not has_b:
        pc = _next_pc(proc, state.pc, fetch, FALSE, state.pc)

    # Execution slices, youngest first.
    wrf = [writes_reg_file(isb, iss) for isb, _, iss in flags[: n - 1]]
    executed: List[Tuple[Term, Formula, Formula]] = [None] * n
    for i in reversed(range(n)):
        deadline.tick("tlsim")
        executed[i] = _execute(proc, state, flags, wrf, i)

    # Retirement, oldest first (formula (1)).  Each slot is followed by
    # the Valid bits it decides, youngest first, then by the stores it
    # lets commit (in commit order) and by its Register-File write.
    commit_order = list(range(l))
    bug = proc.bug
    if bug is not None and bug.kind == BugKind.STORE_ORDER:
        # The planted defect: the memory write of this retirement slot is
        # sequenced *before* its older neighbor's, so when both stores
        # hit the same address the younger one's data is overwritten by
        # the older one's.
        e = bug.entry - 1
        commit_order[e - 1], commit_order[e] = commit_order[e], commit_order[e - 1]
    # A store commits once it and every store sequenced before it retired.
    commits_after: List[List[int]] = [[] for _ in range(l)]
    latest = 0
    for entry in commit_order:
        latest = max(latest, entry)
        commits_after[latest].append(entry)
    retire: List[Formula] = []
    mispred: List[Formula] = []
    valid = [slot.valid for slot in slots[:n]]
    rf, dmem = state.rf, state.dmem
    for i in range(l):
        deadline.tick("tlsim")
        retire_i, mispred_i = _retire(
            proc, slots[i], flags[i][0], i + 1,
            retire[-1] if retire else TRUE,
            mispred[-1] if mispred else FALSE,
        )
        retire.append(retire_i)
        mispred.append(mispred_i)
        decided = list(range(n - 1, l - 1, -1)) if i == l - 1 else []
        for m in decided + [i]:
            valid[m] = _next_valid(proc, slots[m].valid, m, retire, mispred)
        if dmem is not None:
            for e in commits_after[i]:
                dmem = _commit_store(dmem, slots[e], flags[e][2], retire[e])
        rf = _retire_write(proc, rf, slots[i], flags[i], retire_i, i + 1)

    if has_b:
        mispredict, redirect = _recovery(state, flags, retire)
        for j in reversed(range(k)):
            deadline.tick("tlsim")
            fetched[j] = _fetch_slot(proc, state, j, fetch[j], mispredict)
        pc = _next_pc(proc, state.pc, fetch, mispredict, redirect)

    entries = [
        replace(slot, valid=valid[i], result=result, vres=vres, taken=taken)
        for i, (slot, (result, vres, taken)) in enumerate(
            zip(slots, executed)
        )
    ]
    return replace(
        state, pc=pc, rf=rf, dmem=dmem, slots=tuple(entries + fetched)
    )


def _retire(
    proc: OooProcessor,
    slot: Slot,
    isb: Formula,
    number: int,
    older_retire: Formula,
    older_mispred: Formula,
) -> Tuple[Formula, Formula]:
    """Retirement slot ``number``: (retires, some retiring branch so far
    mispredicted).

    A retiring taken branch blocks every younger retirement slot: those
    entries are wrong-path.  Without branches the mispredict flag is
    ``FALSE`` and the guard folds away.
    """
    own = builder.or_(builder.not_(slot.valid), slot.vres)
    guard = builder.not_(older_mispred)
    if proc.planted(BugKind.RETIRE_WITHOUT_RESULT, number):
        own = TRUE
    elif proc.planted(BugKind.RETIRE_OUT_OF_ORDER, number):
        guard = older_retire = TRUE
    elif proc.planted(BugKind.WRONG_PATH_RETIRE, number):
        guard = TRUE
    retire = builder.and_(own, guard, older_retire)
    mispred = builder.and_(retire, slot.valid, isb, slot.taken)
    return retire, builder.or_(older_mispred, mispred)


def _next_valid(
    proc: OooProcessor,
    valid: Formula,
    index: int,
    retire: List[Formula],
    mispred: List[Formula],
) -> Formula:
    """The Valid bit of initial entry ``index + 1`` after the cycle.

    Retirement clears it, and so does the youngest strictly-older
    retirement slot's mispredict flag (this entry is then wrong-path).
    """
    l = proc.config.retire_width
    keep: Formula = TRUE
    if index < l:
        keep = builder.and_(keep, builder.not_(retire[index]))
    if index > 0:
        squashed = builder.not_(mispred[min(index, l) - 1])
        if proc.planted(BugKind.DROPPED_FLUSH, index + 1):
            # The planted defect: ROB-flush recovery skips this entry;
            # its wrong-path Valid bit survives.
            squashed = TRUE
        keep = builder.and_(keep, squashed)
    return builder.and_(valid, keep)


def _retire_write(
    proc: OooProcessor,
    rf: Term,
    slot: Slot,
    flags: KindFlags,
    retire: Formula,
    number: int,
) -> Term:
    """The Register-File write of retirement slot ``number``."""
    isb, _, iss = flags
    context = builder.and_(slot.valid, retire, writes_reg_file(isb, iss))
    if proc.planted(BugKind.RETIRE_IGNORES_VALID, number):
        context = retire
    return builder.ite_term(
        context, builder.write(rf, slot.dest, slot.result), rf
    )


def _commit_store(
    dmem: Term, slot: Slot, iss: Formula, retire: Formula
) -> Term:
    """The Data-Memory write of a retiring store."""
    context = builder.and_(slot.valid, iss, retire)
    addr = builder.uf(MEM_ADDR, [slot.op])
    return builder.ite_term(
        context, builder.write(dmem, addr, slot.result), dmem
    )


def _recovery(
    state: MachineState, flags: List[KindFlags], retire: List[Formula]
) -> Tuple[Formula, Term]:
    """"Some retiring branch mispredicted this cycle" and its target.

    At most one mispredicted retirement per cycle, by construction of
    the retirement guard.
    """
    target = state.pc
    flag: Formula = FALSE
    for j, retire_j in enumerate(retire):
        slot = state.slots[j]
        mispred = builder.and_(retire_j, slot.valid, flags[j][0], slot.taken)
        target = builder.ite_term(mispred, slot.result, target)
        flag = builder.or_(flag, mispred)
    return flag, target


def _fetch_slot(
    proc: OooProcessor,
    state: MachineState,
    offset: int,
    fetch: Formula,
    mispredict: Formula,
) -> Slot:
    """Fetch slot ``offset``: the instruction at ``NextPC^offset(PC)``.

    Instructions fetched in the cycle an older branch retires
    mispredicted are wrong-path: they are squashed at entry.
    """
    number = proc.config.n_rob + offset + 1
    slot_pc = state.pc
    for _ in range(offset):
        slot_pc = builder.uf(NEXT_PC, [slot_pc])
    valid = builder.and_(fetch, builder.up(INSTR_VALID, [slot_pc]))
    squash = builder.not_(mispredict)
    if proc.planted(BugKind.DROPPED_FLUSH, number):
        squash = TRUE
    has_b, has_m = proc.family.has_branches, proc.family.has_memory
    return replace(
        state.slots[number - 1],
        valid=builder.and_(valid, squash),
        vres=FALSE,
        op=builder.uf(INSTR_OP, [slot_pc]),
        dest=builder.uf(INSTR_DEST, [slot_pc]),
        src1=builder.uf(INSTR_SRC1, [slot_pc]),
        src2=builder.uf(INSTR_SRC2, [slot_pc]),
        kb=builder.up(INSTR_IS_BRANCH, [slot_pc]) if has_b else FALSE,
        kl=builder.up(INSTR_IS_LOAD, [slot_pc]) if has_m else FALSE,
        ks=builder.up(INSTR_IS_STORE, [slot_pc]) if has_m else FALSE,
    )


def _next_pc(
    proc: OooProcessor,
    pc: Term,
    fetch: List[Formula],
    mispredict: Formula,
    redirect: Term,
) -> Term:
    """The PC advanced past the fetched instructions, or redirected to
    the target of a branch that retired mispredicted (squashing the
    speculative fetch advance)."""
    new_pc = pc
    stepped = pc
    single = proc.bug is not None and proc.bug.kind == BugKind.PC_SINGLE_INCREMENT
    for j, fetch_j in enumerate(fetch):
        stepped = builder.uf(NEXT_PC, [stepped])
        if single and j > 0:
            stepped = builder.uf(NEXT_PC, [pc])
        new_pc = builder.ite_term(fetch_j, stepped, new_pc)
    return builder.ite_term(mispredict, redirect, new_pc)


def _execute(
    proc: OooProcessor,
    state: MachineState,
    flags: List[KindFlags],
    wrf: List[Formula],
    index: int,
) -> Tuple[Term, Formula, Formula]:
    """Execution slice ``index + 1``: the entry's next (Result,
    ValidResult, Taken).

    ``wrf[j]`` says whether older entry ``j + 1`` writes the Register
    File (branches and stores do not).
    """
    has_b, has_m = proc.family.has_branches, proc.family.has_memory
    slot = state.slots[index]
    number = index + 1
    isb, isl, iss = flags[index]
    value1, avail1 = _forward_operand(proc, state, wrf, number, slot.src1, 1)
    value2, avail2 = _forward_operand(proc, state, wrf, number, slot.src2, 2)
    computed = builder.uf(ALU, [slot.op, value1, value2])
    # Kept as separate conjuncts so the flat seed-shaped `ready`
    # conjunction below is the only node interned for non-memory
    # families (the perf baseline counts every built node).
    avail_conjuncts = (avail1, avail2)
    if has_m:
        addr = builder.uf(MEM_ADDR, [slot.op])
        mem_value, mem_avail = _forward_mem(proc, state, flags, number, addr)
        # Loads read no register; stores need only their data operand.
        avail_conjuncts = (builder.ite_formula(
            isl,
            mem_avail,
            builder.ite_formula(iss, avail2, builder.and_(avail1, avail2)),
        ),)
        computed = builder.ite_term(
            isl, mem_value, builder.ite_term(iss, value2, computed)
        )
    if has_b:
        br_taken = builder.up(BRANCH_TAKEN, [slot.op, value1, value2])
        br_target = builder.uf(BRANCH_TARGET, [slot.op, value1, value2])
        computed = builder.ite_term(isb, br_target, computed)
    ready = builder.and_(slot.valid, builder.not_(slot.vres), *avail_conjuncts)
    executed = builder.and_(proc.nd_execute[index], ready)
    result = builder.ite_term(executed, computed, slot.result)
    vres = builder.or_(slot.vres, executed)
    taken = slot.taken
    if has_b:
        taken = builder.ite_formula(
            executed, builder.and_(isb, br_taken), slot.taken
        )
    return result, vres, taken


def _forward_operand(
    proc: OooProcessor,
    state: MachineState,
    wrf: List[Formula],
    number: int,
    src: Term,
    operand: int,
) -> Tuple[Term, Formula]:
    """Forwarding chain for one register operand of slice ``number``
    (paper Sect. 3).

    Scans preceding entries oldest-first, wrapping nearer producers around
    the outside of the ITE chain so the *latest* preceding valid writer of
    the source register takes priority; falls back to a Register-File read.
    Only register-writing producers participate (``wrf``): branches and
    stores never forward.  Returns ``(value, available)``.
    """
    wrong_source = proc.planted(BugKind.FORWARD_WRONG_SOURCE, number, operand)
    stale_result = proc.planted(BugKind.FORWARD_STALE_RESULT, number, operand)
    slots = state.slots
    value = builder.read(state.rf, src)
    avail: Formula = TRUE
    for j in range(number - 1):
        producer = slots[j]
        compare_with = src
        if wrong_source:
            # The planted defect: the comparator looks at the wrong field,
            # so this producer is never (or wrongly) matched.
            compare_with = builder.uf("wrong$cmp", [src])
        match = builder.and_(
            producer.valid, wrf[j], builder.eq(producer.dest, compare_with)
        )
        forwarded = slots[j - 1].result if stale_result and j > 0 else producer.result
        value = builder.ite_term(match, forwarded, value)
        avail = builder.ite_formula(match, producer.vres, avail)
    if proc.planted(BugKind.EXECUTE_IGNORES_HAZARD, number, operand):
        avail = TRUE
    return value, avail


def _forward_mem(
    proc: OooProcessor,
    state: MachineState,
    flags: List[KindFlags],
    number: int,
    addr: Term,
) -> Tuple[Term, Formula]:
    """Store-to-load forwarding chain for a load's memory value.

    Mirrors :func:`_forward_operand` over the preceding *stores*: the
    value comes from the latest preceding store to the same address
    (addresses are ``MemAddr(op)``, known at decode), falling back to a
    Data-Memory read; availability requires every matching preceding
    store to have executed (its data sits in its ``Result`` field).
    """
    stale = proc.planted(BugKind.STALE_LOAD_FORWARD, number)
    slots = state.slots
    value = builder.read(state.dmem, addr)
    avail: Formula = TRUE
    for j in range(number - 1):
        store = slots[j]
        store_addr = builder.uf(MEM_ADDR, [store.op])
        match = builder.and_(
            store.valid, flags[j][2], builder.eq(store_addr, addr)
        )
        # The planted defect: the forwarding mux picks the previous
        # entry's data instead of the latest matching store's.
        forwarded = slots[j - 1].result if stale and j > 0 else store.result
        value = builder.ite_term(match, forwarded, value)
        avail = builder.ite_formula(match, store.vres, avail)
    return value, avail
