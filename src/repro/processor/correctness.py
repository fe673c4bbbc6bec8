"""The Burch–Dill commutative diagram and the EUFM correctness formula.

Implementation side: one step of regular operation of the implementation,
followed by the abstraction function (flushing by completion functions).
Specification side: the abstraction function applied to the *initial*
implementation state, followed by 0..k steps of the specification.

The correctness criterion (paper Sect. 5) states that the user-visible
state — the PC, the Register File and, in the memory workload families,
the Data Memory — is updated in sync by 0, 1, ... or k instructions:

    OR_{m=0..k}  equal_PC,m  AND  equal_RegFile,m  [AND equal_DMem,m]

A stronger fetch-count case-split criterion is available as
``criterion="case_split"``: for each m, *if* exactly m instructions were
fetched *then* the m-instruction equalities must hold.  Both criteria are
valid for the register-register and memory families; for the *branch*
families only the disjunction is sound — a fetched instruction may be a
squashed wrong-path one (or a taken branch redirecting the PC away from
the fall-through chain), so "m instructions fetched" no longer implies
the m-step equality, and :func:`build_correctness_formula` rejects the
combination instead of producing a falsifiable formula for a correct
design.

In the branch families both the implementation-side and the
specification-side PC are observed *after* the abstraction function has
run: flushing completes the in-flight taken branches and redirects the PC
accordingly (for ``reg-reg`` flushing never touches the PC, so the
observation points coincide with the seed model's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..eufm import builder
from ..eufm.ast import FALSE, TRUE, Formula, Term, interned_count
from ..obs.tracer import current_tracer
from .abstraction import flush_range
from .bugs import Bug
from .isa import SpecState, spec_trajectory
from .ooo import OooProcessor, build_ooo_processor, regular_step
from .params import ProcessorConfig

__all__ = ["DiagramArtifacts", "build_correctness_formula", "run_diagram"]

CRITERIA = ("disjunction", "case_split")


@dataclass
class DiagramArtifacts:
    """Everything produced by symbolically simulating the diagram."""

    config: ProcessorConfig
    proc: OooProcessor
    #: implementation side: PC and Register File after one step of regular
    #: operation followed by the abstraction function.
    pc_impl: Term = None
    rf_impl: Term = None
    #: implementation-side Register File after the initial entries (slots
    #: 1..N) completed but before the fetch slots completed — the seam the
    #: rewriting engine replaces with a fresh variable.
    rf_impl_mid: Term = None
    #: implementation-side Data Memory states at the same two observation
    #: points (memory families; ``None`` otherwise).
    dmem_impl: Optional[Term] = None
    dmem_impl_mid: Optional[Term] = None
    #: specification side: states after the abstraction function and after
    #: each of 0..k specification steps.
    spec_states: List[SpecState] = field(default_factory=list)
    #: monotone fetch signals fetch_1 .. fetch_k as formulas.
    fetch_conditions: List[Formula] = field(default_factory=list)

    @property
    def initial_pc(self) -> Term:
        return self.proc.initial.pc

    @property
    def initial_rf(self) -> Term:
        return self.proc.initial.rf

    @property
    def initial_dmem(self) -> Optional[Term]:
        return self.proc.initial.dmem


def run_diagram(
    config: ProcessorConfig, bug: Optional[Bug] = None
) -> DiagramArtifacts:
    """Symbolically simulate both sides of the commutative diagram.

    Recorded as a ``"simulate"`` span on the ambient tracer, carrying the
    simulation counters (``tlsim.cycles``, ``tlsim.nodes_built``).
    """
    with current_tracer().span("simulate") as span:
        nodes_before = interned_count()
        proc = build_ooo_processor(config, bug=bug)
        artifacts = DiagramArtifacts(config=config, proc=proc)
        n = config.n_rob
        k = config.issue_width

        # Implementation side: one regular step, then flush in program order.
        impl = regular_step(proc, proc.initial)
        impl = flush_range(proc, impl, 1, n)
        artifacts.rf_impl_mid = impl.rf
        artifacts.dmem_impl_mid = impl.dmem
        impl = flush_range(proc, impl, n + 1, n + k)
        # The PC is observed after the abstraction function: for branch
        # families flushing redirects it past in-flight taken branches
        # (a no-op for the other families, where it is the PC after the
        # regular step, as in the seed model).
        artifacts.pc_impl = impl.pc
        artifacts.rf_impl = impl.rf
        artifacts.dmem_impl = impl.dmem

        # Specification side: flush the initial state, then run the ISA.
        spec = flush_range(proc, proc.initial, 1, n + k)
        spec0 = SpecState(pc=spec.pc, reg_file=spec.rf, dmem=spec.dmem)
        artifacts.spec_states = spec_trajectory(spec0, k, config.family_spec)

        artifacts.fetch_conditions = [
            builder.and_(*proc.nd_fetch[: j + 1]) for j in range(k)
        ]
        span.add("tlsim.nodes_built", interned_count() - nodes_before)

    return artifacts


def build_correctness_formula(
    artifacts: DiagramArtifacts, criterion: str = "disjunction"
) -> Formula:
    """The EUFM correctness formula for the simulated diagram."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; use one of {CRITERIA}")
    family = artifacts.config.family_spec
    if criterion == "case_split" and family.has_branches:
        raise ValueError(
            "the case_split criterion is unsound for branch families: a "
            "fetched instruction may be wrong-path (or a taken branch), so "
            "fetch counts do not determine the specification step count; "
            "use criterion='disjunction'"
        )
    k = artifacts.config.issue_width
    conjuncts = []
    for m, spec_state in enumerate(artifacts.spec_states):
        equal_pc = builder.eq(artifacts.pc_impl, spec_state.pc)
        equal_rf = builder.eq(artifacts.rf_impl, spec_state.reg_file)
        parts = [equal_pc, equal_rf]
        if family.has_memory:
            parts.append(builder.eq(artifacts.dmem_impl, spec_state.dmem))
        conjuncts.append(builder.and_(*parts))

    if criterion == "disjunction":
        return builder.or_(*conjuncts)

    fetch = artifacts.fetch_conditions
    cases = []
    for m in range(k + 1):
        fetched_at_least_m = TRUE if m == 0 else fetch[m - 1]
        fetched_more = fetch[m] if m < k else FALSE
        exactly_m = builder.and_(fetched_at_least_m, builder.not_(fetched_more))
        cases.append(builder.implies(exactly_m, conjuncts[m]))
    return builder.and_(*cases)
