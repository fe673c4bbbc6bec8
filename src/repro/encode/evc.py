"""EVC-style end-to-end translation: EUFM validity -> CNF unsatisfiability.

The pipeline reproduces the tool flow of the paper (Sect. 2 and 7):

1. memory elimination — precise (forwarding-aware) or conservative
   (``read``/``write`` as general UFs; used on the rewritten formulas);
2. Positive-Equality polarity classification;
3. nested-ITE elimination of UFs and UPs;
4. ``e_ij`` encoding of the remaining equations with maximal diversity for
   p-variables;
5. transitivity constraints over the ``e_ij`` comparison graph;
6. negation + Tseitin translation to CNF.

The resulting CNF is unsatisfiable exactly when the EUFM formula is valid
(for the positively-occurring-memory-equation shape of Burch–Dill
correctness formulas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import BudgetExhausted, EncodingError
from ..eufm import builder
from ..eufm.ast import FALSE, TRUE, BoolVar, Formula, TermVar
from ..eufm.polarity import PolarityInfo, classify
from ..eufm.traversal import bool_variables, term_variables
from ..obs.tracer import current_tracer
from ..sat.cnf import Cnf
from ..sat.solver import SatResult, solve_cnf
from ..sat.tseitin import TseitinResult, cnf_for_satisfiability
from .eij import EijResult, encode_equalities
from .memory_elim import (
    MemoryElimResult,
    abstract_memories_conservative,
    eliminate_memories,
)
from .transitivity import TransitivityResult, transitivity_constraints
from .uf_elim import UFElimResult, eliminate_uf

__all__ = ["EncodingStats", "EncodedValidity", "ValidityResult", "encode_validity", "check_validity"]


@dataclass
class EncodingStats:
    """CNF statistics in the layout of Tables 3 and 5 of the paper."""

    eij_primary: int = 0
    other_primary: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0

    @property
    def total_primary(self) -> int:
        return self.eij_primary + self.other_primary


@dataclass
class EncodedValidity:
    """All artifacts of the EUFM -> CNF translation."""

    cnf: Cnf
    stats: EncodingStats
    propositional: Formula
    tseitin: Optional[TseitinResult] = None
    memory: Optional[MemoryElimResult] = None
    #: the memory-free formula the polarity classification ran on (the
    #: input to UF elimination); audited by :mod:`repro.analysis`.
    memory_free: Optional[Formula] = None
    polarity: Optional[PolarityInfo] = None
    uf_elim: Optional[UFElimResult] = None
    eij: Optional[EijResult] = None
    transitivity: Optional[TransitivityResult] = None
    #: set when the formula collapsed to a constant before CNF.
    constant_validity: Optional[bool] = None


@dataclass
class ValidityResult:
    """Outcome of a full validity check."""

    valid: bool
    encoded: EncodedValidity
    sat_result: Optional[SatResult] = None
    #: named assignment of an invalid formula; ``None`` values mark
    #: variables the SAT model left unassigned (don't-cares).
    counterexample: Optional[Dict[str, Optional[bool]]] = None


def encode_validity(
    phi: Formula,
    memory_mode: str = "precise",
    cnf_encoding: str = "polarity",
) -> EncodedValidity:
    """Translate the EUFM validity problem for ``phi`` into CNF.

    ``cnf_encoding`` selects the final clause translation: ``"polarity"``
    (Plaisted–Greenbaum, the default — directional definition clauses) or
    ``"full"`` (bidirectional Tseitin).
    """
    if memory_mode not in ("precise", "conservative"):
        raise ValueError(f"unknown memory mode {memory_mode!r}")
    if cnf_encoding not in ("polarity", "full"):
        raise ValueError(f"unknown CNF encoding {cnf_encoding!r}")
    tracer = current_tracer()

    with tracer.span("translate") as translate_span:
        with tracer.span("memory"):
            if memory_mode == "conservative":
                memory_result = None
                phi_no_mem = abstract_memories_conservative(phi)
            else:
                memory_result = eliminate_memories(phi)
                phi_no_mem = memory_result.formula
                tracer.add(
                    "encode.fresh_addresses",
                    len(memory_result.fresh_addresses),
                )
                tracer.add(
                    "encode.negative_memory_equations",
                    len(memory_result.negative_memory_equations),
                )

        with tracer.span("polarity"):
            polarity = classify(phi_no_mem)
            tracer.add("encode.g_vars", len(polarity.g_vars))
            tracer.add(
                "encode.general_equations", len(polarity.general_equations)
            )

        with tracer.span("uf_elim"):
            uf_result = eliminate_uf(phi_no_mem, polarity)
            tracer.add(
                "encode.fresh_term_vars", len(uf_result.fresh_term_vars)
            )
            tracer.add(
                "encode.fresh_bool_vars", len(uf_result.fresh_bool_vars)
            )

        with tracer.span("eij"):
            g_vars: Set[TermVar] = set(polarity.g_vars) | uf_result.fresh_g_vars
            known_vars: Set[TermVar] = set(term_variables(phi_no_mem))
            known_vars.update(uf_result.fresh_term_vars)
            eij_result = encode_equalities(
                uf_result.formula, g_vars, known_vars=known_vars
            )
            tracer.add("encode.eij_vars", len(eij_result.eij_vars))
            tracer.add(
                "encode.diverse_pairs", len(eij_result.diverse_pairs)
            )
            tracer.add(
                "encode.p_vars", len(known_vars) - len(g_vars & known_vars)
            )

        with tracer.span("transitivity"):
            trans_result = transitivity_constraints(eij_result.eij_vars)
            tracer.add(
                "encode.transitivity_constraints",
                len(trans_result.constraints),
            )
            tracer.add("encode.fill_vars", len(trans_result.fill_vars))

        prop = eij_result.formula
        negated = builder.and_(builder.not_(prop), *trans_result.constraints)

        with tracer.span("tseitin"):
            tseitin_result = cnf_for_satisfiability(
                negated, polarity_aware=(cnf_encoding == "polarity")
            )
        eij_primary = sum(
            1
            for var in tseitin_result.var_map
            if var.name.startswith("eij!")
        )
        stats = EncodingStats(
            eij_primary=eij_primary,
            other_primary=len(tseitin_result.var_map) - eij_primary,
            cnf_vars=tseitin_result.cnf.num_vars,
            cnf_clauses=tseitin_result.cnf.num_clauses,
        )
        translate_span.set("encode.cnf_vars", float(stats.cnf_vars))
        translate_span.set("encode.cnf_clauses", float(stats.cnf_clauses))
        translate_span.set("encode.eij_primary", float(stats.eij_primary))
        translate_span.set("encode.other_primary", float(stats.other_primary))

    encoded = EncodedValidity(
        cnf=tseitin_result.cnf,
        stats=stats,
        propositional=prop,
        tseitin=tseitin_result,
        memory=memory_result,
        memory_free=phi_no_mem,
        polarity=polarity,
        uf_elim=uf_result,
        eij=eij_result,
        transitivity=trans_result,
    )
    if negated is TRUE:
        encoded.constant_validity = False
    elif negated is FALSE:
        encoded.constant_validity = True
    return encoded


def check_validity(
    phi: Formula,
    memory_mode: str = "precise",
    cnf_encoding: str = "polarity",
    max_conflicts: Optional[int] = None,
    log_proof: bool = False,
) -> ValidityResult:
    """Encode ``phi`` and decide its validity with the CDCL solver.

    The CNF goes through :func:`repro.sat.solver.solve_cnf`, bounded by
    ``max_conflicts`` and the ambient deadline.

    ``log_proof=True`` makes the solver record a DRUP clause proof on
    ``sat_result.proof`` (certified against ``encoded.cnf`` — the exact
    post-dedupe, post-Tseitin CNF the solver saw — by
    :func:`repro.witness.drup.check_drup`).
    """
    encoded = encode_validity(
        phi, memory_mode=memory_mode, cnf_encoding=cnf_encoding
    )
    if encoded.constant_validity is not None:
        return ValidityResult(valid=encoded.constant_validity, encoded=encoded)
    sat_result = solve_cnf(
        encoded.cnf,
        max_conflicts=max_conflicts,
        log_proof=log_proof,
    )
    if sat_result.status == "unknown":
        raise BudgetExhausted(
            "SAT budget exhausted before the validity check completed "
            f"({sat_result.conflicts} conflicts)",
            conflicts=sat_result.conflicts,
            budget_kind="conflicts",
        )
    valid = sat_result.is_unsat
    counterexample = None
    if sat_result.is_sat:
        counterexample = decode_model(encoded, sat_result.model)
    return ValidityResult(
        valid=valid,
        encoded=encoded,
        sat_result=sat_result,
        counterexample=counterexample,
    )


def decode_model(
    encoded: EncodedValidity, model: Dict[int, bool]
) -> Dict[str, Optional[bool]]:
    """Map a SAT model back to named EUFM Boolean/e_ij variables.

    Every variable the Tseitin translation knows appears in the result:
    variables the SAT model left unassigned map to ``None`` (explicit
    don't-cares) rather than being silently dropped, so callers can tell
    "false" apart from "the solver never had to decide this".
    """
    if encoded.tseitin is None:
        raise EncodingError(
            "cannot decode a model: the formula collapsed to a constant "
            "before CNF translation"
        )
    assignment: Dict[str, Optional[bool]] = {}
    for var, index in encoded.tseitin.var_map.items():
        assignment[var.name] = model.get(index)
    return assignment
