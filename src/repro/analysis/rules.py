"""The rewrite-rule registry and its one checker (Sect. 5/6).

The engine's rules live in :mod:`repro.rewriting.rules` as structural
checks over update chains.  Each entry of :data:`REGISTRY` describes one
rule *schematically*: a builder constructs a representative LHS/RHS
instance over declared pattern variables — routing through the production
helpers (``merge_contexts``, ``contexts_disjoint``, and the ``substitute``
walk that cofactors rule 3's cases) wherever possible, so the analyzed
rewrite is the implemented one, not a transcription of it.
:func:`analyze_rules` builds each instance once and reports every finding
under ``rules.*``:

* **side conditions** — pattern linearity (the declared pattern
  variables are pairwise distinct and each is bound by the LHS); no
  capture (the RHS invents no variable, and makes none *general* in the
  Positive-Equality sense that was positive on the LHS unless the rule
  declares it in ``may_generalize``, e.g. the address comparisons the
  forwarding property necessarily introduces); guard preservation
  (every declared guard occurs in the RHS DAG: a rewrite must not drop a
  context).
* **soundness** — LHS = RHS under every small-model interpretation
  (:func:`small_model_check`: the equivalence, ``=`` for terms and
  ``iff`` for formulas, evaluated under every assignment of 2 and 3
  domain values to the value-sorted variables and both truth values to
  the Boolean ones, under several UF/memory seeds).  A differing
  interpretation is an error naming the rule, with the witness attached.
* **confluence** — for every ordered pair of rules (A, B) and every
  non-variable position ``p`` in A's LHS, ``A.lhs|p`` is unified with
  ``B.lhs`` (syntactic first-order unification over the hash-consed DAG,
  with both rules' pattern variables as unification variables).  Each
  unifier σ yields a critical pair ``σ(A.rhs)`` vs.
  ``σ(A.lhs)[p ← σ(B.rhs)]``, joinable syntactically (the same DAG node
  after builder normalization) or semantically (equal under the same
  small-model evaluator).  Semantic-only joins are a warning: the normal
  form depends on application order.  Reducts that differ under some
  interpretation are an error with the witness attached — one of the
  rules rewrites the overlap unsoundly, exactly the failure mode the
  paper's syntactic restrictions exist to prevent.
* **termination** — each rule decreases the lexicographic measure
  ``(read-over-write redexes, DAG size)`` or is a *permutation* (equal
  node-kind multiset, e.g. rule 1's update reordering, whose termination
  comes from the external in-order-retirement order); anything else is a
  warning.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..eufm import builder
from ..eufm.ast import BoolVar, Expr, Formula, Read, Term, TermVar, Write
from ..eufm.evaluator import EvaluationPlan, Interpretation, SortError
from ..eufm.polarity import classify
from ..eufm.traversal import bool_variables, iter_dag, substitute, term_variables
from ..encode.memory_elim import abstract_memories_conservative
from ..rewriting.rules import RuleViolation, contexts_disjoint, merge_contexts
from .diagnostics import ERROR, INFO, WARNING, Diagnostic

__all__ = [
    "RuleInstance",
    "RuleSpec",
    "REGISTRY",
    "analyze_rules",
    "critical_pairs",
    "rule_measure",
    "small_model_check",
    "unify",
]

#: Domain sizes, UF/memory seeds and the per-domain assignment cap of the
#: small-model universe every semantic check enumerates.
DOMAIN_SIZES = (2, 3)
SEEDS = (0, 1)
MAX_ASSIGNMENTS = 20_000

#: Name of the probe variable used to lift term rules to formulas for the
#: polarity-capture comparison; excluded from all variable accounting.
_PROBE = "rule!probe"


@dataclass
class RuleInstance:
    """A concrete schematic instance of one rewrite rule."""

    lhs: Expr
    rhs: Expr
    #: declared pattern variables (term and Boolean), by name.
    pattern_vars: Tuple[str, ...]
    #: guard formulas the rewrite must preserve on both sides.
    guards: Tuple[Formula, ...] = ()
    #: variables the rule is *allowed* to move into general positions
    #: (a declared side effect, e.g. forwarding address comparisons).
    may_generalize: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule: a name plus an instance builder."""

    name: str
    description: str
    build: Callable[[], RuleInstance]


# ---------------------------------------------------------------------------
# The registry: schematic instances of the paper's rules
# ---------------------------------------------------------------------------


def _reorder_disjoint_updates() -> RuleInstance:
    """Rule 1: updates with structurally disjoint contexts commute."""
    c, r = builder.bvar("rule1!c"), builder.bvar("rule1!r")
    a1, d1 = builder.tvar("rule1!a1"), builder.tvar("rule1!d1")
    a2, d2 = builder.tvar("rule1!a2"), builder.tvar("rule1!d2")
    base = builder.tvar("rule1!rf")
    ctx_retire = builder.and_(c, r)
    ctx_flush = builder.and_(c, builder.not_(r))
    if not contexts_disjoint(ctx_retire, ctx_flush):
        raise RuleViolation("rule 1 side condition rejected its own shape")

    def chain(first_ctx, first_addr, first_data, second_ctx, second_addr,
              second_data):
        state = builder.ite_term(
            first_ctx, builder.write(base, first_addr, first_data), base
        )
        return builder.ite_term(
            second_ctx, builder.write(state, second_addr, second_data), state
        )

    lhs = chain(ctx_retire, a1, d1, ctx_flush, a2, d2)
    rhs = chain(ctx_flush, a2, d2, ctx_retire, a1, d1)
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("rule1!c", "rule1!r", "rule1!a1", "rule1!d1",
                      "rule1!a2", "rule1!d2", "rule1!rf"),
        guards=(ctx_retire, ctx_flush),
    )


def _merge_complementary_contexts() -> RuleInstance:
    """Rule 2: ``C AND R`` / ``C AND NOT R`` updates merge under ``C``."""
    c, r = builder.bvar("rule2!c"), builder.bvar("rule2!r")
    addr = builder.tvar("rule2!a")
    d_retire, d_flush = builder.tvar("rule2!d1"), builder.tvar("rule2!d2")
    base = builder.tvar("rule2!rf")
    ctx_retire = builder.and_(c, r)
    ctx_flush = builder.and_(c, builder.not_(r))
    retired = builder.ite_term(
        ctx_retire, builder.write(base, addr, d_retire), base
    )
    lhs = builder.ite_term(
        ctx_flush, builder.write(retired, addr, d_flush), retired
    )
    merged = merge_contexts(ctx_retire, ctx_flush)
    if merged is None:
        raise RuleViolation("rule 2 did not recognize its own shape")
    merged_context, residual = merged
    rhs = builder.ite_term(
        merged_context,
        builder.write(base, addr, builder.ite_term(residual, d_retire, d_flush)),
        base,
    )
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("rule2!c", "rule2!r", "rule2!a", "rule2!d1",
                      "rule2!d2", "rule2!rf"),
        guards=(c, r),
    )


def _case_split_valid_result() -> RuleInstance:
    """Rule 3: Shannon case split, cofactored by the engine's ``substitute``."""
    v = builder.bvar("rule3!vres")
    p, q = builder.bvar("rule3!p"), builder.bvar("rule3!q")
    x, y, z = (builder.tvar("rule3!x"), builder.tvar("rule3!y"),
               builder.tvar("rule3!z"))
    from ..eufm.ast import FALSE, TRUE

    data = builder.ite_term(
        builder.or_(v, p),
        x,
        builder.ite_term(builder.and_(v, q), y, z),
    )
    rhs = builder.ite_term(
        v,
        substitute(data, {v: TRUE}),
        substitute(data, {v: FALSE}),
    )
    return RuleInstance(
        lhs=data,
        rhs=rhs,
        pattern_vars=("rule3!vres", "rule3!p", "rule3!q", "rule3!x",
                      "rule3!y", "rule3!z"),
        guards=(v,),
    )


def _forwarding_read_push() -> RuleInstance:
    """Rule 3, subcase 2.1 substrate: the memory forwarding property."""
    mem = builder.tvar("fwd!rf")
    written, wanted = builder.tvar("fwd!dest"), builder.tvar("fwd!src")
    data = builder.tvar("fwd!result")
    lhs = builder.read(builder.write(mem, written, data), wanted)
    match = builder.eq(written, wanted)
    rhs = builder.ite_term(match, data, builder.read(mem, wanted))
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("fwd!rf", "fwd!dest", "fwd!src", "fwd!result"),
        guards=(match,),
        # Pushing a read through a write necessarily compares addresses in
        # a control position; the classification must make them general.
        may_generalize=("fwd!dest", "fwd!src"),
    )


def _guard_split_round_trip() -> RuleInstance:
    """Rule 4 substrate: viewing a formula as an ITE on a guard."""
    from ..eufm.ast import TRUE

    g, t = builder.bvar("split!g"), builder.bvar("split!t")
    lhs = builder.or_(builder.not_(g), t)
    rhs = builder.ite_formula(g, t, TRUE)
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("split!g", "split!t"),
        guards=(g,),
    )


REGISTRY: List[RuleSpec] = [
    RuleSpec(
        name="reorder-disjoint-updates",
        description="rule 1: an update moves over one with a disjoint context",
        build=_reorder_disjoint_updates,
    ),
    RuleSpec(
        name="merge-complementary-contexts",
        description="rule 2: Valid&retire / Valid&!retire merge under Valid",
        build=_merge_complementary_contexts,
    ),
    RuleSpec(
        name="case-split-valid-result",
        # Byte-identical on purpose: registry_version() and cache keys hash it.
        description="rule 3: Shannon split on ValidResult via reduce_"
        "under",
        build=_case_split_valid_result,
    ),
    RuleSpec(
        name="forwarding-read-push",
        description="rule 3.2.1: read-through-write forwarding property",
        build=_forwarding_read_push,
    ),
    RuleSpec(
        name="guard-split-round-trip",
        description="split_on_guard normal form: (!g | t) = ITE(g, t, TRUE)",
        build=_guard_split_round_trip,
    ),
]


def _finding(severity: str, slug: str, subject: str, message: str,
             **data) -> Diagnostic:
    return Diagnostic(severity=severity, stage="rules", check=f"rules.{slug}",
                      subject=subject, message=message, data=data)


# ---------------------------------------------------------------------------
# Side conditions
# ---------------------------------------------------------------------------


def _var_names(*roots: Expr) -> set:
    return {node.name for node in iter_dag(*roots)
            if isinstance(node, (TermVar, BoolVar))} - {_PROBE}


def _as_formula(expr: Expr) -> Formula:
    """Lift a term to a formula (against a probe) for classification."""
    if isinstance(expr, Term):
        return builder.eq(expr, builder.tvar(_PROBE))
    return expr


def _classified_g_names(expr: Expr) -> set:
    """g-variable names of the (memory-abstracted) formula view of ``expr``."""
    phi = _as_formula(expr)
    if any(isinstance(node, (Read, Write)) for node in iter_dag(phi)):
        phi = abstract_memories_conservative(phi)
    info = classify(phi)
    return {var.name for var in info.g_vars} - {_PROBE}


def _static_checks(spec: RuleSpec, instance: RuleInstance) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    lhs_names = _var_names(instance.lhs)
    rhs_names = _var_names(instance.rhs)

    # Pattern linearity: declared variables are distinct and LHS-bound.
    seen = set()
    for name in instance.pattern_vars:
        if name in seen:
            diagnostics.append(_finding(
                ERROR, "nonlinear-pattern", spec.name,
                f"pattern variable {name!r} is declared twice",
            ))
        seen.add(name)
        if name not in lhs_names:
            diagnostics.append(_finding(
                ERROR, "unbound-pattern-var", spec.name,
                f"pattern variable {name!r} does not occur in the LHS; "
                "the match cannot bind it",
            ))

    # No capture: the RHS must not invent variables.
    for name in sorted(rhs_names - lhs_names):
        diagnostics.append(_finding(
            ERROR, "rhs-invents-variable", spec.name,
            f"RHS uses variable {name!r} that the LHS never binds "
            "(captures an arbitrary value)",
        ))

    # Guard preservation: every declared context survives into the RHS.
    # (A guard may be absent from the LHS — forwarding *introduces* its
    # address comparison — but dropping one narrows no update soundly.)
    rhs_nodes = set(iter_dag(instance.rhs))
    for guard in instance.guards:
        if guard not in rhs_nodes:
            diagnostics.append(_finding(
                ERROR, "guard-dropped", spec.name,
                f"guard {guard!r} does not survive into the RHS; "
                "the rewrite widens the update's context",
            ))

    # Polarity capture: the RHS may not silently make variables general.
    try:
        lhs_g = _classified_g_names(instance.lhs)
        rhs_g = _classified_g_names(instance.rhs)
    except TypeError:
        diagnostics.append(_finding(
            WARNING, "polarity-capture-unchecked", spec.name,
            "could not classify the rule sides for g-term capture",
        ))
    else:
        allowed = set(instance.may_generalize)
        for name in sorted(rhs_g - lhs_g - allowed):
            diagnostics.append(_finding(
                ERROR, "captures-into-general-position", spec.name,
                f"variable {name!r} becomes general on the RHS without "
                "being declared in may_generalize; applying the rule "
                "changes the p/g classification",
            ))
        for name in sorted(lhs_g - rhs_g):
            diagnostics.append(_finding(
                WARNING, "generality-dropped", spec.name,
                f"variable {name!r} is general on the LHS but positive "
                "on the RHS",
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Soundness: the small-model evaluator
# ---------------------------------------------------------------------------


def small_model_check(
    left: Expr, right: Expr
) -> Tuple[int, bool, Optional[Dict[str, object]]]:
    """Evaluate ``left = right`` over the small-model universe.

    Returns ``(interpretations checked, truncated, witness)``: ``witness``
    is the first interpretation under which the two sides differ, or
    ``None`` when they agree under every one; ``truncated`` says some
    domain's assignment space exceeded :data:`MAX_ASSIGNMENTS` and only
    a deterministic prefix of it was checked.  Raises
    :class:`~repro.eufm.evaluator.SortError` for an ill-sorted pair.
    """
    if left.is_term() != right.is_term():
        raise SortError("LHS and RHS have different sorts (term vs formula)")
    equivalence = (builder.eq(left, right) if left.is_term()
                   else builder.iff(left, right))
    plan = EvaluationPlan(equivalence)
    value_names = sorted(v.name for v in term_variables(equivalence)
                         if v not in plan.memory_sorted)
    bool_names = sorted(v.name for v in bool_variables(equivalence))

    checked = 0
    truncated = False
    for domain in DOMAIN_SIZES:
        total = (domain ** len(value_names)) * (2 ** len(bool_names))
        assignments = itertools.product(
            itertools.product(range(domain), repeat=len(value_names)),
            itertools.product((False, True), repeat=len(bool_names)),
        )
        if total > MAX_ASSIGNMENTS:
            truncated = True
            assignments = itertools.islice(assignments, MAX_ASSIGNMENTS)
        for term_values, bool_values in assignments:
            term_assignment = dict(zip(value_names, term_values))
            bool_assignment = dict(zip(bool_names, bool_values))
            for seed in SEEDS:
                interp = Interpretation(domain, seed, term_assignment,
                                        bool_assignment)
                checked += 1
                if not plan.run(interp)[equivalence]:
                    return checked, truncated, dict(
                        domain_size=domain, seed=seed,
                        term_values=term_assignment,
                        bool_values=bool_assignment,
                    )
    return checked, truncated, None


def _truncated(subject: str) -> Diagnostic:
    return _finding(
        INFO, "universe-truncated", subject,
        f"assignment space exceeded {MAX_ASSIGNMENTS}; checked a "
        "deterministic prefix only",
    )


def _soundness(spec: RuleSpec, instance: RuleInstance) -> List[Diagnostic]:
    if instance.lhs is instance.rhs:
        return [_finding(
            INFO, "identity-after-normalization", spec.name,
            "LHS and RHS normalize to the same DAG node; the rule is "
            "trivially sound",
        )]
    try:
        checked, truncated, witness = small_model_check(instance.lhs, instance.rhs)
    except SortError as exc:
        return [_finding(
            ERROR, "sort-mismatch", spec.name,
            f"ill-sorted rule instance: {exc}",
        )]
    if witness is not None:
        return [_finding(
            ERROR, "unsound-rewrite", spec.name,
            "LHS and RHS differ under a concrete interpretation; the "
            "rewrite changes validity",
            **witness,
        )]
    diagnostics = [_truncated(spec.name)] if truncated else []
    diagnostics.append(_finding(
        INFO, "verified", spec.name,
        f"LHS = RHS under all {checked} enumerated interpretations "
        f"(domains {DOMAIN_SIZES}, seeds {SEEDS})",
        interpretations=checked,
    ))
    return diagnostics


# ---------------------------------------------------------------------------
# Confluence: syntactic unification over the hash-consed DAG, critical pairs
# ---------------------------------------------------------------------------


def _is_pattern_var(node: Expr, pattern_names: frozenset) -> bool:
    return isinstance(node, (TermVar, BoolVar)) and node.name in pattern_names


def _resolve(node: Expr, subst: Dict[Expr, Expr], pattern_names: frozenset) -> Expr:
    while _is_pattern_var(node, pattern_names) and node in subst:
        node = subst[node]
    return node


def _occurs(var: Expr, node: Expr, subst: Dict[Expr, Expr],
            pattern_names: frozenset) -> bool:
    stack = [node]
    seen = set()
    while stack:
        current = _resolve(stack.pop(), subst, pattern_names)
        if current is var:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(current.children)
    return False


def _head(node: Expr) -> tuple:
    """Everything but the children: kind, symbol/name/value and arity."""
    return (node.kind, getattr(node, "symbol", None),
            getattr(node, "name", None), getattr(node, "value", None),
            len(node.children))


def unify(a: Expr, b: Expr, pattern_names: frozenset,
          subst: Optional[Dict[Expr, Expr]] = None,
          ) -> Optional[Dict[Expr, Expr]]:
    """Most general unifier of two schematic expressions, or ``None``.

    ``pattern_names`` are the variable names treated as unification
    variables (the union of both rules' declared pattern variables —
    disjoint by the per-rule name prefixes); any other variable is a
    constant.  The result is triangular: a binding's image may mention
    other bound variables.  N-ary connectives unify positionally in
    their canonical argument order: a sound under-approximation
    (AC-unification would find more overlaps).
    """
    if subst is None:
        subst = {}
    stack: List[Tuple[Expr, Expr]] = [(a, b)]
    while stack:
        left, right = stack.pop()
        left = _resolve(left, subst, pattern_names)
        right = _resolve(right, subst, pattern_names)
        if left is right:
            continue
        if (_is_pattern_var(right, pattern_names)
                and not _is_pattern_var(left, pattern_names)):
            left, right = right, left
        if _is_pattern_var(left, pattern_names):
            if left.is_term() != right.is_term():
                return None
            if _occurs(left, right, subst, pattern_names):
                return None
            subst[left] = right
            continue
        if _head(left) != _head(right):
            return None
        stack.extend(zip(left.children, right.children))
    return subst


def _solved(subst: Dict[Expr, Expr]) -> Dict[Expr, Expr]:
    """The idempotent form of a triangular unifier: the occurs check keeps
    binding chains acyclic, so one pass per binding resolves them all."""
    solved = dict(subst)
    for _ in subst:
        solved = {var: substitute(image, solved)
                  for var, image in solved.items()}
    return solved


def critical_pairs(rule_a: RuleInstance, rule_b: RuleInstance,
                   self_pair: bool) -> List[Dict[str, object]]:
    """All overlaps of ``rule_b`` into ``rule_a``'s LHS.

    Returns dicts with the overlapped term and both reducts; joinability
    classification is the caller's job.  Replacing the inner redex
    rewrites every occurrence of it at once (hash-consing shares
    positionally distinct but structurally equal subterms).
    """
    if rule_b.lhs.is_term() != rule_b.rhs.is_term():
        return []  # ill-sorted; the soundness check reports it
    pattern_names = frozenset(rule_a.pattern_vars) | frozenset(rule_b.pattern_vars)
    pairs: List[Dict[str, object]] = []
    for position, sub in enumerate(iter_dag(rule_a.lhs)):
        if _is_pattern_var(sub, pattern_names):
            continue
        if self_pair and sub is rule_a.lhs:
            continue  # root self-overlap is trivially joinable
        if sub.is_term() != rule_b.lhs.is_term():
            continue
        subst = unify(sub, rule_b.lhs, pattern_names)
        if subst is None:
            continue
        sigma = _solved(subst)
        overlapped = substitute(rule_a.lhs, sigma)
        inner = {substitute(sub, sigma): substitute(rule_b.rhs, sigma)}
        pairs.append({
            "position": position,
            "overlap": overlapped,
            "reduct_outer": substitute(rule_a.rhs, sigma),
            "reduct_inner": substitute(overlapped, inner),
        })
    return pairs


def _confluence(
    instances: Sequence[Tuple[RuleSpec, RuleInstance]]
) -> List[Diagnostic]:
    """Classify every critical pair of every ordered rule pair."""
    diagnostics: List[Diagnostic] = []
    total = syntactic = semantic = 0
    for spec_a, inst_a in instances:
        for spec_b, inst_b in instances:
            pair_name = f"{spec_a.name} <~ {spec_b.name}"
            rules = [spec_a.name, spec_b.name]
            semantic_only = 0
            truncated_any = False
            for pair in critical_pairs(inst_a, inst_b,
                                       self_pair=inst_a is inst_b):
                total += 1
                outer, inner = pair["reduct_outer"], pair["reduct_inner"]
                if outer is inner:
                    syntactic += 1
                    continue
                try:
                    _, truncated, witness = small_model_check(outer, inner)
                except SortError as exc:
                    truncated, witness = False, {"reason": f"ill-sorted: {exc}"}
                truncated_any |= truncated
                if witness is None:
                    semantic += 1
                    semantic_only += 1
                else:
                    diagnostics.append(_finding(
                        ERROR, "critical-pair-divergent", pair_name,
                        "the two reducts of an overlap differ under a "
                        "concrete interpretation; rewriting the overlap "
                        "with these rules in different orders changes "
                        "validity",
                        rules=rules, witness=witness,
                    ))
            if truncated_any:
                diagnostics.append(_truncated(pair_name))
            if semantic_only:
                diagnostics.append(_finding(
                    WARNING, "overlap-order-dependent", pair_name,
                    f"{semantic_only} overlap(s) join semantically but "
                    "not syntactically: the normal form depends on "
                    "application order (sound, but the engine should "
                    "fix an order)",
                    rules=rules, count=semantic_only,
                ))
    diagnostics.append(_finding(
        INFO, "registry-summary", "registry",
        f"{len(instances)} rules; {total} critical pair(s): "
        f"{syntactic} joinable syntactically, {semantic} semantically "
        f"only, {total - syntactic - semantic} divergent",
        rules=[spec.name for spec, _ in instances],
        pairs=total, syntactic=syntactic, semantic=semantic,
    ))
    return diagnostics


# ---------------------------------------------------------------------------
# Termination measure
# ---------------------------------------------------------------------------


def rule_measure(expr: Expr) -> Tuple[int, int]:
    """Lexicographic termination measure: (read-over-write redexes,
    distinct DAG nodes)."""
    redexes = 0
    size = 0
    for node in iter_dag(expr):
        size += 1
        if isinstance(node, Read) and isinstance(node.mem, Write):
            redexes += 1
    return redexes, size


def _kind_multiset(expr: Expr) -> Counter:
    return Counter(node.kind for node in iter_dag(expr))


def _termination(spec: RuleSpec, instance: RuleInstance) -> List[Diagnostic]:
    """Each rule decreases the measure or is a permutation."""
    if instance.lhs is instance.rhs:
        return []  # an identity has no termination obligation
    lhs_measure = rule_measure(instance.lhs)
    rhs_measure = rule_measure(instance.rhs)
    measures = dict(rule=spec.name, lhs_measure=list(lhs_measure),
                    rhs_measure=list(rhs_measure))
    if rhs_measure < lhs_measure:
        return [_finding(
            INFO, "measure-decreases", spec.name,
            f"measure {lhs_measure} -> {rhs_measure} "
            "(read-over-write redexes, DAG size): terminating",
            **measures,
        )]
    if _kind_multiset(instance.lhs) == _kind_multiset(instance.rhs):
        return [_finding(
            INFO, "permutative-rule", spec.name,
            "LHS and RHS have equal node-kind multisets; the rule "
            "permutes structure and needs an external well-founded "
            "order (in-order retirement) for termination",
            rule=spec.name,
        )]
    return [_finding(
        WARNING, "measure-not-decreasing", spec.name,
        f"measure {lhs_measure} -> {rhs_measure} does not decrease and "
        "the rule is not a permutation; termination of the rule set is "
        "not certified by the node-count measure",
        **measures,
    )]


def analyze_rules(specs: Optional[Iterable[RuleSpec]] = None) -> List[Diagnostic]:
    """Every ``rules.*`` finding for ``specs`` (default: the registry).

    Each instance is built once; a broken builder is itself a finding.
    Per rule: side conditions, soundness and termination; then the
    critical pairs of the whole set and a ``registry-summary``.
    """
    diagnostics: List[Diagnostic] = []
    instances: List[Tuple[RuleSpec, RuleInstance]] = []
    for spec in (REGISTRY if specs is None else specs):
        try:
            instance = spec.build()
        except Exception as exc:  # a broken builder is itself a finding
            diagnostics.append(_finding(
                ERROR, "builder-failed", spec.name,
                f"rule instance builder raised {type(exc).__name__}: {exc}",
            ))
            continue
        instances.append((spec, instance))
        diagnostics.extend(_static_checks(spec, instance))
        diagnostics.extend(_soundness(spec, instance))
        diagnostics.extend(_termination(spec, instance))
    diagnostics.extend(_confluence(instances))
    return diagnostics
