"""Term-level counterexample reconstruction for SAT verdicts.

A SAT model of the encoded validity problem is a flat Boolean assignment
over primary inputs: original Boolean variables, the fresh ``vp!`` Boolean
variables of predicate elimination, and the ``e_ij`` equality variables
(including transitivity fill edges).  This module lifts it back through
the encoding layers of :mod:`repro.encode` into a concrete EUFM
interpretation — the counterexample the paper's debugging story needs:

1. **equivalence classes** — union-find over the term variables, merging
   every pair whose ``e_ij`` variable the model set true; the transitivity
   constraints of the CNF guarantee the closure is consistent with the
   false edges, and p-variables (maximal diversity) are never merged
   because no ``e_ij`` edge exists for them;
2. **domain values** — one distinct value per class, so equality of
   values coincides with the model's equality relation;
3. **function tables** — each fresh ``vc!``/``vp!`` variable carries its
   ``(symbol, argument-terms)`` provenance from UF elimination; one pass
   over the (UF-free) argument terms under the term and Boolean values
   fixed so far yields concrete argument tuples, and first-occurrence-wins
   matches the nested-ITE semantics of the encoding exactly;
4. **replay** — the memory-free correctness formula is evaluated under
   the synthesized interpretation through :mod:`repro.eufm.evaluator`;
   a genuine counterexample must evaluate to ``False``;
5. **minimization** — greedily drop assignment variables that are
   don't-cares (replay still falsifies under either value, with the other
   variables held fixed and already-dropped ones at their deterministic
   defaults).

Only the assignment changes between replays; what it does not touch is
computed once per encoding (``_ReplayPlan``), so a replay is one
evaluation pass over the provenance arguments and one over the formula.

The replay target is :attr:`~repro.encode.evc.EncodedValidity.memory_free`
— the exact formula the SAT instance decided.  Under the precise memory
mode that formula is equivalid with the original correctness formula;
under the conservative abstraction (``mem_read$``/``mem_write$`` as
general UFs) the counterexample falsifies the *abstraction*, which the
rendered diagnosis states explicitly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..encode.evc import EncodedValidity
from ..errors import WitnessError
from ..eufm.ast import Eq, Expr, TermVar
from ..eufm.evaluator import EvaluationPlan, Interpretation
from ..eufm.polarity import NEG
from ..eufm.printer import to_sexpr
from ..eufm.traversal import term_variables
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer

__all__ = ["TermCounterexample", "reconstruct_counterexample", "replay_assignment"]


@dataclass
class TermCounterexample:
    """A reconstructed, replayed, minimized term-level counterexample."""

    #: the decoded SAT model (``None`` values are solver don't-cares).
    raw_assignment: Dict[str, Optional[bool]]
    #: equivalence classes of term-variable names (non-singletons first).
    classes: List[List[str]]
    #: concrete domain value of every term variable.
    term_values: Dict[str, int]
    #: concrete values of the original Boolean variables.
    bool_values: Dict[str, bool]
    #: synthesized UF tables: symbol -> [(argument values, result)].
    uf_tables: Dict[str, List[Tuple[Tuple[int, ...], int]]]
    #: synthesized UP tables: symbol -> [(argument values, result)].
    up_tables: Dict[str, List[Tuple[Tuple[int, ...], bool]]]
    domain_size: int
    #: value of the correctness formula under the interpretation; a
    #: genuine counterexample replays to ``False``.
    replay_value: Optional[bool] = None
    #: the minimized assignment (don't-care variables dropped).
    minimized: Dict[str, bool] = field(default_factory=dict)
    #: value of the formula under the minimized assignment alone.
    minimized_replay_value: Optional[bool] = None
    #: ``"precise"`` or ``"conservative"`` (which memory story the
    #: replayed formula lives under).
    memory_mode: str = "precise"
    #: positively-occurring equations the interpretation falsifies —
    #: the spec/impl disagreements, rendered as s-expressions (one over
    #: 120 characters cut to 104, then a digest of the whole text).
    disagreements: List[str] = field(default_factory=list)

    @property
    def raw_size(self) -> int:
        """Number of variables the SAT model actually decided."""
        return sum(1 for value in self.raw_assignment.values() if value is not None)

    @property
    def minimized_size(self) -> int:
        return len(self.minimized)

    @property
    def replayed_false(self) -> bool:
        return self.replay_value is False and self.minimized_replay_value is False

    def render(self, max_disagreements: int = 8) -> str:
        """Human-readable diagnosis of the counterexample."""
        lines = [
            f"counterexample over a {self.domain_size}-value domain "
            f"({self.memory_mode} memory mode); formula replays to "
            f"{self.replay_value}",
            f"  assignment: {self.raw_size} model variables, "
            f"{self.minimized_size} after don't-care minimization",
        ]
        merged = [group for group in self.classes if len(group) > 1]
        if merged:
            lines.append("  equal term classes:")
            for group in merged:
                value = self.term_values[group[0]]
                lines.append(f"    {{{', '.join(group)}}} = {value}")
        keep = sorted(self.minimized.items())
        if keep:
            shown = ", ".join(f"{name}={value}" for name, value in keep[:12])
            more = f", ... ({len(keep) - 12} more)" if len(keep) > 12 else ""
            lines.append(f"  minimized assignment: {shown}{more}")
        for symbol, entries in sorted(self.uf_tables.items()):
            rows = ", ".join(
                f"{symbol}{list(args)} = {value}" for args, value in entries[:6]
            )
            more = f", ... ({len(entries) - 6} more)" if len(entries) > 6 else ""
            lines.append(f"  UF {symbol}: {rows}{more}")
        for symbol, entries in sorted(self.up_tables.items()):
            rows = ", ".join(
                f"{symbol}{list(args)} = {value}" for args, value in entries[:6]
            )
            more = f", ... ({len(entries) - 6} more)" if len(entries) > 6 else ""
            lines.append(f"  UP {symbol}: {rows}{more}")
        if self.disagreements:
            lines.append("  falsified spec equalities (positive occurrences):")
            for text in self.disagreements[:max_disagreements]:
                lines.append(f"    {text}")
            hidden = len(self.disagreements) - max_disagreements
            if hidden > 0:
                lines.append(f"    ... ({hidden} more)")
        if self.memory_mode == "conservative":
            lines.append(
                "  note: memories are abstracted as general UFs here; the "
                "assignment falsifies the abstracted formula"
            )
        return "\n".join(lines)

    def summary_dict(self) -> Dict[str, object]:
        """Compact journal-safe summary (no full tables or assignments)."""
        return {
            "raw_size": self.raw_size,
            "minimized_size": self.minimized_size,
            "domain_size": self.domain_size,
            "classes": len(self.classes),
            "merged_classes": sum(1 for c in self.classes if len(c) > 1),
            "replay_value": self.replay_value,
            "minimized_replay_value": self.minimized_replay_value,
            "memory_mode": self.memory_mode,
            "disagreements": len(self.disagreements),
        }


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, name: str) -> None:
        self._parent.setdefault(name, name)

    def find(self, name: str) -> str:
        parent = self._parent
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:  # path compression
            parent[name], name = root, parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Deterministic orientation: the lexicographically smaller
            # name wins, so class roots are stable across runs.
            low, high = sorted((root_a, root_b))
            self._parent[high] = low

    def classes(self) -> List[List[str]]:
        groups: Dict[str, List[str]] = {}
        for name in self._parent:
            groups.setdefault(self.find(name), []).append(name)
        ordered = [sorted(members) for members in groups.values()]
        ordered.sort(key=lambda members: (-len(members), members[0]))
        return ordered


def _term_universe(encoded: EncodedValidity) -> List[TermVar]:
    """Every term variable the interpretation must value: the variables
    of the memory-free formula plus the fresh ``vc!`` variables (which
    appear only in the post-elimination artifacts)."""
    if encoded.memory_free is None:
        raise WitnessError(
            "encoding artifacts carry no memory-free formula; "
            "cannot reconstruct a counterexample"
        )
    universe: Dict[str, TermVar] = {
        var.name: var for var in term_variables(encoded.memory_free)
    }
    if encoded.uf_elim is not None:
        for var in encoded.uf_elim.fresh_term_vars:
            universe.setdefault(var.name, var)
    return [universe[name] for name in sorted(universe)]


def _eij_pairs(encoded: EncodedValidity):
    """All (pair, eij variable) edges: primary encoding plus chordal fill."""
    pairs = {}
    if encoded.eij is not None:
        pairs.update(encoded.eij.eij_vars)
    if encoded.transitivity is not None:
        pairs.update(encoded.transitivity.fill_vars)
    return pairs


class _ReplayPlan:
    """What replaying one :class:`EncodedValidity` needs, computed once.

    The term universe, the ``e_ij`` edges, the provenance arguments and
    the evaluation plans of those arguments and of the memory-free
    formula do not depend on the assignment being tried, so
    reconstruction, diagnosis, every minimization replay and the final
    replay share them.  Raises :class:`~repro.errors.WitnessError` when a
    provenance argument holds a UF or UP application: the arguments are
    evaluated in one pass before any table entry is pinned, which agrees
    with evaluating them one table entry at a time only while no
    argument reads a table.
    """

    def __init__(self, encoded: EncodedValidity) -> None:
        self.term_names = [var.name for var in _term_universe(encoded)]
        self.edges = [
            (eij_var.name, a.name, b.name)
            for (a, b), eij_var in _eij_pairs(encoded).items()
        ]
        self.root = encoded.memory_free
        self.formula = EvaluationPlan(encoded.memory_free)
        # (fresh variable name, symbol, argument terms) per fresh vc!/vp!
        # variable, in elimination order.
        self.functions: List[Tuple[str, str, Tuple[Expr, ...]]] = []
        self.predicates: List[Tuple[str, str, Tuple[Expr, ...]]] = []
        if encoded.uf_elim is not None:
            prov = encoded.uf_elim.provenance
            self.functions = [(fresh.name, *prov[fresh])
                              for fresh in encoded.uf_elim.fresh_term_vars]
            self.predicates = [(fresh.name, *prov[fresh])
                               for fresh in encoded.uf_elim.fresh_bool_vars]
        self.arguments = EvaluationPlan(*(
            arg for _, _, args in self.functions + self.predicates
            for arg in args
        ))
        for node in self.arguments.nodes:
            if node.kind in ("uf", "up"):
                raise WitnessError(
                    "a provenance argument holds the application "
                    f"{to_sexpr(node)}; cannot synthesize the UF/UP tables"
                )

    def interpretation(
        self, assignment: Dict[str, Optional[bool]]
    ) -> Tuple[Interpretation, List[List[str]]]:
        """Synthesize a concrete EUFM interpretation from a named assignment.

        Returns the interpretation and the term-variable equivalence
        classes (transitivity closure of the true ``e_ij`` edges).
        """
        union = _UnionFind()
        for name in self.term_names:
            union.add(name)
        for eij_name, a, b in self.edges:
            if assignment.get(eij_name) is True:
                union.union(a, b)

        classes = union.classes()
        # One distinct domain value per class: value equality coincides
        # with the model's equality relation.  Maximal diversity for
        # p-variables holds automatically — they sit in no e_ij edge, so
        # they keep singleton classes and therefore unique values.
        term_values: Dict[str, int] = {}
        for value, members in enumerate(classes):
            for name in members:
                term_values[name] = value
        domain_size = max(len(classes), 1)

        interp = Interpretation(domain_size=domain_size, term_values=term_values)

        # Original Boolean variables and the fresh vp! predicate variables.
        for name, value in assignment.items():
            if name.startswith("eij!") or value is None:
                continue
            interp.set_bool(name, value)

        # Function/predicate tables from the provenance of UF elimination.
        # Provenance argument terms are in the post-elimination language
        # (UF-free: variables and ITEs only), so one pass evaluates them
        # all under the term values fixed above.  First occurrence wins,
        # matching the nested-ITE chain ITE(args=args_1, vc_1, ...) of
        # the encoding.
        values = self.arguments.run(interp)
        pinned_uf: Set[Tuple[str, tuple]] = set()
        for fresh, symbol, args in self.functions:
            arg_values = tuple(values[arg] for arg in args)
            if (symbol, arg_values) not in pinned_uf:
                pinned_uf.add((symbol, arg_values))
                interp.set_uf(symbol, arg_values, interp.term_value(fresh))
        pinned_up: Set[Tuple[str, tuple]] = set()
        for fresh, symbol, args in self.predicates:
            arg_values = tuple(values[arg] for arg in args)
            if (symbol, arg_values) not in pinned_up:
                pinned_up.add((symbol, arg_values))
                value = assignment.get(fresh)
                if value is None:
                    value = interp.bool_value(fresh)
                interp.set_up(symbol, arg_values, value)
        return interp, classes

    def replay(self, assignment: Dict[str, Optional[bool]]) -> bool:
        """Value of the memory-free formula under a fresh interpretation
        built from ``assignment``."""
        interp, _ = self.interpretation(assignment)
        value = self.formula.run(interp)[self.root]
        if not isinstance(value, bool):  # pragma: no cover - formula root
            raise WitnessError("replay target did not evaluate to a Boolean")
        return value


def replay_assignment(
    encoded: EncodedValidity, assignment: Dict[str, Optional[bool]]
) -> bool:
    """Value of the memory-free correctness formula under ``assignment``.

    Builds a fresh interpretation (classes, tables and all) from the
    assignment and evaluates; a counterexample is genuine exactly when
    this returns ``False``.
    """
    return _ReplayPlan(encoded).replay(assignment)


def _minimize(
    plan: _ReplayPlan, assignment: Dict[str, Optional[bool]]
) -> Tuple[Dict[str, bool], int]:
    """Greedy don't-care elimination: drop a variable when the formula
    still replays false under *both* of its values (other variables held
    fixed; dropped ones at their deterministic seed defaults).

    Returns the minimized assignment and the number of replays made."""
    current: Dict[str, bool] = {
        name: value for name, value in assignment.items() if value is not None
    }
    deadline = current_deadline()
    replays = 0
    for name in sorted(current):
        deadline.check("witness")
        kept = current.pop(name)
        still_false = True
        for candidate in (True, False):
            trial = dict(current)
            trial[name] = candidate
            replays += 1
            if plan.replay(trial):
                still_false = False
                break
        if not still_false:
            current[name] = kept
    return current, replays


def _find_disagreements(
    encoded: EncodedValidity, values: Dict[Expr, object]
) -> List[str]:
    """Positively-occurring equations the interpretation falsifies.

    ``values`` are the memory-free formula's node values under the
    interpretation.  These are the equalities the correctness formula
    *asserts* (spec state = implementation state after the Burch–Dill
    diagram) and the counterexample breaks — the most useful lines of
    the diagnosis.
    """
    if encoded.polarity is None:
        return []
    found: List[str] = []
    seen: Set[Expr] = set()
    for node, mask in encoded.polarity.polarity.items():
        if not isinstance(node, Eq) or node in seen:
            continue
        seen.add(node)
        if mask & NEG:
            continue  # general occurrence: not a pure assertion
        if node in values and values[node] is False:
            text = to_sexpr(node)
            if len(text) > 120:
                # Equations run to hundreds of kilobytes and often share
                # their first hundred characters: the digest of the whole
                # text keeps two cut equations apart.
                digest = hashlib.sha256(text.encode()).hexdigest()[:12]
                text = f"{text[:104]}... #{digest}"
            found.append(text)
    found.sort()
    return found


def reconstruct_counterexample(
    encoded: EncodedValidity,
    assignment: Dict[str, Optional[bool]],
    minimize: bool = True,
) -> TermCounterexample:
    """Lift a decoded SAT model to a :class:`TermCounterexample`.

    Builds the interpretation, replays the formula, optionally minimizes
    the assignment, and collects the diagnosis.  Raises
    :class:`~repro.errors.WitnessError` when the encoding artifacts
    needed for reconstruction are missing (constant collapse), or when a
    provenance argument holds a UF or UP application.
    """
    tracer = current_tracer()
    current_deadline().check("witness")
    with tracer.span("witness.reconstruct"):
        plan = _ReplayPlan(encoded)
        interp, classes = plan.interpretation(assignment)
        uf_tables = {}
        up_tables = {}
        if encoded.uf_elim is not None:
            symbols = {s for s, _ in encoded.uf_elim.provenance.values()}
            for symbol in sorted(symbols):
                table = interp.uf_table(symbol)
                if table:
                    uf_tables[symbol] = sorted(table.items())
                ptable = interp.up_table(symbol)
                if ptable:
                    up_tables[symbol] = sorted(ptable.items())
        values = plan.formula.run(interp)
        replay_value = values[plan.root]
        cex = TermCounterexample(
            raw_assignment=dict(assignment),
            classes=classes,
            term_values={
                name: interp.term_value(name) for name in plan.term_names
            },
            bool_values={
                name: value
                for name, value in assignment.items()
                if value is not None and not name.startswith("eij!")
            },
            uf_tables=uf_tables,
            up_tables=up_tables,
            domain_size=interp.domain_size,
            replay_value=replay_value,
            memory_mode="precise" if encoded.memory is not None else "conservative",
        )
        tracer.add("witness.classes", len(classes))
        tracer.add(
            "witness.merged_classes",
            sum(1 for group in classes if len(group) > 1),
        )

    with tracer.span("witness.diagnose"):
        cex.disagreements = _find_disagreements(encoded, values)

    if minimize and replay_value is False:
        with tracer.span("witness.minimize") as span:
            cex.minimized, replays = _minimize(plan, assignment)
            cex.minimized_replay_value = plan.replay(dict(cex.minimized))
            span.add("witness.replays", replays + 1)
            span.add("witness.raw_vars", cex.raw_size)
            span.add("witness.minimized_vars", cex.minimized_size)
            span.add(
                "witness.dropped_vars", cex.raw_size - cex.minimized_size
            )
    return cex
