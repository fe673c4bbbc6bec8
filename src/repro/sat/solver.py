"""A CDCL SAT solver in the style of Chaff (Moskewicz et al., DAC 2001).

Features: two-watched-literal unit propagation, first-UIP conflict-clause
learning with clause minimization, VSIDS-like variable activities with a
lazy max-heap decision queue, phase saving, Luby restarts, and
activity-based learned-clause deletion.  This is the reproduction's
substitute for the Chaff SAT-checker used in the paper; absolute speed
differs (pure Python), the algorithmic behaviour does not.

Implementation notes: assignments are stored as small integers
(0 unassigned, +1 true, -1 false) indexed by variable, so the value of a
literal ``lit`` is ``assigns[|lit|] * sign(lit)``; the propagation loop
inlines these tests — they account for the bulk of the runtime.

Proof logging (``log_proof=True``): the solver records a DRUP clause
proof — every learned clause (post-minimization, including learned
units) and every learned-clause deletion of
:meth:`Solver._reduce_learned` — as ``("a"|"d", literals)`` steps.  An
UNSAT result's :attr:`SatResult.proof` ends with the empty clause and is
checkable against the CNF.  Logging is **off by default** and the hot
propagation loop is untouched either way; only the (comparatively rare)
conflict-analysis and clause-deletion paths test the flag.  The proof is
validated by the *independent* reverse-unit-propagation checker in
:mod:`repro.witness.drup`, which shares no code with this module.

:func:`solve_cnf` is the pipeline's one way into this module: it solves
each CNF once, on a fresh :class:`Solver`.  Its only budget is
``max_conflicts``; wall-clock and memory limits come from the ambient
:class:`repro.guard.Deadline`, which the search polls.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..errors import SolverError
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .cnf import Cnf

__all__ = ["SatResult", "Solver", "solve_cnf"]

#: Propagations between deadline checks in the main loop.  Counting
#: propagations rather than conflicts keeps a conflict-free cascade
#: under the clock too.
_PROP_CHECK_INTERVAL = 2048

#: Rough per-learned-clause overhead in bytes (clause object + watch-list
#: entries), on top of 8 bytes per literal; charged to the ambient
#: memory budget.
_CLAUSE_BYTES = 88


@dataclass
class SatResult:
    """Outcome of a SAT run."""

    status: str  # "sat", "unsat" or "unknown"
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    #: deepest decision level reached (0 when the instance propagates out).
    max_decision_level: int = 0
    #: DRUP proof steps ``("a"|"d", literals)`` when the solver ran with
    #: ``log_proof=True``; ``None`` otherwise.  Only meaningful for
    #: ``"unsat"`` outcomes (the final step is then the empty clause).
    proof: Optional[List[Tuple[str, Tuple[int, ...]]]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Clause:
    """A clause with an activity score; literals[0:2] are watched."""

    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


class Solver:
    """CDCL solver over a :class:`repro.sat.cnf.Cnf` instance.

    ``ok`` is False when loading the clauses already refuted the CNF (an
    input clause is falsified by the input units alone).
    """

    def __init__(self, cnf: Cnf, log_proof: bool = False) -> None:
        self.num_vars = cnf.num_vars
        #: DRUP step log, or None when proof logging is off (the default).
        self._proof: Optional[List[Tuple[str, Tuple[int, ...]]]] = (
            [] if log_proof else None
        )
        # 1-indexed variable state; assigns holds 0 / +1 / -1.
        self.assigns: List[int] = [0] * (self.num_vars + 1)
        self.level: List[int] = [0] * (self.num_vars + 1)
        self.reason: List[Optional[_Clause]] = [None] * (self.num_vars + 1)
        self.activity: List[float] = [0.0] * (self.num_vars + 1)
        self.saved_phase: List[int] = [-1] * (self.num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.queue_head = 0
        self.watches: Dict[int, List[_Clause]] = {}
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self.ok = True
        self.stats = SatResult(status="unknown")
        #: amortized clause-activity rescales performed (see
        #: :meth:`_rescale_clause_activities`); exposed for regression
        #: tests asserting bounded per-conflict bump work.
        self._activity_rescales = 0
        # Lazy decision heap of (-activity, var); stale entries skipped.
        self._heap: List[Tuple[float, int]] = []
        for var in range(1, self.num_vars + 1):
            self._heap.append((0.0, var))
        for clause in cnf.clauses:
            if not self._add_clause(list(clause)):
                self.ok = False
                break

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def _add_clause(self, literals: List[int]) -> bool:
        """Attach a problem clause; False when it makes the instance unsat."""
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError(
                    f"clause literal {lit} is outside the variable range "
                    f"1..{self.num_vars}"
                )
        literals = sorted(set(literals), key=abs)
        seen = set(literals)
        if any(-lit in seen for lit in literals):
            return True  # tautology
        assigns = self.assigns
        simplified = []
        for lit in literals:
            value = assigns[lit] if lit > 0 else -assigns[-lit]
            if value > 0:
                return True  # satisfied at level 0
            if value == 0:
                simplified.append(lit)
        literals = simplified
        if not literals:
            return False
        if len(literals) == 1:
            return self._enqueue(literals[0], None)
        clause = _Clause(literals, False)
        self.clauses.append(clause)
        self.watches.setdefault(-literals[0], []).append(clause)
        self.watches.setdefault(-literals[1], []).append(clause)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        var = lit if lit > 0 else -lit
        current = self.assigns[var]
        if current != 0:
            return (current > 0) == (lit > 0)
        self.assigns[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # ------------------------------------------------------------------
    # Propagation (hot path — values inlined)
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Propagate the queue; returns a conflicting clause or None."""
        assigns = self.assigns
        level = self.level
        reason = self.reason
        trail = self.trail
        watches = self.watches
        trail_lim_len_getter = self.trail_lim
        while self.queue_head < len(trail):
            lit = trail[self.queue_head]
            self.queue_head += 1
            self.stats.propagations += 1
            watch_list = watches.get(lit)
            if not watch_list:
                continue
            kept: List[_Clause] = []
            conflict: Optional[_Clause] = None
            index = 0
            total = len(watch_list)
            while index < total:
                clause = watch_list[index]
                index += 1
                literals = clause.literals
                if literals[0] == -lit:
                    literals[0] = literals[1]
                    literals[1] = -lit
                first = literals[0]
                first_value = assigns[first] if first > 0 else -assigns[-first]
                if first_value > 0:
                    kept.append(clause)
                    continue
                moved = False
                for slot in range(2, len(literals)):
                    candidate = literals[slot]
                    cand_value = (
                        assigns[candidate] if candidate > 0 else -assigns[-candidate]
                    )
                    if cand_value >= 0:
                        literals[1] = candidate
                        literals[slot] = -lit
                        watches.setdefault(-candidate, []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if first_value < 0:
                    kept.extend(watch_list[index:])
                    conflict = clause
                    break
                # Unit: enqueue `first` (inlined _enqueue fast path).
                var = first if first > 0 else -first
                assigns[var] = 1 if first > 0 else -1
                level[var] = len(trail_lim_len_getter)
                reason[var] = clause
                trail.append(first)
            watches[lit] = kept
            if conflict is not None:
                self.queue_head = len(trail)
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit: Optional[int] = None
        clause: Optional[_Clause] = conflict
        trail_index = len(self.trail) - 1
        current_level = len(self.trail_lim)

        while True:
            assert clause is not None
            self._bump_clause(clause)
            for reason_lit in clause.literals:
                if lit is not None and reason_lit == lit:
                    continue
                var = reason_lit if reason_lit > 0 else -reason_lit
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(reason_lit)
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            lit = self.trail[trail_index]
            trail_index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            clause = self.reason[var]

        learnt = self._minimize(learnt, seen)
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(self.level[abs(l)] for l in learnt[1:])
        for slot in range(1, len(learnt)):
            if self.level[abs(learnt[slot])] == back_level:
                learnt[1], learnt[slot] = learnt[slot], learnt[1]
                break
        return learnt, back_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Drop literals implied by the rest of the clause (local check)."""
        for lit in learnt[1:]:
            seen[abs(lit)] = True
        minimized = [learnt[0]]
        for lit in learnt[1:]:
            reason = self.reason[abs(lit)]
            if reason is None:
                minimized.append(lit)
                continue
            if any(
                abs(other) != abs(lit)
                and not seen[abs(other)]
                and self.level[abs(other)] > 0
                for other in reason.literals
            ):
                minimized.append(lit)
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        return minimized

    def _bump_var(self, var: int) -> None:
        activity = self.activity[var] + self.var_inc
        self.activity[var] = activity
        heappush(self._heap, (-activity, var))
        if activity > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100
            self._heap = [
                (-self.activity[v], v)
                for v in range(1, self.num_vars + 1)
                if self.assigns[v] == 0
            ]
            self._heap.sort()

    def _bump_clause(self, clause: _Clause) -> None:
        # O(1): rescaling is amortized onto the conflict path (see
        # _rescale_clause_activities), triggered by cla_inc alone, so a
        # saturated activity never makes every bump O(learned).
        if clause.learned:
            clause.activity += self.cla_inc

    def _rescale_clause_activities(self) -> None:
        """Uniformly rescale learned-clause activities.

        Called from the conflict path when ``cla_inc`` saturates.  Since
        every activity is a sum of past ``cla_inc`` values, bounding
        ``cla_inc`` bounds them all; the uniform factor preserves the
        relative order :meth:`_reduce_learned` sorts by.
        """
        for learned in self.learned:
            learned.activity *= 1e-20
        self.cla_inc *= 1e-20
        self._activity_rescales += 1

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------

    def _backtrack(self, back_level: int) -> None:
        if len(self.trail_lim) <= back_level:
            return
        boundary = self.trail_lim[back_level]
        assigns = self.assigns
        heap = self._heap
        activity = self.activity
        for lit in reversed(self.trail[boundary:]):
            var = lit if lit > 0 else -lit
            self.saved_phase[var] = assigns[var]
            assigns[var] = 0
            self.reason[var] = None
            heappush(heap, (-activity[var], var))
        del self.trail[boundary:]
        del self.trail_lim[back_level:]
        self.queue_head = len(self.trail)

    def _decide(self) -> bool:
        assigns = self.assigns
        activity = self.activity
        heap = self._heap
        while heap:
            neg_activity, var = heappop(heap)
            if assigns[var] != 0 or -neg_activity != activity[var]:
                continue  # stale heap entry
            self.trail_lim.append(len(self.trail))
            lit = var if self.saved_phase[var] > 0 else -var
            self._enqueue(lit, None)
            self.stats.decisions += 1
            if len(self.trail_lim) > self.stats.max_decision_level:
                self.stats.max_decision_level = len(self.trail_lim)
            return True
        # Heap exhausted: fall back to a scan for any unassigned variable.
        for var in range(1, self.num_vars + 1):
            if assigns[var] == 0:
                self.trail_lim.append(len(self.trail))
                lit = var if self.saved_phase[var] > 0 else -var
                self._enqueue(lit, None)
                self.stats.decisions += 1
                if len(self.trail_lim) > self.stats.max_decision_level:
                    self.stats.max_decision_level = len(self.trail_lim)
                return True
        return False

    def _learned_limit(self) -> int:
        """Learned-clause count that triggers a reduction sweep.

        Without an ambient memory budget this is the historical 4000.
        Under a :class:`repro.guard.memory.MemoryBudget` the limit
        shrinks with the remaining headroom so the learned database
        cannot single-handedly exhaust the budget, with a floor of 256
        (a solver that may keep no learned clauses cannot learn).
        """
        budget = current_deadline().memory
        if budget is None:
            return 4000
        headroom = budget.max_bytes - budget.usage_bytes(sample=False)
        per_clause = _CLAUSE_BYTES + 8 * 16  # assume ~16-literal clauses
        if headroom <= 0:
            return 256
        return int(max(256, min(4000, headroom // (2 * per_clause))))

    def _reduce_learned(self) -> None:
        if len(self.learned) < self._learned_limit():
            return
        self.learned.sort(key=lambda clause: clause.activity, reverse=True)
        keep = len(self.learned) // 2
        locked = {
            id(self.reason[abs(lit)])
            for lit in self.trail
            if self.reason[abs(lit)] is not None
        }
        survivors = []
        removed = set()
        for position, clause in enumerate(self.learned):
            if position < keep or id(clause) in locked or len(clause.literals) <= 2:
                survivors.append(clause)
            else:
                removed.add(id(clause))
                if self._proof is not None:
                    self._proof.append(("d", tuple(clause.literals)))
        if not removed:
            return
        self.learned = survivors
        for lit, watch_list in self.watches.items():
            self.watches[lit] = [c for c in watch_list if id(c) not in removed]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, max_conflicts: Optional[int] = None) -> SatResult:
        """Search until a verdict or ``max_conflicts`` conflicts.

        A solver decides its CNF once: build a fresh one per call (as
        :func:`solve_cnf` does).
        """
        result = self.stats
        if not self.ok:
            # Loading the clauses refuted the CNF; the empty clause is
            # reverse-unit-propagation derivable from the input units.
            result.status = "unsat"
            result.proof = None if self._proof is None else [("a", ())]
            return result

        restart_base = 100
        luby_index = 1
        conflicts_until_restart = restart_base * _luby(luby_index)
        conflicts_since_restart = 0
        deadline = current_deadline()
        deadline.check("sat")
        next_prop_check = _PROP_CHECK_INTERVAL

        while True:
            conflict = self._propagate()
            if result.propagations >= next_prop_check:
                next_prop_check = result.propagations + _PROP_CHECK_INTERVAL
                deadline.check("sat")
            if conflict is not None:
                result.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    # A conflict at the root: the CNF is unsatisfiable.
                    result.status = "unsat"
                    break
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if self._proof is not None:
                    self._proof.append(("a", tuple(learnt)))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        result.status = "unsat"
                        break
                else:
                    clause = _Clause(learnt, learned=True)
                    clause.activity = self.cla_inc
                    self.learned.append(clause)
                    self.watches.setdefault(-learnt[0], []).append(clause)
                    self.watches.setdefault(-learnt[1], []).append(clause)
                    self._enqueue(learnt[0], clause)
                    result.learned_clauses += 1
                    deadline.charge(bytes_=_CLAUSE_BYTES + 8 * len(learnt))
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if self.cla_inc > 1e20:
                    self._rescale_clause_activities()
                if max_conflicts is not None and result.conflicts >= max_conflicts:
                    result.status = "unknown"
                    break
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                conflicts_since_restart = 0
                luby_index += 1
                conflicts_until_restart = restart_base * _luby(luby_index)
                result.restarts += 1
                self._backtrack(0)
                self._reduce_learned()
                continue

            if not self._decide():
                result.status = "sat"
                result.model = {
                    var: self.assigns[var] > 0
                    for var in range(1, self.num_vars + 1)
                    if self.assigns[var] != 0
                }
                break

        if self._proof is not None and result.is_unsat:
            self._proof.append(("a", ()))
        result.proof = self._proof
        return result


def _luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    ``index`` is 1-based.  Standard MiniSat-style computation: find the
    subsequence containing ``index`` and the position within it.
    """
    x = index - 1
    size, level = 1, 0
    while size < x + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        level -= 1
        x = x % size
    return 1 << level


def solve_cnf(
    cnf: Cnf,
    max_conflicts: Optional[int] = None,
    log_proof: bool = False,
) -> SatResult:
    """Solve ``cnf`` on a fresh :class:`Solver`.

    With ``log_proof=True`` the solver records a DRUP clause proof on
    ``result.proof`` (see the module docstring); off by default.  The
    call, clause loading included, is recorded as the ``"sat"`` span
    (with the full counter set) on the ambient tracer; a no-op unless one
    is installed.
    """
    with current_tracer().span("sat") as span:
        solver = Solver(cnf, log_proof=log_proof)
        result = solver.solve(max_conflicts)
        span.add("sat.variables", solver.num_vars)
        span.add("sat.clauses", len(solver.clauses))
        span.add("sat.decisions", result.decisions)
        span.add("sat.conflicts", result.conflicts)
        span.add("sat.propagations", result.propagations)
        span.add("sat.restarts", result.restarts)
        span.add("sat.learned_clauses", result.learned_clauses)
        span.add("sat.max_decision_level", result.max_decision_level)
        if result.proof is not None:
            span.add("sat.proof_steps", len(result.proof))
    return result
