"""CNF clause databases and DIMACS I/O.

Literals use the DIMACS convention: variable ``v`` (a positive integer)
appears positively as ``v`` and negatively as ``-v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Cnf", "parse_dimacs", "to_dimacs"]


@dataclass
class Cnf:
    """A CNF formula: a clause list plus optional variable names.

    ``names`` maps variable indices to human-readable names (e.g. the EUFM
    Boolean variable or the ``e_ij`` comparison a CNF variable encodes);
    it is metadata only and does not affect satisfiability.
    """

    num_vars: int = 0
    clauses: List[Tuple[int, ...]] = field(default_factory=list)
    names: Dict[int, str] = field(default_factory=dict)

    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally recording a name for it."""
        self.num_vars += 1
        if name is not None:
            self.names[self.num_vars] = name
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; tautologies are dropped, duplicates merged."""
        unique: List[int] = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = abs(lit)
            if var > self.num_vars:
                raise ValueError(f"literal {lit} references unallocated variable")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                unique.append(lit)
        self.clauses.append(tuple(unique))

    def dedupe(self) -> int:
        """Drop repeated clauses, keeping first occurrences.

        Clauses are compared as literal *sets*, so permutations of the
        same clause collapse too.  An empty clause is kept (one copy) —
        it is the unsatisfiable verdict, not noise.  Returns the number
        of clauses removed.
        """
        seen = set()
        kept: List[Tuple[int, ...]] = []
        for clause in self.clauses:
            key = frozenset(clause)
            if key in seen:
                continue
            seen.add(key)
            kept.append(clause)
        removed = len(self.clauses) - len(kept)
        self.clauses = kept
        return removed

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def stats(self) -> Dict[str, int]:
        return {
            "vars": self.num_vars,
            "clauses": self.num_clauses,
            "literals": sum(len(c) for c in self.clauses),
        }

    def check_assignment(self, assignment: Dict[int, bool]) -> bool:
        """True when every clause has a satisfied literal under ``assignment``.

        A literal whose variable is *missing* from ``assignment`` never
        satisfies a clause: an incomplete model is rejected rather than
        the missing variables being read as false (which wrongly
        validated negative literals of unassigned variables).  The
        witness replay path relies on this to reject truncated
        counterexamples.
        """
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is not None and value == (lit > 0):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True


def to_dimacs(cnf: Cnf, comments: Sequence[str] = ()) -> str:
    """Render a CNF formula in DIMACS format."""
    lines: List[str] = [f"c {comment}" for comment in comments]
    for var in sorted(cnf.names):
        lines.append(f"c var {var} = {cnf.names[var]}")
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Cnf:
    """Parse a DIMACS CNF file (ignoring comments)."""
    cnf: Optional[Cnf] = None
    pending: List[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            cnf = Cnf(num_vars=int(parts[2]))
            continue
        if cnf is None:
            raise ValueError("clause before problem line")
        for token in line.split():
            lit = int(token)
            if lit == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(lit)
    if cnf is None:
        raise ValueError("missing problem line")
    if pending:
        cnf.add_clause(pending)
    return cnf
