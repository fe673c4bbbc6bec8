"""SAT substrate: CNF databases, Tseitin translation and a CDCL solver.

The CDCL solver (:class:`repro.sat.Solver`) plays the role of the Chaff
SAT-checker in the paper's tool flow: the negated, propositionally encoded
correctness formula is proved unsatisfiable here.  A solver may be
called again after a budget-bounded call, keeping its learned clauses,
and :func:`repro.sat.solve_cnf` is the one seam the pipeline solves
through: it resumes a live solver from the ambient
:class:`repro.sat.SessionPool` when one is installed.
"""

from .cnf import Cnf, parse_dimacs, to_dimacs
from .reference import solve_by_enumeration
from .solver import (
    SatResult,
    SessionPool,
    Solver,
    cnf_digest,
    current_session_pool,
    solve_cnf,
    use_session_pool,
)
from .tseitin import TseitinResult, cnf_for_satisfiability, tseitin

__all__ = [
    "Cnf",
    "parse_dimacs",
    "to_dimacs",
    "solve_by_enumeration",
    "SatResult",
    "Solver",
    "solve_cnf",
    "TseitinResult",
    "cnf_for_satisfiability",
    "tseitin",
    "SessionPool",
    "cnf_digest",
    "current_session_pool",
    "use_session_pool",
]
