"""SAT substrate: CNF databases, Tseitin translation and a CDCL solver.

The CDCL solver (:class:`repro.sat.Solver`) plays the role of the Chaff
SAT-checker in the paper's tool flow: the negated, propositionally encoded
correctness formula is proved unsatisfiable here, once.
:func:`repro.sat.solve_cnf` is the one seam the pipeline solves through:
each call builds a fresh solver, bounded by ``max_conflicts`` and by the
ambient :class:`repro.guard.Deadline`.
"""

from .cnf import Cnf, parse_dimacs, to_dimacs
from .reference import solve_by_enumeration
from .solver import SatResult, Solver, solve_cnf
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
]
