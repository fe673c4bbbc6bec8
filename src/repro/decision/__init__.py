"""Reference decision procedure for memory-free EUFM formulas.

Case splitting over atoms with congruence-closure theory propagation — an
independent implementation path from the Positive-Equality encoding, used
as an oracle by the tests and ``examples/eufm_playground.py``.
"""

from .congruence import Env, Inconsistent
from .splitter import (
    BudgetExceeded,
    DecisionBudget,
    is_satisfiable,
    is_valid,
)

__all__ = [
    "Env",
    "Inconsistent",
    "BudgetExceeded",
    "DecisionBudget",
    "is_satisfiable",
    "is_valid",
]
