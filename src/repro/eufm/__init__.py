"""EUFM — the logic of Equality with Uninterpreted Functions and Memories.

This package is the logical substrate of the reproduction: hash-consed
expression DAGs, smart constructors, traversal utilities, polarity
(Positive Equality) classification, a concrete
evaluator used as semantic ground truth in tests, and an S-expression
printer.
"""

from .ast import (
    FALSE,
    TRUE,
    And,
    BoolConst,
    BoolVar,
    Eq,
    Expr,
    Formula,
    FormulaITE,
    Not,
    Or,
    Read,
    Term,
    TermITE,
    TermVar,
    UFApp,
    UPApp,
    Write,
    clear_intern_cache,
    interned_count,
    run_scope,
)
from .builder import (
    and_,
    bvar,
    eq,
    iff,
    implies,
    ite_formula,
    ite_term,
    not_,
    or_,
    read,
    tvar,
    uf,
    up,
    write,
    xor,
)
from .evaluator import Interpretation, MemVal, SortError, evaluate
from .polarity import BOTH, NEG, POS, PolarityInfo, classify
from .printer import to_sexpr
from .traversal import (
    bool_variables,
    equations,
    iter_dag,
    node_count,
    rebuild,
    substitute,
    term_variables,
)

__all__ = [
    # ast
    "FALSE",
    "TRUE",
    "And",
    "BoolConst",
    "BoolVar",
    "Eq",
    "Expr",
    "Formula",
    "FormulaITE",
    "Not",
    "Or",
    "Read",
    "Term",
    "TermITE",
    "TermVar",
    "UFApp",
    "UPApp",
    "Write",
    "clear_intern_cache",
    "interned_count",
    "run_scope",
    # builder
    "and_",
    "bvar",
    "eq",
    "iff",
    "implies",
    "ite_formula",
    "ite_term",
    "not_",
    "or_",
    "read",
    "tvar",
    "uf",
    "up",
    "write",
    "xor",
    # evaluator
    "Interpretation",
    "MemVal",
    "SortError",
    "evaluate",
    # printer
    "to_sexpr",
    # polarity
    "BOTH",
    "NEG",
    "POS",
    "PolarityInfo",
    "classify",
    # traversal
    "bool_variables",
    "equations",
    "iter_dag",
    "node_count",
    "rebuild",
    "substitute",
    "term_variables",
]
