"""DAG traversal utilities for EUFM expressions.

All walks are iterative so that deeply nested expressions (e.g. ITE chains
over hundreds of reorder-buffer entries) never hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .ast import (
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
)
from . import builder
from ..guard.deadline import current_deadline

__all__ = [
    "iter_dag",
    "node_count",
    "dag_depth",
    "term_variables",
    "bool_variables",
    "function_symbols",
    "predicate_symbols",
    "equations",
    "memory_nodes",
    "rebuild",
    "substitute",
    "expression_stats",
]


def iter_dag(*roots: Expr) -> Iterator[Expr]:
    """Yield every distinct node reachable from ``roots`` in post-order.

    Children are always yielded before their parents, so a single pass can
    compute bottom-up attributes.
    """
    deadline = current_deadline()
    seen: Set[Expr] = set()
    for root in roots:
        if root in seen:
            continue
        stack: List[Tuple[Expr, bool]] = [(root, False)]
        while stack:
            deadline.tick("eufm")
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for child in node.children:
                if child not in seen:
                    stack.append((child, False))


def node_count(*roots: Expr) -> int:
    """Number of distinct DAG nodes reachable from ``roots``."""
    return sum(1 for _ in iter_dag(*roots))


def dag_depth(root: Expr) -> int:
    """Length of the longest root-to-leaf path (a leaf has depth 1)."""
    depth: Dict[Expr, int] = {}
    for node in iter_dag(root):
        children = node.children
        if children:
            depth[node] = 1 + max(depth[child] for child in children)
        else:
            depth[node] = 1
    return depth[root]


def term_variables(*roots: Expr) -> List[TermVar]:
    """All distinct term variables, in first-encountered (post-order) order."""
    return [node for node in iter_dag(*roots) if isinstance(node, TermVar)]


def bool_variables(*roots: Expr) -> List[BoolVar]:
    """All distinct propositional variables, in post-order."""
    return [node for node in iter_dag(*roots) if isinstance(node, BoolVar)]


def function_symbols(*roots: Expr) -> List[str]:
    """Distinct UF symbols, in order of first appearance."""
    symbols: List[str] = []
    seen: Set[str] = set()
    for node in iter_dag(*roots):
        if isinstance(node, UFApp) and node.symbol not in seen:
            seen.add(node.symbol)
            symbols.append(node.symbol)
    return symbols


def predicate_symbols(*roots: Expr) -> List[str]:
    """Distinct UP symbols, in order of first appearance."""
    symbols: List[str] = []
    seen: Set[str] = set()
    for node in iter_dag(*roots):
        if isinstance(node, UPApp) and node.symbol not in seen:
            seen.add(node.symbol)
            symbols.append(node.symbol)
    return symbols


def equations(*roots: Expr) -> List[Eq]:
    """All distinct equations in the DAG."""
    return [node for node in iter_dag(*roots) if isinstance(node, Eq)]


def memory_nodes(*roots: Expr) -> List[Expr]:
    """All distinct ``read``/``write`` nodes in the DAG."""
    return [node for node in iter_dag(*roots) if isinstance(node, (Read, Write))]


def rebuild(
    root: Expr,
    visit: Callable[[Expr, Dict[Expr, Expr]], Optional[Expr]],
) -> Expr:
    """Rebuild ``root`` bottom-up, letting ``visit`` replace nodes.

    ``visit(node, rebuilt)`` is called for every node in post-order, with
    ``rebuilt`` already mapping each of the node's children to its
    rebuilt form.  A non-``None`` return value replaces the node;
    ``None`` rebuilds it from its rebuilt children through the smart
    constructors, so local simplification is re-applied.
    """
    rebuilt: Dict[Expr, Expr] = {}
    for node in iter_dag(root):
        replacement = visit(node, rebuilt)
        rebuilt[node] = (
            _rebuild(node, rebuilt) if replacement is None else replacement
        )
    return rebuilt[root]


def substitute(root: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Simultaneously replace the keys of ``mapping`` in ``root``.

    The walk does not descend into a mapped node, so replacing a large
    sub-DAG costs only the size of the logic above it, and a node mapped
    to itself is an opaque stop: it is kept as it is, whatever the
    mapping says about the nodes beneath it.  Replacement is
    non-recursive (the substituted expressions are not themselves
    rewritten), matching standard simultaneous substitution; everything
    else is rebuilt through the smart constructors.
    """
    for old, new in mapping.items():
        if old.is_term() != new.is_term():
            raise TypeError(f"substitution changes sort of {old!r}")
    deadline = current_deadline()
    rebuilt: Dict[Expr, Expr] = {}
    stack: List[Tuple[Expr, bool]] = [(root, False)]
    while stack:
        deadline.tick("eufm")
        node, expanded = stack.pop()
        if expanded:
            rebuilt[node] = _rebuild(node, rebuilt)
            continue
        if node in rebuilt:
            continue
        replacement = mapping.get(node)
        if replacement is not None:
            rebuilt[node] = replacement
            continue
        stack.append((node, True))
        for child in node.children:
            if child not in rebuilt:
                stack.append((child, False))
    return rebuilt[root]


def _rebuild(node: Expr, rebuilt: Dict[Expr, Expr]) -> Expr:
    """Reconstruct ``node`` from already-rebuilt children."""
    kind = node.kind
    if kind in ("tvar", "bvar", "const"):
        return node
    if kind == "uf":
        return builder.uf(node.symbol, [rebuilt[a] for a in node.args])
    if kind == "up":
        return builder.up(node.symbol, [rebuilt[a] for a in node.args])
    if kind == "tite":
        return builder.ite_term(
            rebuilt[node.cond], rebuilt[node.then], rebuilt[node.els]
        )
    if kind == "fite":
        return builder.ite_formula(
            rebuilt[node.cond], rebuilt[node.then], rebuilt[node.els]
        )
    if kind == "read":
        return builder.read(rebuilt[node.mem], rebuilt[node.addr])
    if kind == "write":
        return builder.write(rebuilt[node.mem], rebuilt[node.addr], rebuilt[node.data])
    if kind == "eq":
        return builder.eq(rebuilt[node.lhs], rebuilt[node.rhs])
    if kind == "not":
        return builder.not_(rebuilt[node.arg])
    if kind == "and":
        return builder.and_(*[rebuilt[a] for a in node.args])
    if kind == "or":
        return builder.or_(*[rebuilt[a] for a in node.args])
    raise TypeError(f"unknown node kind {kind!r}")


def expression_stats(*roots: Expr) -> Dict[str, int]:
    """Counts of node kinds — handy for reporting formula sizes."""
    stats: Dict[str, int] = {}
    for node in iter_dag(*roots):
        stats[node.kind] = stats.get(node.kind, 0) + 1
    stats["total"] = sum(stats.values())
    return stats
