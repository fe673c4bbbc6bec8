"""S-expression rendering of EUFM expressions.

* term variable                  ``x``
* Boolean variable               ``$b``
* UF / UP application            ``(f arg1 arg2)`` / ``($p arg1)``
* term / formula ITE             ``(ite cond then else)``
* memory operations              ``(read m a)`` / ``(write m a d)``
* equation                       ``(= t1 t2)``
* connectives                    ``(not f)`` / ``(and ...)`` / ``(or ...)``
* constants                      ``true`` / ``false``

Boolean-sorted names carry a ``$`` sigil, so a term and a formula of the
same name never print alike.  :func:`to_sexpr` renders a whole
expression (the rule-registry fingerprint, counterexample diagnostics,
Fig. 2); :func:`clip_sexpr` a depth-clipped one (``repr``).  Both go
through one kind dispatch, :func:`_render`.
"""

from __future__ import annotations

from typing import Dict, List

from .ast import Expr
from .traversal import iter_dag

__all__ = ["to_sexpr", "clip_sexpr"]

#: kinds rendered as a bare name or constant, never clipped.
_LEAF_KINDS = ("const", "tvar", "bvar")


def to_sexpr(root: Expr) -> str:
    """Serialize ``root`` as a single-line S-expression."""
    text: Dict[Expr, str] = {}
    for node in iter_dag(root):
        text[node] = _render(node, [text[child] for child in node.children])
    return text[root]


def clip_sexpr(root: Expr, max_depth: int = 4) -> str:
    """Depth-clipped S-expression for ``repr`` and log lines.

    ``to_sexpr`` renders the DAG as a *tree*, so on deeply shared
    processor-sized formulas the full string is exponentially large —
    building it just to truncate to a one-line repr can dominate the
    whole process (pytest's assertion reprs walk result objects holding
    such terms).  This variant elides everything below ``max_depth`` as
    ``...`` and never materializes more than the clipped text.
    """
    if max_depth <= 0 and root.kind not in _LEAF_KINDS:
        return "..."
    return _render(
        root, [clip_sexpr(child, max_depth - 1) for child in root.children]
    )


def _render(node: Expr, parts: List[str]) -> str:
    """The text of ``node`` given the text of each of its children."""
    kind = node.kind
    if kind == "const":
        return "true" if node.value else "false"
    if kind == "tvar":
        return node.name
    if kind == "bvar":
        return "$" + node.name
    if kind == "uf":
        head = node.symbol
    elif kind == "up":
        head = "$" + node.symbol
    elif kind in ("tite", "fite"):
        head = "ite"
    elif kind == "eq":
        head = "="
    elif kind in ("read", "write", "not", "and", "or"):
        head = kind
    else:
        raise TypeError(f"unknown node kind {kind!r}")
    return "(" + " ".join([head, *parts]) + ")"
