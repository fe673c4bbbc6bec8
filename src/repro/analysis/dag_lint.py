"""Hygiene lint over the hash-consed EUFM DAG.

Two invariants keep the rest of the stack honest:

* **hash-consing** — structurally identical sub-expressions must be the
  *same* object (``intern_node`` guarantees it for expressions built
  through the public constructors).  A structural duplicate means some
  code path bypassed interning; identity-keyed caches (polarity masks,
  evaluation memo tables, the ``e_ij`` pair cache) silently miss on such
  nodes, so this is an error, not a style nit.
* **stage residue** — ``read``/``write`` nodes must not survive memory
  elimination, and nothing but propositional connectives may reach the
  Tseitin translation.  Both residues raise ``TypeError`` deep inside the
  pipeline eventually; the lint reports them at the stage boundary with
  an explanation instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..eufm.ast import (
    BoolConst,
    BoolVar,
    Eq,
    Expr,
    Formula,
    Read,
    TermVar,
    UFApp,
    UPApp,
    Write,
)
from ..eufm.traversal import iter_dag
from .diagnostics import ERROR, Diagnostic

__all__ = [
    "audit_hash_consing",
    "audit_memory_free",
    "audit_propositional",
]

_PROPOSITIONAL_KINDS = ("bvar", "const", "not", "and", "or", "fite")


def _payload(node: Expr) -> Tuple:
    if isinstance(node, (TermVar, BoolVar)):
        return (node.name,)
    if isinstance(node, (UFApp, UPApp)):
        return (node.symbol,)
    if isinstance(node, BoolConst):
        return (node.value,)
    return ()


def audit_hash_consing(*roots: Expr) -> List[Diagnostic]:
    """Find structurally identical nodes that are distinct objects.

    Walks the DAG bottom-up mapping every node to a canonical
    representative keyed on ``(kind, payload, canonical children)``; a
    second object arriving at an occupied key is a duplicate.
    """
    diagnostics: List[Diagnostic] = []
    canonical: Dict[Tuple, Expr] = {}
    representative: Dict[Expr, Expr] = {}
    for node in iter_dag(*roots):
        key = (
            node.kind,
            _payload(node),
            tuple(representative[child].uid for child in node.children),
        )
        existing = canonical.get(key)
        if existing is None:
            canonical[key] = node
            representative[node] = node
        else:
            representative[node] = existing
            if existing is not node:
                diagnostics.append(Diagnostic(
                    severity=ERROR,
                    stage="dag",
                    check="dag.non-hash-consed-duplicate",
                    subject=f"{node.kind} uid={node.uid}",
                    message=(
                        f"node duplicates uid={existing.uid} structurally "
                        "but is a distinct object; identity-keyed caches "
                        "and polarity masks will miss it"
                    ),
                ))
    return diagnostics


def audit_memory_free(phi: Formula, stage: str = "dag") -> List[Diagnostic]:
    """Flag ``read``/``write`` nodes that survived memory elimination."""
    diagnostics: List[Diagnostic] = []
    for node in iter_dag(phi):
        if isinstance(node, (Read, Write)):
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage=stage,
                check="dag.memory-op-after-elimination",
                subject=f"{node.kind} uid={node.uid}",
                message=(
                    f"{node.kind!r} node survived memory elimination; the "
                    "polarity classification cannot handle it"
                ),
            ))
    return diagnostics


def audit_propositional(phi: Formula, stage: str = "dag") -> List[Diagnostic]:
    """Flag non-propositional residue in a formula headed for Tseitin."""
    diagnostics: List[Diagnostic] = []
    for node in iter_dag(phi):
        if node.kind not in _PROPOSITIONAL_KINDS:
            detail = (
                "an equation escaped the e_ij encoding"
                if isinstance(node, Eq)
                else "a term-level node reached the propositional layer"
            )
            diagnostics.append(Diagnostic(
                severity=ERROR,
                stage=stage,
                check="dag.non-propositional-residue",
                subject=f"{node.kind} uid={node.uid}",
                message=f"{detail}; the Tseitin translation will reject it",
            ))
    return diagnostics
