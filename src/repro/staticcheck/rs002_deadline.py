"""RS002 — Deadline-poll coverage of pipeline loops.

PR 6's supervision contract: *every* layer of the pipeline honors the
ambient :class:`~repro.guard.deadline.Deadline`, so a wall/CPU/memory
budget (or a worker heartbeat) can interrupt any stage.  The contract
is only as good as its poll sites — a single unbounded loop with no
``check``/``tick`` call is a place where a supervised run can wedge
forever (the chaos-smoke hang scenario, minus the rescue).

For every ``while`` loop, and every ``for`` loop over an unbounded
iterator (``itertools.count(...)`` or the two-argument ``iter(...)``
sentinel form), in a pipeline package, the checker requires a poll on
some path through the loop body:

* a direct call whose attribute is ``check`` or ``tick`` (the Deadline
  and MemoryBudget poll vocabulary), e.g. ``deadline.tick("sat")`` or
  ``current_deadline().check("rewrite")``; or
* a call to a function *in the same module* that itself polls
  (computed to fixpoint over the module-local call graph — the
  dataflow half of the checker, covering helpers like a traversal
  kernel that polls on behalf of its callers).

Bounded ``for`` loops (ranges, container walks) are exempt: they are
dominated by the allocation that produced their iterable, which the
memory budget already charges.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from ..analysis.diagnostics import Diagnostic
from .engine import CheckerSpec, SourceModule, iter_body_nodes, register_checker

__all__ = ["check_deadline_polls"]

_POLL_ATTRS = frozenset({"check", "tick"})


def _is_poll(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _POLL_ATTRS
    )


def _called_names(nodes) -> Set[str]:
    """Bare and method names called anywhere in ``nodes`` (scope-local)."""
    names: Set[str] = set()
    for node in iter_body_nodes(nodes):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _polling_functions(module: SourceModule) -> Set[str]:
    """Module-local function names that poll, to call-graph fixpoint."""
    functions: Dict[str, ast.AST] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
    polling: Set[str] = {
        name for name, fn in functions.items()
        if any(_is_poll(n) for n in iter_body_nodes(fn.body))
    }
    changed = True
    while changed:
        changed = False
        for name, fn in functions.items():
            if name in polling:
                continue
            if _called_names(fn.body) & polling:
                polling.add(name)
                changed = True
    return polling


def _is_unbounded_for(node: ast.For) -> bool:
    iterator = node.iter
    if not isinstance(iterator, ast.Call):
        return False
    func = iterator.func
    if isinstance(func, ast.Attribute) and func.attr == "count" and \
            isinstance(func.value, ast.Name) and func.value.id == "itertools":
        return True
    if isinstance(func, ast.Name):
        if func.id == "count":
            return True
        if func.id == "iter" and len(iterator.args) == 2:
            return True
    return False


def check_deadline_polls(module: SourceModule) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    polling = _polling_functions(module)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.While):
            kind = "while"
        elif isinstance(node, ast.For) and _is_unbounded_for(node):
            kind = "unbounded for"
        else:
            continue
        body = list(iter_body_nodes(node.body))
        if any(_is_poll(n) for n in body):
            continue
        called = {
            n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in body
            if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))
        }
        if called & polling:
            continue
        findings.append(module.finding(
            "RS002", "unpolled-loop", node,
            f"{kind} loop has no Deadline.check/tick on any path through "
            "its body; a supervised run can wedge here — poll the ambient "
            "deadline (repro.guard.current_deadline) inside the loop",
            loop_kind=kind,
        ))
    return findings


register_checker(CheckerSpec(
    code="RS002",
    name="deadline-poll-coverage",
    description=(
        "every while/unbounded-for loop in a pipeline package polls the "
        "ambient Deadline on some path through its body"
    ),
    scope=frozenset({"processor", "rewriting", "encode", "sat", "witness",
                     "eufm", "decision", "service"}),
    run_file=check_deadline_polls,
))
