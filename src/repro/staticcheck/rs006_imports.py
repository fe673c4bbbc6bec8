"""RS006 — unused imports.

A module-level import whose name the module never reads is dead weight:
it costs import time, hides which modules really depend on which, and
outlives the code that once needed it.  The checker reports each such
name (``unused-import``), anchored at the imported name.

A name counts as used when the module reads it anywhere, in any scope,
or names it inside a string annotation (``-> "Expr"``).  Exempt:

* ``from __future__ import ...``;
* names listed in a literal ``__all__`` (re-exports);
* ``__init__.py`` files, whose imports are the package's interface.

Module-level means outside every function and class body, including
imports under a module-level ``if``/``try``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set, Tuple

from ..analysis.diagnostics import Diagnostic
from .engine import CheckerSpec, SourceModule, iter_body_nodes, register_checker

__all__ = ["check_unused_imports"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bindings(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(bound name, node to anchor at)`` of every module-level import:
    the imported name itself, or its statement before Python 3.10, whose
    ``ast.alias`` has no line."""
    top = [stmt for stmt in tree.body if not isinstance(stmt, _SCOPES)]
    for node in iter_body_nodes(top):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name, a) for a in node.names if a.name != "*"]
        else:
            continue
        for name, alias in names:
            yield name, alias if hasattr(alias, "lineno") else node


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """The names a string annotation (or a string inside one) refers to."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)
            )
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            used.add(node.target.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of every literal ``__all__`` assignment."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return names


def check_unused_imports(module: SourceModule) -> List[Diagnostic]:
    if os.path.basename(module.path) == "__init__.py":
        return []
    used = _used_names(module.tree) | _exported(module.tree)
    return [
        module.finding(
            "RS006", "unused-import", anchor,
            f"'{name}' is imported but never used; delete the import "
            "(or list the name in __all__ if it is a re-export)",
            name=name,
        )
        for name, anchor in _bindings(module.tree)
        if name not in used
    ]


register_checker(CheckerSpec(
    code="RS006",
    name="unused-import",
    description=(
        "every module-level import is used; __future__ imports, names in "
        "__all__ and __init__.py files are exempt"
    ),
    scope=None,
    run_file=check_unused_imports,
))
