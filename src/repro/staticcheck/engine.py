"""The staticcheck engine: source loading, checker registry, dispatch.

The engine is deliberately small.  A *checker* is a named, registered
analysis of one source file: it receives one parsed
:class:`SourceModule` and returns
:class:`~repro.analysis.diagnostics.Diagnostic` records for violations
in that file (RS001–RS006).  The rewrite-rule registry is not source
text; ``repro lint`` checks it (:mod:`repro.analysis.rules`).

Checkers declare a *scope*: the ``repro`` sub-packages whose
invariants they guard (``encode``, ``sat``, ...).  A file that does not
live under a recognizable ``repro`` package — e.g. a test fixture in a
temporary directory — matches every scope, which is what makes the
checkers unit-testable on snippets.

Suppression is two-tier, mirroring the split between *local* and
*deliberate* exemptions:

* a ``# noqa: RS002`` comment on the flagged line silences one site
  (use sparingly — prefer fixing);
* a committed baseline file (:mod:`repro.staticcheck.baseline`) records
  reviewed, justified exemptions and is enforced in CI.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.diagnostics import ERROR, Diagnostic
from ..errors import ReproError

__all__ = [
    "STAGE",
    "CheckerSpec",
    "SourceModule",
    "all_checkers",
    "checker_codes",
    "collect_files",
    "load_source",
    "register_checker",
    "resolve_codes",
    "run_project",
]

#: the ``Diagnostic.stage`` every staticcheck finding carries.
STAGE = "staticcheck"

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9_,\s]+))?", re.IGNORECASE)

#: container statements whose bodies are transparent to path analysis.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@dataclass
class SourceModule:
    """One parsed source file plus the derived maps the checkers share."""

    path: str
    relpath: str
    text: str
    tree: ast.Module
    #: dotted package parts, e.g. ``("repro", "encode")``; empty when the
    #: file does not live under a recognizable ``repro`` package root.
    package: Tuple[str, ...] = ()
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: line number -> set of suppressed codes ("*" means all).
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def subpackage(self) -> str:
        """The ``repro`` sub-package name (``"encode"``...), or ``""``."""
        return self.package[1] if len(self.package) >= 2 else ""

    def qualname(self, node: ast.AST) -> str:
        """Dotted function/class path enclosing ``node`` (``"<module>"``
        at top level) — the line-drift-stable part of a fingerprint."""
        names: List[str] = []
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                names.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(names)) or "<module>"

    def finding(
        self,
        code: str,
        slug: str,
        node: ast.AST,
        message: str,
        severity: str = ERROR,
        **data,
    ) -> Diagnostic:
        """Build one staticcheck Diagnostic anchored at ``node``."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Diagnostic(
            severity=severity,
            stage=STAGE,
            check=f"{code}.{slug}",
            subject=f"{self.relpath}:{line}",
            message=message,
            data={
                "code": code,
                "file": self.relpath,
                "line": line,
                "col": col,
                "qualname": self.qualname(node),
                **data,
            },
        )

    def suppressed(self, diagnostic: Diagnostic) -> bool:
        codes = self.noqa.get(diagnostic.data.get("line", 0))
        if not codes:
            return False
        return "*" in codes or diagnostic.data.get("code") in codes


@dataclass(frozen=True)
class CheckerSpec:
    """One registered invariant checker."""

    code: str
    name: str
    description: str
    run_file: Callable[[SourceModule], List[Diagnostic]]
    #: sub-packages of ``repro`` the checker applies to; ``None`` means
    #: every scanned file.
    scope: Optional[frozenset] = None

    def applies_to(self, module: SourceModule) -> bool:
        if self.scope is None:
            return True
        # Fixture mode: files outside a repro package match every scope.
        if not module.package:
            return True
        return module.subpackage in self.scope


_REGISTRY: Dict[str, CheckerSpec] = {}


def register_checker(spec: CheckerSpec) -> CheckerSpec:
    """Add ``spec`` to the registry (import-time side effect of the
    ``rs00x_*`` modules); re-registering a code replaces the entry."""
    _REGISTRY[spec.code] = spec
    return spec


def all_checkers() -> List[CheckerSpec]:
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def checker_codes() -> List[str]:
    return sorted(_REGISTRY)


def resolve_codes(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Set[str]:
    """The enabled checker codes after ``--select``/``--ignore``."""
    known = set(_REGISTRY)
    chosen = set(known)
    if select:
        requested = {code.strip().upper() for code in select if code.strip()}
        unknown = requested - known
        if unknown:
            raise ReproError(
                f"unknown checker code(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        chosen = requested
    if ignore:
        dropped = {code.strip().upper() for code in ignore if code.strip()}
        unknown = dropped - known
        if unknown:
            raise ReproError(
                f"unknown checker code(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        chosen -= dropped
    return chosen


# ---------------------------------------------------------------------------
# Source loading
# ---------------------------------------------------------------------------


def _derive_package(path: str) -> Tuple[Tuple[str, ...], str]:
    """Package parts + repo-relative path for a file under ``repro``."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = tuple(parts[index:-1])
            relpath = "/".join(parts[index:])
            return package, relpath
    return (), os.path.basename(path)


def _collect_noqa(text: str) -> Dict[int, Set[str]]:
    noqa: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            noqa[lineno] = {"*"}
        else:
            noqa[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return noqa


def load_source(path: str) -> Tuple[Optional[SourceModule], Optional[Diagnostic]]:
    """Parse one file; returns ``(module, None)`` or ``(None, finding)``.

    Unreadable or unparseable files are findings, not crashes: the
    engine must survive anything a repository can contain.
    """
    package, relpath = _derive_package(path)
    try:
        with tokenize.open(path) as handle:
            text = handle.read()
    except (OSError, SyntaxError, UnicodeDecodeError, ValueError) as exc:
        return None, Diagnostic(
            severity=ERROR,
            stage=STAGE,
            check="RS000.unreadable",
            subject=f"{relpath}:0",
            message=f"could not read source: {type(exc).__name__}: {exc}",
            data={"code": "RS000", "file": relpath, "line": 0, "col": 0,
                  "qualname": "<module>"},
        )
    try:
        tree = ast.parse(text, filename=path)
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        return None, Diagnostic(
            severity=ERROR,
            stage=STAGE,
            check="RS000.parse-error",
            subject=f"{relpath}:{getattr(exc, 'lineno', 0) or 0}",
            message=f"could not parse source: {type(exc).__name__}: {exc}",
            data={"code": "RS000", "file": relpath,
                  "line": getattr(exc, "lineno", 0) or 0, "col": 0,
                  "qualname": "<module>"},
        )
    module = SourceModule(
        path=os.path.abspath(path),
        relpath=relpath,
        text=text,
        tree=tree,
        package=package,
        noqa=_collect_noqa(text),
    )
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            module.parents[child] = parent
    return module, None


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise ReproError(f"no such file or directory: {path!r}")
    return found


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run_project(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run every enabled checker over ``paths``; the engine entry point.

    Findings suppressed by ``# noqa`` comments are dropped here; baseline
    suppression is the caller's concern (the CLI applies it so it can
    also report stale baseline entries).
    """
    enabled = resolve_codes(select, ignore)
    diagnostics: List[Diagnostic] = []
    for path in collect_files(paths):
        module, failure = load_source(path)
        if failure is not None:
            diagnostics.append(failure)
            continue
        for spec in all_checkers():
            if spec.code not in enabled or not spec.applies_to(module):
                continue
            findings = spec.run_file(module)
            diagnostics.extend(
                f for f in findings if not module.suppressed(f)
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Shared AST helpers used by several checkers
# ---------------------------------------------------------------------------


def iter_body_nodes(nodes: Iterable[ast.AST]):
    """Walk statements/expressions without descending into nested
    function/class/lambda scopes (their bodies run on *other* paths)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def receiver_text(node: ast.AST) -> str:
    """Best-effort dotted rendering of a call receiver (``self._journal``)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif isinstance(current, ast.Call):
        func = current.func
        if isinstance(func, ast.Name):
            parts.append(func.id + "()")
        elif isinstance(func, ast.Attribute):
            parts.append(func.attr + "()")
    return ".".join(reversed(parts))
