"""RS003 — single-writer campaign journal.

The crash-resume story of :mod:`repro.campaign` rests on one invariant:
the journal has exactly one writer — the campaign runner, in the parent
process.  Workers and the pool that runs them only report how each
attempt ended; the runner journals it.  If any other module gains a
direct mutation path, concurrent appends can interleave torn lines and
resume silently replays a corrupted history.

The checker flags, anywhere outside the allow-listed writer modules:

* calls to a mutation method (``append``, ``corrupt_tail``, ``close``)
  on a receiver whose dotted path mentions ``journal``;
* instantiation of the ``Journal`` class itself (opening the file in
  append mode *is* acquiring writership).

Allow-listed writers: ``campaign/journal.py`` (the implementation),
``campaign/runner.py`` (the single writer), ``campaign/faults.py`` (the
``journal-corrupt`` fault seam, which fires only in-process, where
``fault_journal`` is non-None).  ``campaign/parallel.py``, the worker
pool, is not a writer.  Within a writer module, worker entry points
(functions whose name starts with ``_worker``) remain forbidden: they
run in child processes.
"""

from __future__ import annotations

import ast
from typing import List

from ..analysis.diagnostics import Diagnostic
from .engine import CheckerSpec, SourceModule, receiver_text, register_checker

__all__ = ["check_single_writer"]

_MUTATION_ATTRS = frozenset({"append", "corrupt_tail", "close"})

#: repo-relative suffixes of the modules allowed to mutate the journal.
WRITER_MODULES = (
    "repro/campaign/journal.py",
    "repro/campaign/runner.py",
    "repro/campaign/faults.py",
)


def _in_worker_scope(module: SourceModule, node: ast.AST) -> bool:
    qualname = module.qualname(node)
    return any(part.startswith("_worker") or part.startswith("worker_")
               for part in qualname.split("."))


def check_single_writer(module: SourceModule) -> List[Diagnostic]:
    module_allowed = module.relpath.endswith(WRITER_MODULES)
    findings: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATION_ATTRS:
            receiver = receiver_text(func.value)
            if "journal" not in receiver.lower():
                continue
            allowed = module_allowed and not _in_worker_scope(module, node)
            if allowed:
                continue
            where = ("a worker scope of a writer module"
                     if module_allowed else "a non-writer module")
            findings.append(module.finding(
                "RS003", "journal-mutation", node,
                f"journal mutation {receiver}.{func.attr}() from {where}; "
                "only the runner/parent may write — emit the record over "
                "the result queue instead",
                receiver=receiver,
                method=func.attr,
            ))
        elif isinstance(func, ast.Name) and func.id == "Journal":
            if module_allowed and not _in_worker_scope(module, node):
                continue
            findings.append(module.finding(
                "RS003", "journal-open", node,
                "constructing Journal(...) acquires writership of the "
                "journal file; only the runner/parent modules may open it "
                "— read with JournalReplay / load helpers instead",
            ))
    return findings


register_checker(CheckerSpec(
    code="RS003",
    name="single-writer-journal",
    description=(
        "journal mutation APIs are called only from the runner/parent "
        "modules; workers and executors are read-only"
    ),
    scope=None,
    run_file=check_single_writer,
))
