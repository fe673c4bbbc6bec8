"""RS001 — exception-taxonomy discipline on verification paths.

PR 1 introduced the structured exception hierarchy of
:mod:`repro.errors` precisely so the campaign runner can distinguish
recoverable failures (a budget to escalate, a rewriting pass that did
not conform) from programming errors.  That contract only holds if the
verification-path packages never smuggle a broad builtin exception past
it: a ``raise RuntimeError`` inside the encoder is invisible to the
retry logic, and a bare ``except:`` swallows ``BudgetExhausted`` (and
``KeyboardInterrupt``) wholesale.

Checks, scoped to ``repro.{core,encode,sat,rewriting,decision,processor}``:

* ``bare-except`` — an ``except:`` clause with no exception type;
* ``blind-except`` — ``except BaseException:`` (swallows even
  ``KeyboardInterrupt``/``SystemExit``; catching ``Exception`` for
  containment is allowed);
* ``builtin-raise`` — raising one of the broad builtins the taxonomy
  replaces (``Exception``, ``RuntimeError``, ``TimeoutError``,
  ``MemoryError``...).  Narrow contract errors (``ValueError``,
  ``TypeError``, ``KeyError``, ``NotImplementedError``...) stay legal:
  they signal caller bugs, not verification outcomes.

A bare re-raise (``raise`` with no operand) is always allowed.
"""

from __future__ import annotations

import ast
from typing import List

from ..analysis.diagnostics import Diagnostic
from .engine import CheckerSpec, SourceModule, register_checker

__all__ = ["BANNED_RAISES", "check_taxonomy"]

#: builtins whose *raising* the taxonomy forbids on verification paths —
#: each has a structured replacement in :mod:`repro.errors`.
BANNED_RAISES = frozenset({
    "Exception": "ReproError",
    "BaseException": "ReproError",
    "RuntimeError": "ReproError (or SolverError / EncodingError)",
    "TimeoutError": "BudgetExhausted",
    "MemoryError": "MemoryBudgetExhausted",
    "SystemError": "ReproError",
    "OSError": "ReproError",
    "EnvironmentError": "ReproError",
}.items())

_BANNED = dict(BANNED_RAISES)


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    # builtins spelled via the module: ``builtins.RuntimeError``.
    if isinstance(exc, ast.Attribute) and isinstance(exc.value, ast.Name) \
            and exc.value.id == "builtins":
        return exc.attr
    return ""


def check_taxonomy(module: SourceModule) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                findings.append(module.finding(
                    "RS001", "bare-except", node,
                    "bare 'except:' on a verification path swallows "
                    "BudgetExhausted and KeyboardInterrupt; catch a class "
                    "from the repro.errors hierarchy",
                ))
            elif isinstance(node.type, ast.Name) and \
                    node.type.id == "BaseException":
                findings.append(module.finding(
                    "RS001", "blind-except", node,
                    "'except BaseException:' swallows interpreter exits; "
                    "catch Exception or a repro.errors class",
                ))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            name = _raised_name(node)
            replacement = _BANNED.get(name)
            if replacement is not None:
                findings.append(module.finding(
                    "RS001", "builtin-raise", node,
                    f"raising builtin {name} bypasses the repro.errors "
                    f"taxonomy; raise {replacement} instead",
                    exception=name,
                ))
    return findings


register_checker(CheckerSpec(
    code="RS001",
    name="exception-taxonomy",
    description=(
        "verification-path packages raise repro.errors classes, never "
        "broad builtins, and never use bare except clauses"
    ),
    scope=frozenset({"core", "encode", "sat", "rewriting", "decision",
                     "processor"}),
    run_file=check_taxonomy,
))
