"""Self-hosting static invariant checker for the verification pipeline.

The paper's method survives only under discipline: rewriting rules must
stay inside the positive-equality fragment, and every reduction must
preserve soundness.  The codebase has grown analogous *code-level*
disciplines — a structured exception taxonomy, Deadline poll sites in
every pipeline loop, a single-writer campaign journal, picklable worker
payloads, context-managed ambient state — but until now nothing checked
them mechanically.  :mod:`repro.staticcheck` is that checker: an AST +
dataflow lint engine with a pluggable registry of invariant checkers,
run as ``python -m repro staticcheck`` and self-hosted over
``src/repro`` in CI against a committed baseline.

Shipped checkers:

* **RS001 exception-taxonomy** — no bare ``except:`` and no raising of
  broad builtin exceptions inside the verification-path packages; use
  the :mod:`repro.errors` hierarchy.
* **RS002 deadline-poll coverage** — every ``while`` loop (and
  unbounded ``for``) in a pipeline module must poll the ambient
  :class:`~repro.guard.deadline.Deadline` (``check``/``tick``) on some
  path through its body.
* **RS003 single-writer journal** — journal mutation APIs are only
  called from the runner/parent modules; workers and executors are
  read-only.
* **RS004 worker-payload picklability** — objects handed to the
  multiprocessing fan-out must be statically picklable: no lambdas,
  no closures, no locally-defined classes.
* **RS005 span/ContextVar hygiene** — ambient ContextVars (tracer,
  deadline) are only entered via context managers; a manual ``.set()``
  must keep its token and be paired with ``.reset()``.
* **RS006 unused-import** — every module-level import is read somewhere
  in its module; ``__future__`` imports, names in ``__all__`` and
  ``__init__.py`` files are exempt.

Every checker reads source files.  The rewrite-rule registry's
soundness, confluence and termination are checked by ``repro lint``
(:mod:`repro.analysis.rules`).

Findings are ordinary :class:`repro.analysis.diagnostics.Diagnostic`
records, so ``repro staticcheck`` and ``repro lint`` share one JSON
report schema and one exit-code contract.
"""

from __future__ import annotations

from .baseline import Baseline, apply_baseline, fingerprint
from .engine import (
    CheckerSpec,
    SourceModule,
    all_checkers,
    checker_codes,
    load_source,
    register_checker,
    run_project,
)

# Importing the checker modules registers them.
from . import (  # noqa: F401  (registration side effect)
    rs001_taxonomy,
    rs002_deadline,
    rs003_journal,
    rs004_pickle,
    rs005_contextvar,
    rs006_imports,
)

__all__ = [
    "Baseline",
    "CheckerSpec",
    "SourceModule",
    "all_checkers",
    "apply_baseline",
    "checker_codes",
    "fingerprint",
    "load_source",
    "register_checker",
    "run_project",
]
