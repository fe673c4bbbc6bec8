"""Top-level verification driver — the library's primary entry point.

``verify(config)`` reproduces the paper's tool flow end to end:

* ``method="rewriting"`` (the paper's contribution): symbolically simulate
  the Burch–Dill diagram with TLSim, apply the rewriting rules to prove
  and remove the updates of the instructions initially in the ROB, then
  decide the reduced correctness formula (which depends only on the newly
  fetched instructions) by Positive Equality with the conservative memory
  abstraction and the CDCL SAT solver.  For branch workload families the
  engine declines to reduce (see :mod:`repro.rewriting.engine`) and the
  full formula is decided with the precise memory model instead.

* ``method="positive_equality"``: skip the rewriting rules and translate
  the full correctness formula — the Sect. 7.1 baseline, whose cost grows
  dramatically with the reorder-buffer size (Table 2).

Every run is recorded on a :class:`~repro.obs.tracer.Tracer`: the pipeline
layers open "simulate"/"rewrite"/"translate"/"sat" spans under the "verify"
root and attach their work counters.  The span tree, attached to every
result as ``result.trace``, is the one source of the run's numbers:
``result.timings`` is a *derived view* of it (one entry per phase plus
``total``), and so are the timings of a :class:`BudgetExhausted` raised
mid-run.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Dict, Optional, Tuple

from ..encode.evc import check_validity
from ..errors import BudgetExhausted
from ..eufm.ast import Formula, run_scope
from ..guard.deadline import current_deadline, use_deadline
from ..guard.memory import MemoryBudget
from ..obs.tracer import Span, Tracer, use_tracer
from ..processor.bugs import Bug
from ..processor.correctness import build_correctness_formula, run_diagram
from ..processor.params import ProcessorConfig
from ..rewriting.engine import RewriteResult, rewrite_diagram
from .results import VerificationResult

__all__ = ["verify", "budget_problem", "build_formula", "METHODS"]

METHODS = ("rewriting", "positive_equality")


def budget_problem(name: str, value: float) -> Optional[str]:
    """Why ``value`` is no legal budget called ``name``, or None.

    Zero conflicts or wall seconds is legal, an immediate exhaustion; a
    memory budget (a ``name`` ending in ``memory_mb``) must be positive,
    since no run fits in zero bytes.  NaN and infinity are refused: an
    unbounded budget is one left unset.  The campaign and the service
    check their budgets with this too, so a budget they admit is one
    :func:`verify` accepts.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "must be a finite number"
    if value < 0:
        return "must not be negative"
    if value == 0 and name.endswith("memory_mb"):
        return "must be positive"
    return None


def _derive_timings(root: Span) -> Dict[str, float]:
    """Phase-timings view of a closed "verify" span tree.

    One entry per top-level phase span (wall-clock seconds) plus
    ``total``, taken from the root — a single source of truth, so the
    sum of the phases can never exceed what ``total`` reports.
    """
    timings = {child.name: child.wall_seconds for child in root.children}
    timings["total"] = root.wall_seconds
    return timings


def _enrich_budget_error(exc: BudgetExhausted, root: Span) -> None:
    """Fold the phases completed before the abort into the exception.

    Called after the "verify" span closed (the exception already
    propagated through it), so every phase duration is final.  A
    stage-less exception is the SAT solver's own budget; its ``seconds``
    are the "sat" span's.
    """
    exc.timings.update(_derive_timings(root))
    if exc.stage is None:
        exc.seconds = exc.timings.get("sat")


def build_formula(
    config: ProcessorConfig, method: str, bug: Optional[Bug], criterion: str
) -> Tuple[Optional[RewriteResult], Optional[Formula], str]:
    """The rewrite result (None under ``positive_equality``), the formula
    ``method`` decides and its memory mode; a failed rewrite leaves no
    formula.  ``repro lint`` audits this same formula."""
    artifacts = run_diagram(config, bug=bug)
    if method == "rewriting":
        rewrite = rewrite_diagram(artifacts, criterion=criterion)
        return rewrite, rewrite.reduced_formula, rewrite.memory_mode
    formula = build_correctness_formula(artifacts, criterion=criterion)
    return None, formula, "precise"


def _run_traced(
    config: ProcessorConfig,
    method: str,
    bug: Optional[Bug],
    criterion: str,
    max_conflicts: Optional[int],
    certify: bool = False,
) -> VerificationResult:
    """The pipeline proper, run under an open "verify" span."""
    rewrite, formula, memory_mode = build_formula(
        config, method, bug, criterion
    )
    if formula is None:
        failure = rewrite.failure
        return VerificationResult(
            config=config,
            method=method,
            bug=bug,
            correct=False,
            suspected_entry=failure.entry,
            failure_detail=f"{failure.stage}: {failure.detail}",
            rewrite=rewrite,
        )
    validity = check_validity(
        formula,
        memory_mode=memory_mode,
        max_conflicts=max_conflicts,
        log_proof=certify,
    )
    return VerificationResult(
        config=config,
        method=method,
        bug=bug,
        correct=validity.valid,
        rewrite=rewrite,
        validity=validity,
        counterexample=validity.counterexample,
    )


def verify(
    config: ProcessorConfig,
    method: str = "rewriting",
    bug: Optional[Bug] = None,
    criterion: str = "disjunction",
    max_conflicts: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
    trace: bool = False,
    certify: bool = False,
) -> VerificationResult:
    """Formally verify one out-of-order processor configuration.

    Args:
        config: reorder-buffer size and issue/retire width.
        method: ``"rewriting"`` or ``"positive_equality"``.
        bug: optional planted defect (see :mod:`repro.processor.bugs`).
        criterion: ``"disjunction"`` (the paper's formula) or
            ``"case_split"`` (the stronger fetch-count criterion).
        max_conflicts: SAT conflict budget; raises
            :class:`repro.errors.BudgetExhausted` (a :class:`TimeoutError`
            subclass) when exhausted — this plays the role of the paper's
            4 GB memory limit in the scaling experiments.  The exception's
            ``timings`` dict still carries the phase timings accumulated
            before the abort, and its ``seconds`` the "sat" span's.
        max_wall_seconds: the run's wall-clock deadline, enforced
            cooperatively at every stage (tlsim, rewriting, each encoding
            stage, the SAT loop, witness reconstruction) via an ambient
            :class:`repro.guard.Deadline`; raises
            :class:`repro.errors.BudgetExhausted` whose ``stage`` names
            the layer that hit the limit.  Zero is legal (an immediate
            exhaustion); a negative budget of either kind is a
            ``ValueError``.
        max_memory_mb: memory budget for the run (charged DAG-node and
            learned-clause counters plus sampling; see
            :class:`repro.guard.MemoryBudget`); raises
            :class:`repro.errors.MemoryBudgetExhausted`.  It must be
            positive: zero or less is a ``ValueError``.
            When a deadline is already ambient (e.g. inside a campaign
            worker), the new budgets are capped by its remaining
            allowance and its heartbeat sink is inherited.
        trace: ignored.  Every run attaches its span tree (a
            :class:`~repro.obs.tracer.Span` with the per-layer work
            counters) to ``result.trace``; render it with
            :func:`repro.obs.render_span_tree`.
        certify: log a DRUP clause proof in the SAT solver and attach an
            independently checked :class:`~repro.witness.types.Witness`
            to ``result.witness``: the proof is re-checked by the
            reverse-unit-propagation checker of :mod:`repro.witness.drup`
            for UNSAT verdicts, and SAT models are lifted to concrete
            EUFM interpretations, replayed through the evaluator and
            minimized.  Off by default (the solver's hot path then logs
            nothing).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {METHODS}")
    for name, budget in (
        ("max_conflicts", max_conflicts),
        ("max_wall_seconds", max_wall_seconds),
        ("max_memory_mb", max_memory_mb),
    ):
        problem = budget is not None and budget_problem(name, budget)
        if problem:
            raise ValueError(f"{name} {problem}, got {budget!r}")
    # The run owns the intern table; its budgets start once it has it.
    with run_scope():
        guard_deadline = None
        guard_scope = nullcontext()
        if max_wall_seconds is not None or max_memory_mb is not None:
            memory = None
            if max_memory_mb is not None:
                memory = MemoryBudget.from_mb(max_memory_mb)
            guard_deadline = current_deadline().derive(
                max_wall_seconds=max_wall_seconds, memory=memory,
            )
            guard_scope = use_deadline(guard_deadline)
        tracer = Tracer()
        try:
            with guard_scope, use_tracer(tracer):
                with tracer.span("verify"):
                    result = _run_traced(
                        config, method, bug, criterion, max_conflicts, certify,
                    )
                    if certify:
                        from ..witness.certify import certify_result

                        with tracer.span("witness"):
                            result.witness = certify_result(result)
        except BudgetExhausted as exc:
            _enrich_budget_error(exc, tracer.root)
            raise

    root = tracer.root
    # Publish the supervision counters (guard.*) onto the root span —
    # from this run's derived deadline when budgets were given here, else
    # from the ambient one a campaign executor installed around us.
    # NULL_DEADLINE reports no counters, so unsupervised runs are clean.
    active = guard_deadline if guard_deadline is not None else current_deadline()
    for counter, value in active.counters().items():
        root.add(counter, value)
    result.timings = _derive_timings(root)
    result.trace = root
    return result
