"""Verdict witnesses: DRUP proof certification and counterexample replay.

The subsystem that stops the repository from trusting its own solver:

* :mod:`repro.witness.drup` — DRUP proof format, writer/parser, and an
  *independent* reverse-unit-propagation checker (no code shared with
  :mod:`repro.sat.solver`) for UNSAT verdicts;
* :mod:`repro.witness.reconstruct` — lifts SAT models back through the
  encoding layers into concrete EUFM interpretations, replays them
  through the evaluator, and minimizes them;
* :mod:`repro.witness.certify` — builds the right :class:`Witness` for a
  finished run (``verify(certify=True)`` calls this);
* :mod:`repro.witness.cli` — ``python -m repro witness`` (certify /
  explain / check), exit-coded for CI.
"""

from .certify import certify_result
from .drup import DrupCheckResult, DrupProof, DrupStep, check_drup
from .reconstruct import (
    TermCounterexample,
    reconstruct_counterexample,
    replay_assignment,
)
from .types import WITNESS_KINDS, Witness

__all__ = [
    "WITNESS_KINDS",
    "Witness",
    "DrupStep",
    "DrupProof",
    "DrupCheckResult",
    "check_drup",
    "TermCounterexample",
    "reconstruct_counterexample",
    "replay_assignment",
    "certify_result",
]
