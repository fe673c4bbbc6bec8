"""The paper's contribution: rewriting rules over update sequences.

Given the simulated Burch–Dill diagram, the engine proves that every
instruction initially in the reorder buffer produces equal Register-File
updates on both sides, removes those updates, and rebuilds a correctness
formula whose size is independent of the reorder-buffer size.
"""

from .engine import RewriteFailure, RewriteResult, rewrite_diagram
from .rules import (
    RuleViolation,
    conjuncts,
    contexts_disjoint,
    merge_contexts,
    prove_forwarding_matches_read,
    split_on_guard,
)
from .updates import ChainItem, UpdateChain, decompose_chain
from .version import registry_fingerprint, registry_version

__all__ = [
    "registry_fingerprint",
    "registry_version",
    "RewriteFailure",
    "RewriteResult",
    "rewrite_diagram",
    "RuleViolation",
    "conjuncts",
    "contexts_disjoint",
    "merge_contexts",
    "prove_forwarding_matches_read",
    "split_on_guard",
    "ChainItem",
    "UpdateChain",
    "decompose_chain",
]
