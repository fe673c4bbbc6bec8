"""Supervision and resource governance for the verification pipeline.

``repro.guard`` makes long-running verification cooperative and
killable: ambient :class:`Deadline` objects (a wall-clock budget checked
at every pipeline layer), :class:`MemoryBudget` (charged counters plus
sampling), and a per-config-family :class:`CircuitBreaker` for
campaigns.  See :mod:`repro.guard.deadline` for the check-site
discipline and :mod:`repro.campaign.parallel` for the worker heartbeat
protocol built on top of the deadline check sites.
"""

from .breaker import SHORT_CIRCUIT_PREFIX, CircuitBreaker
from .deadline import (
    NULL_DEADLINE,
    Deadline,
    NullDeadline,
    current_deadline,
    use_deadline,
)
from .memory import MemoryBudget

__all__ = [
    "CircuitBreaker",
    "SHORT_CIRCUIT_PREFIX",
    "Deadline",
    "NullDeadline",
    "NULL_DEADLINE",
    "MemoryBudget",
    "current_deadline",
    "use_deadline",
]
