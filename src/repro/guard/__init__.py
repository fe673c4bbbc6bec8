"""Supervision and resource governance for the verification pipeline.

``repro.guard`` makes long-running verification cooperative and
killable: ambient :class:`Deadline` objects (a wall-clock budget checked
at every pipeline layer) and :class:`MemoryBudget` (charged counters
plus sampling).  See :mod:`repro.guard.deadline` for the check-site
discipline and :mod:`repro.campaign.parallel` for the worker heartbeat
protocol built on top of the deadline check sites.
"""

from .deadline import (
    NULL_DEADLINE,
    Deadline,
    NullDeadline,
    current_deadline,
    use_deadline,
)
from .memory import MemoryBudget

__all__ = [
    "Deadline",
    "NullDeadline",
    "NULL_DEADLINE",
    "MemoryBudget",
    "current_deadline",
    "use_deadline",
]
