"""Cooperative memory budgets for the verification pipeline.

A :class:`MemoryBudget` bounds the memory a run may attribute to itself.
It never inspects the allocator directly on the hot path; instead it
combines three evidence sources, cheapest first:

* **charged counters** — the pipeline layers charge work they know the
  size of: DAG-node ticks at the traversal choke points (via
  :meth:`repro.guard.deadline.Deadline.tick`) and learned-clause bytes in
  the SAT solver.  Integer arithmetic only, always on.
* **tracemalloc sampling** — when :mod:`tracemalloc` is already tracing
  (the budget never starts it: tracing slows the pipeline 2-4×), every
  :data:`SAMPLE_EVERY`-th check samples the traced delta since
  :meth:`start`.
* **RSS high-water mark** — every :data:`SAMPLE_EVERY`-th check also samples
  ``resource.getrusage(...).ru_maxrss`` growth since :meth:`start`, which
  catches allocations Python-level accounting cannot see.

The reported usage is the maximum of the sources, so an injected
``memory_bloat`` fault (which charges explicitly) trips the budget
deterministically even where the samplers are unavailable.

Exhaustion raises :class:`~repro.errors.MemoryBudgetExhausted`, which the
campaign runner treats exactly like a conflict-budget blow-up: journal
the failed attempt and retry with an escalated budget — the campaign
analogue of the paper's 4 GB memory-limit kills (Sect. 7.1).
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Dict

from ..errors import MemoryBudgetExhausted

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = ["MemoryBudget"]

#: Rough per-DAG-node footprint (hash-consed node + intern-table entry).
NODE_BYTES = 88

#: Checks between two samples of the slow sources (tracemalloc, RSS).
SAMPLE_EVERY = 64

#: ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


class MemoryBudget:
    """A byte budget checked cooperatively at the pipeline choke points."""

    __slots__ = (
        "max_bytes",
        "charged_bytes",
        "charged_nodes",
        "peak_bytes",
        "_checks",
        "_trace_baseline",
        "_rss_baseline",
        "_active_depth",
    )

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.charged_bytes = 0
        self.charged_nodes = 0
        self.peak_bytes = 0
        self._checks = 0
        self._trace_baseline = 0
        self._rss_baseline = 0
        self._active_depth = 0

    @classmethod
    def from_mb(cls, megabytes: float) -> "MemoryBudget":
        """A budget of ``megabytes`` MiB; a positive budget below one
        byte rounds up to one byte instead of raising."""
        max_bytes = int(megabytes * 1024 * 1024)
        return cls(max(1, max_bytes) if megabytes > 0 else max_bytes)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Anchor the samplers; nested starts are reference-counted so a
        budget shared between a parent and a derived deadline anchors
        exactly once."""
        self._active_depth += 1
        if self._active_depth > 1:
            return
        if tracemalloc.is_tracing():
            self._trace_baseline = tracemalloc.get_traced_memory()[0]
        self._rss_baseline = _rss_bytes()

    def stop(self) -> None:
        if self._active_depth > 0:
            self._active_depth -= 1

    # -- accounting ------------------------------------------------------

    def charge(self, nodes: int = 0, bytes_: int = 0) -> None:
        """Attribute known work to the budget (no check; cheap)."""
        if nodes:
            self.charged_nodes += nodes
        if bytes_:
            self.charged_bytes += bytes_

    def usage_bytes(self, sample: bool = True) -> int:
        """Current attributed usage; with ``sample`` the slow sources too."""
        usage = self.charged_bytes + self.charged_nodes * NODE_BYTES
        if sample:
            if tracemalloc.is_tracing():
                traced = tracemalloc.get_traced_memory()[0]
                usage = max(usage, traced - self._trace_baseline)
            rss = _rss_bytes()
            if rss and self._rss_baseline:
                usage = max(usage, rss - self._rss_baseline)
        if usage > self.peak_bytes:
            self.peak_bytes = usage
        return usage

    def check(self, stage: str) -> None:
        """Raise :class:`MemoryBudgetExhausted` when over budget.

        The charged counters are compared on every call; the samplers run
        on every :data:`SAMPLE_EVERY`-th call only.
        """
        self._checks += 1
        sample = self._checks % SAMPLE_EVERY == 0
        usage = self.usage_bytes(sample=sample)
        if usage > self.max_bytes:
            raise MemoryBudgetExhausted(
                f"memory budget of {self.max_bytes} bytes exceeded in stage "
                f"{stage!r} ({usage} bytes attributed: "
                f"{self.charged_nodes} DAG nodes, "
                f"{self.charged_bytes} charged bytes)",
                bytes_used=usage,
                max_bytes=self.max_bytes,
                stage=stage,
            )

    def counters(self) -> Dict[str, float]:
        """Observability counters in the ``guard.*`` namespace."""
        return {
            "guard.memory_checks": float(self._checks),
            "guard.memory_peak_bytes": float(self.peak_bytes),
            "guard.memory_charged_nodes": float(self.charged_nodes),
            "guard.memory_charged_bytes": float(self.charged_bytes),
        }


def _rss_bytes() -> int:
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_UNIT
