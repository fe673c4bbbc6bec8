"""Cooperative, ambient deadlines for the verification pipeline.

The paper's wide-issue configurations take hours of CPU, and the eij /
transitivity encodings can blow up exponentially in the worst case; a
service-shaped runtime therefore needs *every* pipeline layer — not just
the CDCL loop — to honor a budget.  A :class:`Deadline` carries a
wall-clock budget and an optional
:class:`~repro.guard.memory.MemoryBudget`, and is installed as ambient
state via a ContextVar exactly like the observability tracer
(:mod:`repro.obs.tracer`): instrumented layers call
:func:`current_deadline` and talk to whatever they get back.  When no
deadline is installed that is the shared :data:`NULL_DEADLINE`, whose
``check``/``tick``/``charge`` are allocation-free no-ops, so supervision
costs nothing in the default configuration.

Check discipline (mirrors how the layers are instrumented):

* ``check(stage)`` — unconditional; called at stage entry and at coarse
  loop heads (a simulation cycle, a rewrite entry, a witness-minimization
  variable).  Emits a heartbeat (rate-limited), applies any injected
  stage delay, then tests the wall and memory budgets and raises
  :class:`~repro.errors.BudgetExhausted` (or
  :class:`~repro.errors.MemoryBudgetExhausted`) naming the stage.
* ``tick(stage)`` — rate-limited; called once per DAG node inside the
  traversal hot loops.  Counts a node against the memory budget and runs
  a full ``check`` every :data:`TICK_EVERY` ticks.

Deadlines compose: :meth:`Deadline.derive` builds a child whose budgets
are capped by the parent's remaining allowance and which inherits the
parent's heartbeat sink, injected stage delays, and (by default) memory
budget — so a campaign worker's heartbeat-only supervisor keeps beating
from inside a ``verify()`` call that installed its own attempt budget.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Optional, Union

from ..errors import BudgetExhausted
from .memory import MemoryBudget

__all__ = [
    "Deadline",
    "NullDeadline",
    "NULL_DEADLINE",
    "TICK_EVERY",
    "current_deadline",
    "use_deadline",
]

#: How many :meth:`Deadline.tick` calls run one full :meth:`Deadline.check`.
TICK_EVERY = 256


class Deadline:
    """One supervision scope; see the module docstring."""

    __slots__ = (
        "max_wall_seconds",
        "memory",
        "heartbeat",
        "heartbeat_interval",
        "stage_delays",
        "checks",
        "heartbeats_sent",
        "_start_wall",
        "_next_beat",
        "_ticks",
        "_next_check_tick",
    )

    def __init__(
        self,
        max_wall_seconds: Optional[float] = None,
        memory: Optional[MemoryBudget] = None,
        *,
        heartbeat: Optional[Callable[[str], None]] = None,
        heartbeat_interval: float = 1.0,
        stage_delays: Optional[Dict[str, float]] = None,
    ) -> None:
        self.max_wall_seconds = max_wall_seconds
        self.memory = memory
        self.heartbeat = heartbeat
        self.heartbeat_interval = heartbeat_interval
        #: stage name (or ``"*"``) -> seconds each check of that stage
        #: sleeps; the ``slow`` fault's injection point.
        self.stage_delays: Dict[str, float] = dict(stage_delays or {})
        self.checks = 0
        self.heartbeats_sent = 0
        self._start_wall = time.monotonic()
        self._next_beat = self._start_wall  # first check beats immediately
        self._ticks = 0
        self._next_check_tick = TICK_EVERY

    # -- clocks ----------------------------------------------------------

    @property
    def bounded(self) -> bool:
        """True when a wall or memory budget is set."""
        return self.max_wall_seconds is not None or self.memory is not None

    def elapsed_wall(self) -> float:
        return time.monotonic() - self._start_wall

    def remaining_wall(self) -> Optional[float]:
        """Seconds of wall budget left; ``None`` when unbounded."""
        if self.max_wall_seconds is None:
            return None
        return max(0.0, self.max_wall_seconds - self.elapsed_wall())

    # -- the check sites -------------------------------------------------

    def check(self, stage: str) -> None:
        """Heartbeat, honor injected delays, and enforce every budget."""
        self.checks += 1
        if self.stage_delays:
            delay = self.stage_delays.get(stage) or self.stage_delays.get("*")
            if delay:
                time.sleep(delay)
        if self.heartbeat is not None:
            now = time.monotonic()
            if now >= self._next_beat:
                self._next_beat = now + self.heartbeat_interval
                self.heartbeats_sent += 1
                self.heartbeat(stage)
        if self.max_wall_seconds is not None:
            elapsed = self.elapsed_wall()
            if elapsed > self.max_wall_seconds:
                raise BudgetExhausted(
                    f"wall-clock deadline of {self.max_wall_seconds:.3f}s "
                    f"exceeded in stage {stage!r} "
                    f"({elapsed:.3f}s elapsed)",
                    seconds=elapsed,
                    budget_kind="wall",
                    stage=stage,
                )
        if self.memory is not None:
            self.memory.check(stage)

    def tick(self, stage: str) -> None:
        """Per-DAG-node site: charge a node, check every ``TICK_EVERY``."""
        self._ticks += 1
        if self.memory is not None:
            self.memory.charged_nodes += 1
        if self._ticks >= self._next_check_tick:
            self._next_check_tick = self._ticks + TICK_EVERY
            self.check(stage)

    def charge(self, nodes: int = 0, bytes_: int = 0) -> None:
        """Attribute known allocations to the memory budget (no check)."""
        if self.memory is not None:
            self.memory.charge(nodes=nodes, bytes_=bytes_)

    # -- composition -----------------------------------------------------

    def add_stage_delay(self, stage: str, seconds: float) -> None:
        """Sleep ``seconds`` at every future check of ``stage`` (``"*"``
        for all stages) — the ``slow`` fault's hook."""
        self.stage_delays[stage] = seconds

    def derive(
        self,
        max_wall_seconds: Optional[float] = None,
        memory: Optional[MemoryBudget] = None,
    ) -> "Deadline":
        """A child deadline with fresh clock anchors.

        The child's budgets are capped by this deadline's remaining
        allowance (a ``verify()`` attempt can never outlive its worker's
        supervisor), and the heartbeat sink, injected stage delays and —
        unless overridden — memory budget are inherited by reference.
        """
        return Deadline(
            max_wall_seconds=_cap(max_wall_seconds, self.remaining_wall()),
            memory=memory if memory is not None else self.memory,
            heartbeat=self.heartbeat,
            heartbeat_interval=self.heartbeat_interval,
            stage_delays=self.stage_delays,
        )

    def counters(self) -> Dict[str, float]:
        """Observability counters in the ``guard.*`` namespace."""
        counters = {
            "guard.checks": float(self.checks),
            "guard.ticks": float(self._ticks),
            "guard.heartbeats": float(self.heartbeats_sent),
        }
        if self.memory is not None:
            counters.update(self.memory.counters())
        return counters


def _cap(requested: Optional[float], ceiling: Optional[float]) -> Optional[float]:
    if ceiling is None:
        return requested
    if requested is None:
        return ceiling
    return min(requested, ceiling)


class NullDeadline:
    """Inert deadline; the ambient default when supervision is off.

    Every method is an allocation-free no-op, so the check sites cost one
    ContextVar read plus one no-op call when no budget is installed.
    """

    __slots__ = ()
    max_wall_seconds = None
    memory = None
    heartbeat = None
    bounded = False
    checks = 0
    heartbeats_sent = 0
    stage_delays: Dict[str, float] = {}

    def check(self, stage: str) -> None:
        pass

    def tick(self, stage: str) -> None:
        pass

    def charge(self, nodes: int = 0, bytes_: int = 0) -> None:
        pass

    def add_stage_delay(self, stage: str, seconds: float) -> None:
        # No supervision scope to attach the delay to; dropped by design
        # (the `slow` fault is a no-op outside a supervised run).
        pass

    def elapsed_wall(self) -> float:
        return 0.0

    def remaining_wall(self) -> Optional[float]:
        return None

    def derive(
        self,
        max_wall_seconds: Optional[float] = None,
        memory: Optional[MemoryBudget] = None,
    ) -> Deadline:
        return Deadline(max_wall_seconds=max_wall_seconds, memory=memory)

    def counters(self) -> Dict[str, float]:
        return {}


NULL_DEADLINE = NullDeadline()

#: What the ambient slot holds: a real scope or the inert default.
DeadlineLike = Union[Deadline, NullDeadline]

_ACTIVE: ContextVar[DeadlineLike] = ContextVar(
    "repro_guard_deadline", default=NULL_DEADLINE
)


def current_deadline() -> DeadlineLike:
    """The ambient deadline (a :class:`Deadline` or :data:`NULL_DEADLINE`)."""
    return _ACTIVE.get()


class use_deadline:
    """Context manager installing ``deadline`` as the ambient deadline.

    Entering also anchors the deadline's memory budget samplers
    (:meth:`MemoryBudget.start`/``stop``), reference-counted so a derived
    deadline sharing its parent's budget anchors it exactly once.
    """

    __slots__ = ("_deadline", "_token")

    def __init__(self, deadline: DeadlineLike) -> None:
        self._deadline = deadline

    def __enter__(self) -> DeadlineLike:
        memory = getattr(self._deadline, "memory", None)
        if memory is not None:
            memory.start()
        self._token = _ACTIVE.set(self._deadline)
        return self._deadline

    def __exit__(self, *exc_info: Any) -> bool:
        _ACTIVE.reset(self._token)
        memory = getattr(self._deadline, "memory", None)
        if memory is not None:
            memory.stop()
        return False
