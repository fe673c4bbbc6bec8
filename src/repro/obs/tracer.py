"""Hierarchical span tracer for the verification pipeline.

A :class:`Span` is one timed region of the pipeline — "simulate",
"translate", "sat" — with wall-clock and CPU duration plus a free-form
counter dictionary ("tlsim.cycles", "sat.conflicts", ...).  Spans nest:
the encoding stages are children of "translate", which is a child of the
"verify" root, mirroring where the time actually goes (the per-stage cost
profiles of the paper's Tables 1–5).

A :class:`Tracer` owns a tree of spans.  It is thread-safe: the *open*
span stack is thread-local (a span opened on a worker thread becomes a
root of that thread's sub-tree rather than corrupting another thread's
nesting), while the finished tree is guarded by a lock.

The instrumented hot paths never check "is tracing enabled?" — they call
:func:`current_tracer` and talk to whatever they get back.  When tracing
is off that is the shared :data:`NULL_TRACER`, whose ``span``/``add``/
``set`` are allocation-free no-ops, so instrumentation costs nothing in
the default configuration.

Usage::

    tracer = Tracer()
    with use_tracer(tracer):          # make it the ambient tracer
        with tracer.span("verify"):
            ...                        # instrumented layers record here
    print(tracer.root.wall_seconds)
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


class Span:
    """One timed, counted region; a node in the trace tree."""

    __slots__ = (
        "name",
        "start_offset",
        "wall_seconds",
        "cpu_seconds",
        "counters",
        "children",
    )

    def __init__(self, name: str, start_offset: float = 0.0) -> None:
        self.name = name
        #: seconds since the owning tracer's epoch at which the span opened.
        self.start_offset = start_offset
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []

    # -- counters --------------------------------------------------------

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto ``counter`` (creating it at 0)."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def set(self, counter: str, value: float) -> None:
        """Overwrite ``counter`` with ``value`` (a gauge)."""
        self.counters[counter] = value

    # -- tree queries ----------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        stack: List[Span] = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in pre-order, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def total(self, counter: str) -> float:
        """Sum of ``counter`` over this span and all descendants."""
        return sum(span.counters.get(counter, 0.0) for span in self.walk())

    def all_counters(self) -> Dict[str, float]:
        """Every counter in the subtree, summed by name."""
        totals: Dict[str, float] = {}
        for span in self.walk():
            for counter, value in span.counters.items():
                totals[counter] = totals.get(counter, 0.0) + value
        return totals

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_offset": self.start_offset,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_seconds:.6f}s, "
            f"{len(self.counters)} counters, {len(self.children)} children)"
        )


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span", "_start_wall", "_start_cpu")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._start_wall = time.perf_counter()
        self._start_cpu = time.thread_time()
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        self._span.wall_seconds = time.perf_counter() - self._start_wall
        self._span.cpu_seconds = time.thread_time() - self._start_cpu
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects a tree of spans; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        #: finished and in-progress top-level spans, in open order.
        self.roots: List[Span] = []

    # -- span stack (thread-local) ---------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- public API ------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        """Open a child span of the current span (context manager)."""
        offset = time.perf_counter() - self._epoch
        return _SpanContext(self, Span(name, offset))

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate onto the current span; dropped when none is open."""
        span = self.current()
        if span is not None:
            span.add(counter, value)

    def set(self, counter: str, value: float) -> None:
        """Overwrite a gauge on the current span; dropped when none open."""
        span = self.current()
        if span is not None:
            span.set(counter, value)

    @property
    def root(self) -> Optional[Span]:
        """The first top-level span, or ``None`` before any span opened."""
        return self.roots[0] if self.roots else None


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`; records nothing."""

    __slots__ = ()
    name = "<null>"
    start_offset = 0.0
    wall_seconds = 0.0
    cpu_seconds = 0.0
    counters: Dict[str, float] = {}
    children: List[Span] = []

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def set(self, counter: str, value: float) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Do-nothing tracer; the ambient default when tracing is off.

    Every method returns shared immutable singletons, so instrumented
    code pays one attribute lookup and no allocation per event.
    """

    __slots__ = ()
    roots: List[Span] = []
    root = None

    def span(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current(self) -> None:
        return None

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def set(self, counter: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()

_ACTIVE: ContextVar[object] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current_tracer():
    """The ambient tracer (a :class:`Tracer` or :data:`NULL_TRACER`)."""
    return _ACTIVE.get()


class use_tracer:
    """Context manager installing ``tracer`` as the ambient tracer."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def __enter__(self):
        self._token = _ACTIVE.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: Any) -> bool:
        _ACTIVE.reset(self._token)
        return False
