"""Writers for span trees, one per ``python -m repro trace --format``.

* :func:`render_span_tree` — human-readable indented tree with wall/CPU
  durations and counters (the default);
* :func:`trace_to_json` — the whole tree (:meth:`Span.to_dict`) as JSON;
* :func:`trace_to_chrome` — the Chrome trace-event format (one complete
  ``"ph": "X"`` event per span), loadable in Perfetto /
  ``chrome://tracing``.  Each event also carries ``args.spanIndex``, its
  own position in the event list, and ``args.parentIndex``, its
  parent's (``-1`` for the root): links that name the exact tree even
  where zero-duration spans' intervals coincide.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .tracer import Span

__all__ = [
    "render_span_tree",
    "trace_to_json",
    "trace_to_chrome",
]


def render_span_tree(root: Span, counters: bool = True) -> str:
    """Indented text rendering of a span tree.

    ::

        verify                     wall 120.1ms  cpu 119.8ms
          simulate                 wall  13.2ms  cpu  13.1ms  [tlsim.cycles=12 ...]
          ...
    """
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        line = (
            f"{label:<32} wall {span.wall_seconds * 1000:9.2f}ms  "
            f"cpu {span.cpu_seconds * 1000:9.2f}ms"
        )
        if counters and span.counters:
            rendered = ", ".join(
                f"{name}={_format_value(value)}"
                for name, value in sorted(span.counters.items())
            )
            line += f"  [{rendered}]"
        lines.append(line)
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def trace_to_json(root: Span, indent: Optional[int] = 2) -> str:
    return json.dumps(root.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------


def trace_to_chrome(root: Span, pid: int = 1, tid: int = 1) -> Dict[str, Any]:
    """Chrome trace-event JSON object for one span tree.

    Timestamps/durations are microseconds relative to the root's start,
    which is what Perfetto expects of ``"ph": "X"`` complete events.
    """
    events: List[Dict[str, Any]] = []

    def emit(span: Span, parent_index: int) -> None:
        index = len(events)
        args: Dict[str, Any] = {
            "spanIndex": index,
            "parentIndex": parent_index,
        }
        if span.counters:
            args["counters"] = {
                name: value for name, value in sorted(span.counters.items())
            }
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start_offset - root.start_offset) * 1e6,
                "dur": span.wall_seconds * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": "repro",
                "args": args,
            }
        )
        for child in span.children:
            emit(child, index)

    emit(root, -1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
