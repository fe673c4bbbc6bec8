"""Exporters for trace trees and metric snapshots.

Four output formats:

* :func:`render_span_tree` — human-readable indented tree with wall/CPU
  durations and counters (the ``python -m repro trace`` default);
* :func:`trace_to_json` / :func:`trace_from_json` — lossless span-tree
  serialization;
* :func:`trace_to_chrome` / :func:`trace_from_chrome` — the Chrome
  trace-event format (one complete ``"ph": "X"`` event per span),
  loadable in Perfetto / ``chrome://tracing``.  Each event additionally
  carries ``args.spanIndex``/``args.parentIndex`` so the exact tree shape
  round-trips even for zero-duration spans whose intervals coincide;
* :func:`metrics_to_csv` — one ``metric,value`` row per metric of a
  :class:`~repro.obs.metrics.MetricsSnapshot`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import MetricsSnapshot
from .tracer import Span

__all__ = [
    "render_span_tree",
    "trace_to_json",
    "trace_from_json",
    "trace_to_chrome",
    "trace_from_chrome",
    "metrics_to_csv",
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


def trace_from_json(payload: str) -> Span:
    return Span.from_dict(json.loads(payload))


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


def trace_from_chrome(payload: Dict[str, Any]) -> List[Span]:
    """Rebuild span trees from a Chrome trace produced by
    :func:`trace_to_chrome`, through the ``spanIndex``/``parentIndex``
    links it embeds; a trace without them raises :class:`ValueError`.
    """
    events = [
        ev for ev in payload.get("traceEvents", []) if ev.get("ph") == "X"
    ]
    by_index: Dict[int, Span] = {}
    parents: Dict[int, int] = {}
    for event in events:
        args = event.get("args")
        if not isinstance(args, dict) or "spanIndex" not in args:
            raise ValueError(
                f"trace event {event.get('name')!r} has no spanIndex; "
                "only traces written by trace_to_chrome can be read"
            )
        index = int(args["spanIndex"])
        by_index[index] = _span_of_event(event)
        parents[index] = int(args.get("parentIndex", -1))
    roots: List[Span] = []
    for index in sorted(by_index):
        parent = parents[index]
        if parent in by_index:
            by_index[parent].children.append(by_index[index])
        else:
            roots.append(by_index[index])
    return roots


def _span_of_event(event: Dict[str, Any]) -> Span:
    span = Span(
        str(event.get("name", "")),
        float(event.get("ts", 0.0)) / 1e6,
    )
    span.wall_seconds = float(event.get("dur", 0.0)) / 1e6
    args = event.get("args") or {}
    for name, value in (args.get("counters") or {}).items():
        span.counters[str(name)] = float(value)
    return span


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------


def metrics_to_csv(snapshot: MetricsSnapshot) -> str:
    """``metric,value`` rows, sorted by metric name, with a header."""
    lines = ["metric,value"]
    for name in sorted(snapshot.metrics):
        lines.append(f"{name},{snapshot.metrics[name]:g}")
    return "\n".join(lines) + "\n"
