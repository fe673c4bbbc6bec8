"""``repro.obs`` — tracing, metrics, and perf-regression observability.

The measurement substrate for the whole verification pipeline:

* :mod:`repro.obs.tracer` — hierarchical span tracer (wall + CPU time,
  per-span counters, thread-safe) with an allocation-free
  :class:`~repro.obs.tracer.NullTracer` so instrumented hot paths cost
  nothing when tracing is off;
* :mod:`repro.obs.metrics` — metrics registry, JSON snapshots, and the
  tolerance-based snapshot comparator behind ``python -m repro perf``;
* :mod:`repro.obs.exporters` — span-tree text rendering, JSON and Chrome
  trace-event (Perfetto) trace exports, CSV metric rows;
* :mod:`repro.obs.cli` — the ``perf record``/``perf compare`` and
  ``trace`` subcommands.

Every pipeline layer (TLSim, the rewriting engine, the Positive-Equality
encoder, the Tseitin translation, the CDCL solver) records spans and
counters against the *ambient* tracer (:func:`current_tracer`), which is
the no-op :data:`NULL_TRACER` unless a caller installs a real one with
:func:`use_tracer` — :func:`repro.core.verify` does so for every run and
attaches the resulting span tree to its result, the one source of the
run's timings and counts.
"""

from .exporters import (
    metrics_to_csv,
    render_span_tree,
    trace_from_chrome,
    trace_from_json,
    trace_to_chrome,
    trace_to_json,
)
from .metrics import (
    ComparisonReport,
    DEFAULT_TOLERANCES,
    MetricDelta,
    MetricsRegistry,
    MetricsSnapshot,
    Tolerance,
    compare_snapshots,
    snapshot_from_result,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Tolerance",
    "MetricDelta",
    "ComparisonReport",
    "DEFAULT_TOLERANCES",
    "snapshot_from_result",
    "compare_snapshots",
    "render_span_tree",
    "trace_to_json",
    "trace_from_json",
    "trace_to_chrome",
    "trace_from_chrome",
    "metrics_to_csv",
]
