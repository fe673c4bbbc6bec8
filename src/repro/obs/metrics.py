"""Metrics registry, snapshots, and the perf-regression comparator.

A :class:`MetricsRegistry` is a thread-safe flat store of counters keyed
by stage-qualified names (``"sat.conflicts"``,
``"encode.eij_primary"``).  A :class:`MetricsSnapshot` is a frozen,
JSON-serializable set of metric values: campaigns journal one per job, and a perf
*record* (:func:`save_record`, :func:`load_record`) is a list of them,
one row per run — ``python -m repro perf record`` writes one row, ``perf
grid`` a fixed grid of rows, and ``perf compare`` turns two records into
a regression verdict.

:func:`snapshot_from_result` flattens the span tree a
:class:`~repro.core.results.VerificationResult` carries — the one source
of a run's numbers — into one snapshot: per-phase wall (``timings.*``)
and CPU (``cpu.*``) seconds from the top-level spans, and every span
counter once, under its own name.

:func:`compare_snapshots` checks a current snapshot against a baseline
under per-metric tolerances.  Tolerances are matched by ``fnmatch``
pattern, first match wins; counts default to exact.  Only *increases*
fail the gate — getting faster or smaller is never a regression.

Timing metrics are split by clock.  CPU-time metrics (``cpu.*``,
``*cpu_seconds*``) gate with a generous relative slack: CPU time is what
the work actually costs and barely moves when a CI runner is loaded or
the campaign runs with ``--workers N``.  Wall-clock metrics
(``timings.*`` and other ``*seconds*``) are **advisory-only** by default:
an exceedance is reported in the comparison table but never fails the
gate, because wall clocks regress spuriously on loaded runners and under
process parallelism.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "Tolerance",
    "MetricDelta",
    "ComparisonReport",
    "DEFAULT_TOLERANCES",
    "OUTCOME_FIELDS",
    "snapshot_from_result",
    "compare_snapshots",
    "save_record",
    "load_record",
]


class MetricsRegistry:
    """Thread-safe counters keyed by stage-qualified name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto the counter ``name``."""
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + value

    def merge(self, metrics: Mapping[str, float]) -> None:
        """Accumulate a whole mapping (e.g. a span's counters)."""
        with self._lock:
            for name, value in metrics.items():
                self._values[name] = self._values.get(name, 0.0) + value

    def values(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)


@dataclass
class MetricsSnapshot:
    """A frozen set of metric values plus free-form metadata."""

    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"meta": dict(self.meta), "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, data: Any) -> "MetricsSnapshot":
        """The snapshot :meth:`to_dict` wrote; ``ValueError`` naming the
        problem when ``data`` has another shape."""
        if not isinstance(data, dict):
            raise ValueError("a metrics snapshot must be a JSON object")
        metrics = data.get("metrics", {})
        meta = data.get("meta", {})
        for name, value in (("metrics", metrics), ("meta", meta)):
            if not isinstance(value, dict):
                raise ValueError(f"snapshot {name!r} must be a JSON object")
        for name, value in metrics.items():
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                # A NaN would pass every comparison: ``x > nan`` is false.
                raise ValueError(
                    f"snapshot metric {name!r} must be a finite number, "
                    f"got {value!r}"
                )
        return cls(
            metrics={name: float(value) for name, value in metrics.items()},
            meta=dict(meta),
        )


def save_record(path, rows: Sequence[MetricsSnapshot]) -> None:
    """Write a perf record, ``{"rows": [snapshot, ...]}``, as
    pretty-printed, sorted JSON."""
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"rows": [row.to_dict() for row in rows]},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")


def load_record(path) -> List[MetricsSnapshot]:
    """The rows of the perf record :func:`save_record` wrote;
    ``ValueError`` naming the problem when the file has another shape."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(
            f"{os.fspath(path)}: a perf record must be a JSON object "
            'whose "rows" is a list of snapshots'
        )
    return [MetricsSnapshot.from_dict(row) for row in data["rows"]]


def snapshot_from_result(result, meta: Optional[Dict[str, Any]] = None) -> MetricsSnapshot:
    """Flatten a verification result's span tree into one
    :class:`MetricsSnapshot`.

    ``timings.<phase>``/``cpu.<phase>`` are the wall/CPU seconds of each
    top-level span (``total`` is the root's); every span counter appears
    once, under its own name, summed over the tree.  Works on any object
    shaped like :class:`~repro.core.results.VerificationResult`; a
    result without a ``trace`` contributes no metrics.
    """
    metrics: Dict[str, float] = {}
    trace = getattr(result, "trace", None)
    if trace is not None:
        metrics["timings.total"] = float(trace.wall_seconds)
        metrics["cpu.total"] = float(trace.cpu_seconds)
        for child in trace.children:
            metrics[f"timings.{child.name}"] = float(child.wall_seconds)
            metrics[f"cpu.{child.name}"] = float(child.cpu_seconds)
        for counter, value in trace.all_counters().items():
            metrics[counter] = float(value)

    snapshot_meta: Dict[str, Any] = {}
    config = getattr(result, "config", None)
    if config is not None:
        snapshot_meta["config"] = getattr(config, "describe", lambda: str(config))()
    method = getattr(result, "method", None)
    if method is not None:
        snapshot_meta["method"] = method
    correct = getattr(result, "correct", None)
    if correct is not None:
        snapshot_meta["correct"] = bool(correct)
    snapshot_meta.update(meta or {})
    return MetricsSnapshot(metrics=metrics, meta=snapshot_meta)


@dataclass(frozen=True)
class Tolerance:
    """Allowed *increase* of a metric: relative fraction plus absolute slack.

    ``current`` passes while ``current <= baseline * (1 + rel) + abs``.
    An ``advisory`` tolerance never fails the gate: an exceedance is
    reported in the comparison table (so the trend stays visible) but the
    overall verdict ignores it — the treatment wall-clock metrics get,
    since they regress spuriously on loaded machines.
    """

    rel: float = 0.0
    abs: float = 0.0
    advisory: bool = False

    def __post_init__(self) -> None:
        for name in ("rel", "abs"):
            value = getattr(self, name)
            if not math.isfinite(value):
                # ``x > nan`` is false: a NaN limit would pass every run.
                raise ValueError(
                    f"tolerance {name} must be a finite number, got {value!r}"
                )

    def limit(self, baseline: float) -> float:
        return baseline * (1.0 + self.rel) + self.abs

    def describe(self) -> str:
        text = f"rel:{self.rel:g}+abs:{self.abs:g}"
        return f"{text}, advisory" if self.advisory else text


#: Pattern-ordered default tolerances.  CPU time is what the work costs
#: and is stable under machine load, so ``cpu.*``/``*cpu_seconds*`` gate
#: (generously — schedulers still jitter thread time a little).  Wall
#: clocks regress spuriously on loaded runners and under ``--workers``,
#: so ``timings.*``/``*seconds*`` are advisory-only.  Structural counts
#: are deterministic and must not grow silently.
DEFAULT_TOLERANCES: Tuple[Tuple[str, Tolerance], ...] = (
    ("cpu.*", Tolerance(rel=10.0, abs=0.5)),
    ("*cpu_seconds*", Tolerance(rel=10.0, abs=0.5)),
    ("timings.*", Tolerance(rel=10.0, abs=0.5, advisory=True)),
    ("*seconds*", Tolerance(rel=10.0, abs=0.5, advisory=True)),
    ("*", Tolerance(rel=0.0, abs=0.0)),
)


#: The ``meta`` fields naming a run's outcome: its verdict and the slice
#: rewriting flagged.  A change in either fails the gate whatever the
#: tolerances, since the counts then measure another answer.
OUTCOME_FIELDS = ("correct", "suspected_entry")


@dataclass
class MetricDelta:
    """Verdict for one metric of the comparison."""

    name: str
    #: a metric's value, or an :data:`OUTCOME_FIELDS` field's JSON value
    baseline: Any
    current: Any
    tolerance: Optional[Tolerance]
    regressed: bool
    note: str = ""

    def render_row(self) -> Tuple[str, str, str, str, str]:
        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            return f"{value:g}" if isinstance(value, float) else str(value)

        status = "FAIL" if self.regressed else "ok"
        detail = self.note or (
            self.tolerance.describe() if self.tolerance else ""
        )
        return (self.name, fmt(self.baseline), fmt(self.current), status, detail)


@dataclass
class ComparisonReport:
    """Outcome of comparing a current snapshot against a baseline."""

    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(
        self, only_failures: bool = False, title: str = "perf compare"
    ) -> str:
        from ..core.reporting import render_rows

        shown = self.regressions if only_failures else self.deltas
        verdict = (
            "no regressions"
            if self.ok
            else f"{len(self.regressions)} regression(s)"
        )
        if not shown:
            return f"{title}: {verdict}"
        return render_rows(
            f"{title}: {verdict}",
            ("metric", "baseline", "current", "status", "detail"),
            [delta.render_row() for delta in shown],
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "regressions": [delta.name for delta in self.regressions],
            "deltas": [
                {
                    "name": delta.name,
                    "baseline": delta.baseline,
                    "current": delta.current,
                    "regressed": delta.regressed,
                    "note": delta.note,
                }
                for delta in self.deltas
            ],
        }


def _tolerance_for(
    name: str, rules: Sequence[Tuple[str, Tolerance]]
) -> Tolerance:
    for pattern, tolerance in rules:
        if fnmatchcase(name, pattern):
            return tolerance
    return Tolerance()


def compare_snapshots(
    baseline: MetricsSnapshot,
    current: MetricsSnapshot,
    rules: Optional[Sequence[Tuple[str, Tolerance]]] = None,
) -> ComparisonReport:
    """Compare ``current`` against ``baseline`` under tolerance ``rules``.

    Rules are ``(fnmatch pattern, Tolerance)`` pairs checked in order;
    the first match wins.  A metric present in the baseline but missing
    from the current run is a regression (instrumentation was lost); a
    metric new in the current run is informational only.  An
    :data:`OUTCOME_FIELDS` value of ``meta`` that differs is a regression.
    """
    if rules is None:
        rules = DEFAULT_TOLERANCES
    report = ComparisonReport()
    for name in OUTCOME_FIELDS:
        base_value, cur_value = baseline.meta.get(name), current.meta.get(name)
        if base_value != cur_value:
            report.deltas.append(MetricDelta(
                name, base_value, cur_value, None, True, "outcome changed"
            ))
    for name in sorted(set(baseline.metrics) | set(current.metrics)):
        base_value = baseline.metrics.get(name)
        cur_value = current.metrics.get(name)
        tolerance = _tolerance_for(name, rules)
        if base_value is None:
            report.deltas.append(
                MetricDelta(name, None, cur_value, tolerance, False, "new metric")
            )
            continue
        if cur_value is None:
            report.deltas.append(
                MetricDelta(
                    name, base_value, None, tolerance, True, "metric disappeared"
                )
            )
            continue
        limit = tolerance.limit(base_value)
        exceeded = cur_value > limit
        regressed = exceeded and not tolerance.advisory
        note = ""
        if exceeded:
            note = f"limit {limit:g} ({tolerance.describe()})"
            if tolerance.advisory:
                note = f"advisory: exceeded {note}"
        report.deltas.append(
            MetricDelta(name, base_value, cur_value, tolerance, regressed, note)
        )
    return report
