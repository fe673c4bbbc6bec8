"""Paper-style table rendering for the benchmark harness.

The paper's Tables 1–5 are matrices of reorder-buffer sizes (rows) by
issue/retire widths (columns); impossible configurations (width > size)
are printed as a dash.  :func:`render_matrix` reproduces that layout.

:func:`render_diagnostics` is the human-readable sink for the soundness
analyzers of :mod:`repro.analysis`, whose one route is
``python -m repro lint``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

__all__ = [
    "render_matrix",
    "render_rows",
    "render_diagnostics",
]


def render_matrix(
    title: str,
    sizes: Sequence[int],
    widths: Sequence[int],
    cell: Callable[[int, int], Optional[object]],
    size_header: str = "Size",
    value_format: str = "{}",
) -> str:
    """Render a sizes-by-widths matrix the way the paper's tables do.

    ``cell(size, width)`` returns the value for one configuration or
    ``None`` for an impossible/omitted one (printed as a dash).
    """
    header = [size_header] + [str(width) for width in widths]
    rows: List[List[str]] = [header]
    for size in sizes:
        row = [str(size)]
        for width in widths:
            value = cell(size, width) if width <= size else None
            row.append("-" if value is None else value_format.format(value))
        rows.append(row)
    return _tabulate(title, rows)


def render_rows(
    title: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a simple header + rows table."""
    table = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    return _tabulate(title, table)


def render_diagnostics(diagnostics: Sequence, title: str = "Findings") -> str:
    """Render analyzer :class:`~repro.analysis.diagnostics.Diagnostic`
    records as a severity-sorted table, with a per-severity tally line."""
    from ..analysis.diagnostics import sort_report, summarize

    ordered = sort_report(diagnostics)
    counts = summarize(ordered)
    tally = ", ".join(
        f"{count} {severity}" for severity, count in counts.items() if count
    ) or "no findings"
    if not ordered:
        return f"{title}: {tally}"
    rows = [
        (diag.severity, diag.stage, diag.check, diag.subject or "-",
         diag.message)
        for diag in ordered
    ]
    table = render_rows(
        f"{title} ({tally})",
        ("severity", "stage", "check", "subject", "message"),
        rows,
    )
    return table


def _tabulate(title: str, rows: List[List[str]]) -> str:
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(rows[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
