"""Shared helpers of the benchmarks.

The paper's tables are rendered from one perf grid record
(``bench_tables.py``); the benchmarks that run pipeline stages
themselves — Fig. 2, the ablation, the parallel campaign — print their
tables and write them to ``benchmarks/results/`` so the numbers survive
pytest's output capture.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def layer_cpu(spans, *layers: str) -> float:
    """CPU seconds of the pipeline-layer spans named ``layers`` among
    ``spans`` — a tracer's ``roots`` or a ``verify()`` trace's
    ``children``.  The paper's tables report CPU time; the layers' own
    spans measure it, so no table reads a wall clock."""
    return sum(span.cpu_seconds for span in spans if span.name in layers)


def save_table(name: str, text: str) -> None:
    """Print a table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
