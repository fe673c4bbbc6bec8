"""Compare two benchmark result files against the bounds in BENCHMARK.json.

    python bench/compare.py A.json B.json

A is the base and B the candidate, both written by
``bench/run.py --out``.  For every (end-to-end metric, workload) it prints

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``regressed`` — B is worse by more than the bound;
* ``unresolved`` — the metric is missing from one file, or A's value is
  0 so no relative change exists.

B's ``wrong_verdicts`` and ``failed_share`` must be 0; anything else is a
regression.  Per-layer counts (unit ``count``) are deterministic for a
seed, so every one that differs is flagged; that flags where the work
changed and is not a regression by itself.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worsening(base: float, value: float, better: str) -> Optional[float]:
    """How much worse ``value`` is than ``base``, as a share of ``base``
    (negative when better); ``None`` when ``base`` is 0."""
    if base == 0:
        return None
    change = (value - base) / abs(base)
    return change if better == "lower" else -change


def status(base: Optional[float], value: Optional[float], better: str,
           bound: float) -> str:
    if base is None or value is None:
        return "unresolved"
    worse = worsening(base, value, better)
    if worse is None:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(a: Dict, b: Dict, spec: Dict) -> List[str]:
    """The report lines; a line starting with ``regressed`` is a
    regression."""
    lines = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(workload, {})
        wb = b["workloads"].get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = wa.get("end_to_end", {}).get(name)
            value = wb.get("end_to_end", {}).get(name)
            verdict = status(base, value, metric["better"], metric["bound"])
            change = "n/a"
            if verdict != "unresolved":
                worse = worsening(base, value, metric["better"])
                change = f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
            lines.append(
                f"{verdict:<10} {workload:<13} {name:<24} {base} -> {value} "
                f"{metric['unit']} ({change}, bound {metric['bound']:.0%})"
            )
        for gate in ("wrong_verdicts", "failed_share"):
            value = wb.get(gate)
            verdict = "ok" if value == 0 else "regressed"
            lines.append(f"{verdict:<10} {workload:<13} {gate:<24} {value}")
        for metric in spec["per_layer"]:
            if metric["unit"] != "count":
                continue
            name = metric["name"]
            base = wa.get("per_layer", {}).get(name)
            value = wb.get("per_layer", {}).get(name)
            if base != value:
                lines.append(
                    f"{'differs':<10} {workload:<13} {name:<24} {base} -> {value}"
                )
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    lines = compare(a, b, spec)
    for line in lines:
        print(line)
    regressed = sum(line.startswith("regressed") for line in lines)
    print(f"{regressed} regression(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
