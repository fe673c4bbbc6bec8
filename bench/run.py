"""The repository benchmark: four verifier workloads, each measured end to
end and layer by layer.  See ``bench/README.md``.

From the repository root:

    python bench/run.py --seed 1 --out bench/results/run.json
        every workload once; writes one result file with both metric
        sets and the traces ``bench/results/trace-<workload>.json``.

    python bench/run.py --workload deep-rob --seed 1 --seconds 30 --trace 0
        one run of one workload; the last line of standard output is a
        JSON object with ``correct``, ``attempted``, ``failed`` and the
        end-to-end metrics (``--trace 0``) or per-layer metrics
        (``--trace 1``) named in ``BENCHMARK.json``.

The verifier is imported from ``src/`` of the same checkout; nothing
needs installing.  The run exits 1 when any verdict differs from its
known answer (``bench/answers.py``) or any job failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from calibrate import REFERENCE_S
from workloads import WORKLOADS, Job, draw

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = BENCH / "results"

#: a child still running after this long is killed; its unfinished jobs
#: count as failed.
CHILD_TIMEOUT_S = 150
#: pairs of fresh interpreters timed for ``setup_s``, after one untimed
#: pair that compiles the bytecode.
SETUP_PAIRS = 5
SETUP_CODE = "import repro; repro.verify(repro.ProcessorConfig(1, 1))"
#: the other interpreter of a pair: start-up work of the same kind, the
#: standard-library and numpy imports, without the verifier.
REFERENCE_CODE = (
    "import argparse, asyncio, dataclasses, decimal, json, re, typing\n"
    "try:\n    import numpy\nexcept ImportError:\n    pass\n"
)
#: what one ``REFERENCE_CODE`` interpreter takes on a quiet 2-vCPU x86-64
#: VM with Python 3.11; ``setup_s`` is rescaled to a host this fast.
REFERENCE_SPAWN_S = 0.20
#: settings that would swap the reference SAT solver or the job sizes.
DROPPED_ENV = ("REPRO_SAT_BACKEND", "REPRO_SAT_DIMACS_SOLVER", "REPRO_BENCH_FULL")
#: a percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
LAYERS = ("tlsim", "rewriting", "encode", "sat", "witness")
SUMMED_COUNTS = (
    "tlsim.nodes", "eufm.nodes", "rewriting.entries_proved",
    "rewriting.rule_firings", "encode.cnf_vars", "encode.cnf_clauses",
    "encode.eij_primary", "sat.conflicts", "sat.propagations", "sat.decisions",
)


# -- statistics ----------------------------------------------------------


def quantile(samples: List[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    It weighs every order statistic by the chance that it is the
    quantile of a fresh sample, a Beta(p(n+1), (1-p)(n+1)) law, so the
    estimate moves smoothly with every sample instead of jumping with
    the one or two next to the rank: at 40 samples it repeats about
    twice as closely as the plain order statistic.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # The Beta CDF at i/n, i = 0..n, by the midpoint rule on 64 steps a
    # sample; the density is smooth and vanishes at both ends.
    steps = 64
    cdf, mass = [0.0], 0.0
    for i in range(n):
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        cdf.append(mass)
    return sum((cdf[i + 1] - cdf[i]) / mass * x for i, x in enumerate(ordered))


def p75(samples: List[float]) -> Optional[float]:
    """The 75th percentile, or ``None`` for fewer than 40 samples, below
    which fewer than ten samples lie beyond it."""
    if len(samples) < 4 * TAIL_SAMPLES:
        return None
    return quantile(samples, 0.75)


def growth_exponent(points: Iterable[Tuple[tuple, int, float]]) -> Optional[float]:
    """Log-log slope of a count against the ROB size N.

    ``points`` are ``(group, n, count)``; the slope is fitted within each
    group that has at least two distinct N (pooled least squares, one
    intercept per group).  Non-positive counts are skipped.  Returns
    ``None`` when no group qualifies.
    """
    groups = defaultdict(list)
    for group, n, count in points:
        if count > 0:
            groups[group].append((math.log(n), math.log(count)))
    sxx = sxy = 0.0
    for pts in groups.values():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else None


def _share(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


# -- child processes -----------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        check=True, capture_output=True, timeout=60,
    )
    return time.perf_counter() - start


def measure_setup() -> float:
    """Time of a fresh interpreter importing the verifier and running the
    smallest verification, in reference seconds.

    Each timed spawn runs right after a spawn of ``REFERENCE_CODE``, and
    its wall time is rescaled by that one's: the host slows both about
    alike, while it slows imports only about half as much as the Python
    code that ``calibrate.probe`` times.  The result is the median over
    the pairs.
    """
    _spawn(REFERENCE_CODE)
    _spawn(SETUP_CODE)
    walls, ratios = [], []
    for _ in range(SETUP_PAIRS):
        reference = _spawn(REFERENCE_CODE)
        setup = _spawn(SETUP_CODE)
        walls.append((setup, reference))
        ratios.append(setup / reference)
    print("setup spawns (wall s, verifier/reference): " + " ".join(
        f"{setup:.4f}/{reference:.4f}" for setup, reference in walls))
    return statistics.median(ratios) * REFERENCE_SPAWN_S


def run_worker(workload: str, seed: int, seconds: float) -> Dict:
    """Run one worker child; returns its job lines and their tally."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        out = proc.stdout
        if proc.returncode != 0:
            print(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
    except subprocess.TimeoutExpired as exc:
        print(f"{workload} worker killed after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    lines = [json.loads(text) for text in out.splitlines() if text.startswith("{")]
    jobs = [line for line in lines if "index" in line]
    planned = next((line["planned"] for line in lines if "planned" in line), 1)
    finished = any(line.get("done") for line in lines)
    # Unless the child finished, the job in flight and the rest of the
    # passes it had to make count as attempted and failed.
    attempted = len(jobs) if finished else max(planned, len(jobs) + 1)
    return {
        "jobs": jobs,
        "attempted": attempted,
        "failed": sum(1 for line in jobs if line["failed"]) + attempted - len(jobs),
        "wrong": [text for line in jobs for text in line["wrong"]],
        "rss_kb": max((line["rss_kb"] for line in lines), default=0),
    }


# -- metrics -------------------------------------------------------------


def host_factors(lines: List[Dict]) -> List[float]:
    """For each job line, the factor that turns its wall times into
    reference seconds: ``REFERENCE_S`` over the mean of the host-speed
    probes taken just before the job, during it and just after it (the
    next line's ``probes``).

    Other tenants slow the host by up to 1.8 times for spans from a
    fraction of a second to minutes.  A probe slows with them about as
    much as ``verify()`` does, so the rescaled time follows the program
    and not the neighbours.  A short job meets no sample and is rescaled
    by the probes next to it; a long one by the samples taken every 50 ms
    while it ran, which follow the host through its changes of speed.
    """
    after = [line["probes"] for line in lines[1:] + lines[-1:]]
    return [
        REFERENCE_S / statistics.fmean(line["probes"] + line["samples"] + later)
        for line, later in zip(lines, after)
    ]


def samples(run: Dict) -> Dict[int, List[Tuple[Dict, float]]]:
    """Each job's successful runs with their host factors, by job index;
    a job that never succeeded has none."""
    by_job: Dict[int, List[Tuple[Dict, float]]] = defaultdict(list)
    for line, factor in zip(run["jobs"], host_factors(run["jobs"])):
        if not line["failed"]:
            by_job[line["index"]].append((line, factor))
    return by_job


def _mean(runs: List[Tuple[Dict, float]], seconds) -> float:
    """The mean over a job's runs of ``seconds(line)``, rescaled."""
    return statistics.fmean(seconds(line) * factor for line, factor in runs)


def job_times(run: Dict) -> Dict[int, float]:
    """Each job's mean time over its runs, in reference seconds."""
    return {
        index: _mean(runs, lambda line: line["wall_s"])
        for index, runs in samples(run).items()
    }


def end_to_end(run: Dict) -> Dict[str, Optional[float]]:
    """The end-to-end metrics but ``setup_s``, which is measured apart."""
    times = list(job_times(run).values())
    return {
        "jobs_per_min": 60.0 * len(times) / sum(times) if times else None,
        "verdict_s.p50": quantile(times, 0.5) if times else None,
        "verdict_s.p75": p75(times),
        "peak_rss_mb": run["rss_kb"] / 1024.0 if run["rss_kb"] else None,
    }


def per_layer(
    run: Dict, jobs: List[Job],
) -> Tuple[Dict[str, Optional[float]], Dict[str, float]]:
    """Per-layer metrics, summed over the jobs, and each layer's share of
    job time.

    Times are each job's mean over its runs, in reference seconds; counts
    come from its first run: a later repeat in the same process can take
    a slightly different SAT search (a few propagations on one
    ``full-formula`` design), while the first run counts the same in
    every run of a seed.
    """
    by_job = samples(run)
    first = {index: runs[0][0] for index, runs in by_job.items()}
    counts: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    for line in first.values():
        for name, value in line["counts"].items():
            counts[name] += value
    for runs in by_job.values():
        for layer in LAYERS:
            busy[layer] += _mean(runs, lambda line: line["layers"].get(layer, 0.0))
    job_s = sum(job_times(run).values())
    glue_s = job_s - sum(busy.values())

    metrics: Dict[str, Optional[float]] = {
        f"{layer}.time_s": busy[layer] for layer in LAYERS
    }
    for name in SUMMED_COUNTS:
        metrics[name] = counts[name]
    for name in ("tlsim.nodes", "eufm.nodes"):
        metrics[f"{name}_growth_exp"] = growth_exponent(
            (jobs[i].group, jobs[i].n_rob, line["counts"][name])
            for i, line in first.items()
        )
    metrics["rewriting.reduced_share"] = _share(
        counts["rewriting.reduced"],
        sum(jobs[i].method == "rewriting" for i in first),
    )
    metrics["witness.validated_share"] = _share(
        counts["witness.validated"], sum(jobs[i].certify for i in first)
    )
    metrics["eufm.peak_nodes"] = max(
        (line["counts"]["eufm.nodes"] for line in first.values()), default=None
    )
    metrics["gc.pause_s"] = sum(
        _mean(runs, lambda line: line["gc_pause_s"]) for runs in by_job.values()
    )
    metrics["bench.glue_s"] = glue_s
    shares = {}
    if job_s:
        shares = {layer: busy[layer] / job_s for layer in LAYERS}
        shares["glue"] = glue_s / job_s
    return metrics, shares


def write_trace(workload: str, run: Dict, jobs: List[Job]) -> Path:
    """Chrome trace-event file of the first pass: one ``verify`` span per
    job, ``verify()``'s own layer spans nested under it."""
    events = []
    for line in run["jobs"]:
        for event in line.get("events", ()):
            event["args"]["job"] = jobs[line["index"]].label
            events.append(event)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


# -- runs ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, setup: bool,
            units: Dict[str, str]) -> Dict:
    """One run of one workload, with ``setup_s`` measured when ``setup``
    is true; prints every metric and returns them.

    The set-up spawns count against ``seconds``, so a run takes about as
    long however slow the host is.
    """
    start = time.perf_counter()
    metrics = {"setup_s": measure_setup()} if setup else {}
    jobs = draw(workload, seed)
    run = run_worker(workload, seed, seconds - (time.perf_counter() - start))
    metrics.update(end_to_end(run))
    layer_metrics, shares = per_layer(run, jobs)
    metrics.update(layer_metrics)
    trace_path = write_trace(workload, run, jobs)

    for text in run["wrong"]:
        print(f"{workload:<13} WRONG {text}")
    by_job = samples(run)
    print(f"{workload:<13} timings are over {len(by_job)} jobs, each the mean "
          f"of its timed runs in reference seconds "
          f"({sum(map(len, by_job.values()))} timed, {run['attempted']} "
          f"attempted)")
    for name, unit in units.items():
        if metrics.get(name) is not None:
            print(f"{workload:<13} {name:<28} {metrics[name]:14.6g} {unit}")
        elif name in metrics:
            print(f"{workload:<13} {name:<28} {'unresolved':>14} {unit}")
    failed_share = run["failed"] / run["attempted"]
    print(f"{workload:<13} {'failed_share':<28} {failed_share:14.6g} "
          f"ratio ({run['failed']} of {run['attempted']} attempted)")
    print(f"{workload:<13} {'wrong_verdicts':<28} {len(run['wrong']):14d} count")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{workload:<13} self time {layer:<11} {share:7.1%}")
    print(f"{workload:<13} trace written to {trace_path}")
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_share": failed_share,
        "wrong_verdicts": len(run["wrong"]),
        "metrics": metrics,
        "layer_share": shares,
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"bench: no verifier sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="planned measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--out", type=Path, help="result file (all workloads)")
    args = parser.parse_args(argv)

    if args.workload:
        result = measure(args.workload, args.seed, args.seconds,
                         not args.trace, units)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": result["wrong_verdicts"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }))
        return 1 if result["wrong_verdicts"] or result["failed"] else 0

    report = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    bad = 0
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds, True, units)
        bad += result["wrong_verdicts"] + result["failed"]
        metrics = result.pop("metrics")
        report["workloads"][workload] = dict(
            result,
            end_to_end={m["name"]: metrics[m["name"]] for m in spec["end_to_end"]},
            per_layer={m["name"]: metrics[m["name"]] for m in spec["per_layer"]},
        )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
