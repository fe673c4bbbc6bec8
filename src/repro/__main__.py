"""Command-line interface: ``python -m repro [options]``.

Single-run examples::

    python -m repro --rob 64 --width 8
    python -m repro --rob 128 --width 4 --bug forward-wrong-source --entry 72
    python -m repro --rob 2 --width 1 --method positive_equality
    python -m repro --rob 8 --width 2 --family mem
    python -m repro --rob 4 --width 2 --family branch --bug dropped-flush --entry 2
    python -m repro --rob 16 --width 4 --max-conflicts 50000 --deadline 30

Campaign mode (batches with retries, budget escalation and a crash-safe
journal; see :mod:`repro.campaign.cli`)::

    python -m repro campaign --journal camp.jsonl --grid 4x2,8x2,16x4

Lint mode (soundness analyzers; see :mod:`repro.analysis.cli`)::

    python -m repro lint
    python -m repro lint --grid 3x2 --json

Staticcheck mode (self-hosting source-level invariant checkers; see
:mod:`repro.staticcheck.cli`)::

    python -m repro staticcheck src/repro --json
    python -m repro staticcheck --baseline .staticcheck-baseline.json

Observability (span traces and the perf-regression gate; see
:mod:`repro.obs.cli`)::

    python -m repro trace --rob 4 --width 2
    python -m repro perf record --rob 4 --width 2 --out base.json
    python -m repro perf grid --out grid_current.json
    python -m repro perf compare benchmarks/baselines/grid.json grid_current.json

Witness mode (DRUP proof certification and counterexample replay; see
:mod:`repro.witness.cli`)::

    python -m repro witness certify --rob 4 --width 2 --proof-out p.drup
    python -m repro witness explain --rob 4 --width 2 --bug pc-single-increment
    python -m repro witness check --cnf formula.cnf --proof p.drup

Service mode (the long-lived verification-as-a-service job server; see
:mod:`repro.service.cli`)::

    python -m repro serve --port 8080 --data-dir ./repro-service

Version (package + rule-registry provenance, one line each)::

    python -m repro --version

Exit status of a single run: 0 — the design was proved correct; 1 — a bug
was found; 2 — a budget (conflicts, deadline, memory) ran out before a
verdict; 3 — an invalid configuration (a negative budget included) or
another structured verification error (including strict-mode soundness
findings).
"""

from __future__ import annotations

import argparse
import gc
import sys

from .core.cli import add_run_options, verify_from_args
from .errors import AnalysisError, BudgetExhausted, ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Formally verify an abstract out-of-order processor with a "
            "reorder buffer (Velev, DATE 2002 reproduction).  Use the "
            "'campaign' subcommand for crash-safe batches."
        ),
    )
    add_run_options(parser)
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the soundness analyzers and report their findings",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "implies --analyze; exit with status 3 when the analyzers "
            "report any error-level finding"
        ),
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "certify the verdict: check a DRUP proof for correct designs, "
            "replay + minimize the counterexample for buggy ones; exit "
            "with status 3 when the witness fails validation"
        ),
    )
    return parser


def print_version() -> int:
    """``--version``: package + rule-registry provenance.

    Both lines identify cache provenance: two servers with equal output
    here produce interchangeable verdicts for equal requests (the
    service's cache keys fold the registry version in).
    """
    from . import __version__
    from .rewriting.version import registry_version

    print(f"repro {__version__}")
    print(f"rule-registry {registry_version()}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--version", "version"):
        return print_version()
    if argv and argv[0] == "serve":
        from .service.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "campaign":
        from .campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "staticcheck":
        from .staticcheck.cli import main as staticcheck_main

        return staticcheck_main(argv[1:])
    if argv and argv[0] == "perf":
        from .obs.cli import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "trace":
        from .obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "witness":
        from .witness.cli import main as witness_main

        return witness_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        result = verify_from_args(
            args,
            announce=print,
            analyze=args.analyze or args.strict,
            strict=args.strict,
            certify=args.certify,
        )
    except ValueError as exc:
        # Configuration-level rejections (an invalid size, a bug kind the
        # workload family cannot express, an unsound criterion for it).
        print(f"python -m repro: error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        from .core.reporting import render_diagnostics

        print(
            render_diagnostics(exc.diagnostics, title="Soundness findings"),
            file=sys.stderr,
        )
        print(f"strict analysis failed: {exc}", file=sys.stderr)
        return 3
    except BudgetExhausted as exc:
        spent = []
        if exc.conflicts is not None:
            spent.append(f"{exc.conflicts} conflicts")
        if exc.seconds is not None:
            spent.append(f"{exc.seconds:.1f}s")
        spent_text = f" after {', '.join(spent)}" if spent else ""
        stage_text = f" in stage {exc.stage!r}" if exc.stage else ""
        print(
            f"budget exhausted{spent_text}{stage_text}: {exc}\n"
            "hint: raise --max-conflicts/--deadline/--max-memory, or use "
            "'python -m repro campaign' for automatic budget escalation",
            file=sys.stderr,
        )
        return 2
    except ReproError as exc:
        print(f"verification failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(result.summary())
    if result.diagnostics:
        from .core.reporting import render_diagnostics

        print(render_diagnostics(result.diagnostics))
    if result.witness is not None:
        print(result.witness.render())
        if result.witness.kind != "rewrite-flag" and \
                not result.witness.validated:
            print("witness FAILED validation", file=sys.stderr)
            return 3
    return 0 if result.correct else 1


if __name__ == "__main__":
    status = main()
    # A run's nodes stay interned after it (``run_scope``), millions at the
    # paper's sizes; frozen, the interpreter's shutdown collections skip
    # them instead of traversing every one.
    gc.freeze()
    sys.exit(status)
