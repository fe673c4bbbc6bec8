"""``python -m repro witness`` — certify verdicts and check stored proofs.

Subcommands::

    witness certify --rob 4 --width 2 [--proof-out p.drup --cnf-out f.cnf]
    witness explain --rob 4 --width 2 --bug pc-single-increment
    witness check --cnf formula.cnf --proof proof.drup

``certify`` and ``explain`` take the single-run CLI's run flags, defaults
included (:func:`repro.core.cli.add_run_options`).

``certify`` runs one verification with ``certify=True`` and reports the
witness: for a correct design the solver's DRUP proof is re-checked by
the independent reverse-unit-propagation checker; for a buggy one the
counterexample is reconstructed, replayed and minimized.  ``--proof-out``
/ ``--cnf-out`` write the proof and the exact CNF it certifies to disk
(the pair ``check`` consumes).

``explain`` is ``certify`` focused on the SAT side: it requires a
term-level counterexample and prints the full minimized diagnosis.

``check`` re-validates a stored proof against a stored DIMACS CNF with no
solver involved at all — the offline trust anchor for CI artifacts.

Exit status: 0 — the witness validated (proof checked / counterexample
replayed); 1 — it did not; 2 — a budget ran out; 3 — a structural
error (no certifiable artifact, unparsable files, bad config).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.cli import add_run_options, verify_from_args
from ..errors import BudgetExhausted, ReproError, WitnessError
from .drup import DrupProof, check_drup

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro witness",
        description=(
            "Produce and validate verdict witnesses: DRUP proofs for "
            "correct designs, replayed term-level counterexamples for "
            "buggy ones."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser(
        "certify", help="verify one configuration and validate its witness"
    )
    explain = sub.add_parser(
        "explain",
        help="verify a (buggy) configuration and print the minimized "
        "term-level counterexample diagnosis",
    )
    for cmd in (certify, explain):
        add_run_options(cmd)
        cmd.add_argument(
            "--json",
            action="store_true",
            help="print the witness summary as JSON instead of text",
        )
    certify.add_argument(
        "--proof-out",
        metavar="FILE",
        help="write the DRUP proof here (UNSAT verdicts only)",
    )
    certify.add_argument(
        "--cnf-out",
        metavar="FILE",
        help="write the exact CNF the proof certifies here (DIMACS)",
    )

    check = sub.add_parser(
        "check", help="re-check a stored DRUP proof against a stored CNF"
    )
    check.add_argument("--cnf", required=True, metavar="FILE")
    check.add_argument("--proof", required=True, metavar="FILE")
    return parser


def _emit(witness, as_json: bool) -> None:
    if as_json:
        print(json.dumps(witness.summary_dict(), indent=2, sort_keys=True))
    else:
        print(witness.render())


def _certify_main(args: argparse.Namespace) -> int:
    result = verify_from_args(args, certify=True)
    witness = result.witness
    print(result.summary())
    _emit(witness, args.json)
    if args.proof_out:
        if witness.proof is None:
            print(
                f"no DRUP proof to write (witness kind {witness.kind!r})",
                file=sys.stderr,
            )
            return 3
        with open(args.proof_out, "w", encoding="utf-8") as handle:
            handle.write(witness.proof.to_text())
        print(f"proof written to {args.proof_out} (digest {witness.digest()})")
    if args.cnf_out:
        from ..sat.cnf import to_dimacs

        if result.validity is None or result.validity.encoded.tseitin is None:
            print("no CNF to write (no SAT run happened)", file=sys.stderr)
            return 3
        with open(args.cnf_out, "w", encoding="utf-8") as handle:
            handle.write(
                to_dimacs(
                    result.validity.encoded.cnf,
                    comments=(
                        f"exact CNF decided for {result.config.describe()}",
                    ),
                )
            )
        print(f"CNF written to {args.cnf_out}")
    return 0 if witness.validated else 1


def _explain_main(args: argparse.Namespace) -> int:
    result = verify_from_args(args, certify=True)
    witness = result.witness
    if witness.kind != "counterexample":
        print(
            f"no term-level counterexample to explain: the run produced a "
            f"{witness.kind!r} witness ({witness.detail})",
            file=sys.stderr,
        )
        return 3
    _emit(witness, args.json)
    if not args.json:
        print(
            "replayed through the EUFM evaluator: "
            f"{'ok' if witness.validated else 'FAILED'}"
        )
    return 0 if witness.validated else 1


def _check_main(args: argparse.Namespace) -> int:
    from ..sat.cnf import parse_dimacs

    with open(args.cnf, "r", encoding="utf-8") as handle:
        cnf = parse_dimacs(handle.read())
    with open(args.proof, "r", encoding="utf-8") as handle:
        proof = DrupProof.from_text(handle.read())
    outcome = check_drup(cnf, proof)
    status = "VALIDATED" if outcome.ok else "REJECTED"
    print(
        f"{status}: {outcome.detail} "
        f"({outcome.steps_checked} step(s) checked, proof digest "
        f"{proof.digest()})"
    )
    return 0 if outcome.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "certify":
            return _certify_main(args)
        if args.command == "explain":
            return _explain_main(args)
        return _check_main(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (WitnessError, ReproError, ValueError, OSError) as exc:
        print(f"witness error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
