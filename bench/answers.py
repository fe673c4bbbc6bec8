"""Hand-written known answers for benchmark jobs.

Nothing here is taken from the program under test.  The expected outcome
of a job follows from the job alone:

* a correct design is PROVED;
* a design with a planted bug is BUG_FOUND; for the kinds whose faulty
  computation slice is the planted entry (the paper's Sect. 7.2
  experiment), the rewriting engine must name that entry;
* under rewriting, a correct ``reg-reg`` or ``mem`` design reduces fully:
  no ``e_ij`` variable survives and the residual CNF is the same at every
  ROB size for one (family, issue width, retire width) — the paper's
  Table 5 claim;
* a certified run carries a validated witness; a ``rewrite-flag`` witness
  (which is never validated) is accepted only when the rewriting engine
  flagged a slice of a buggy design.

The verifier's answer arrives as a :class:`Outcome`, so this module needs
no ``repro`` import and its rules can be tested on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from workloads import Job

__all__ = ["Outcome", "Answers", "check_placement", "SLICE_KINDS"]

#: bug kinds whose flagged slice must equal the planted entry.  The others
#: (retire-out-of-order, store-order, pc-single-increment and the branch
#: kinds) are checked for BUG_FOUND only: their defect shows up at another
#: slice, or in the PC or a speculative path the rewriting engine does not
#: reduce.
SLICE_KINDS = frozenset({
    "forward-wrong-source",
    "forward-stale-result",
    "execute-ignores-hazard",
    "retire-without-result",
    "retire-ignores-valid",
    "stale-load-forward",
})

REDUCING_FAMILIES = ("reg-reg", "mem")


@dataclass(frozen=True)
class Outcome:
    """What one ``verify()`` call answered."""

    proved: bool
    suspected_entry: Optional[int] = None
    reduction: Optional[str] = None
    #: (cnf_vars, cnf_clauses, eij_primary) when a CNF was built.
    cnf: Optional[Tuple[int, int, int]] = None
    #: (kind, validated) of the witness of a certified run.
    witness: Optional[Tuple[str, bool]] = None


def check_placement(job: Job) -> None:
    """Reject a planted bug that could not change the design's behaviour.

    Raises:
        ValueError: naming the rule the placement breaks.
    """
    kind, entry = job.bug_kind, job.bug_entry
    if kind is None:
        return

    def need(ok: bool, rule: str) -> None:
        if not ok:
            raise ValueError(f"inert placement {job.label}: {rule}")

    need(1 <= entry <= job.n_rob, "entry must lie in the ROB")
    if kind == "forward-wrong-source":
        need(entry == round(0.56 * job.n_rob), "entry = round(0.56*N)")
    elif kind == "forward-stale-result":
        need(entry >= 3, "entry >= 3 (two older producers)")
    elif kind == "execute-ignores-hazard":
        need(entry >= 2, "entry >= 2 (an older producer)")
    elif kind in ("retire-without-result", "retire-ignores-valid"):
        need(entry <= job.retire, "entry <= retire width")
    elif kind == "retire-out-of-order":
        need(2 <= entry <= job.retire, "2 <= entry <= retire width")
    elif kind == "pc-single-increment":
        need(job.issue_width >= 2, "issue width >= 2")
    elif kind == "stale-load-forward":
        need(job.family == "mem", "mem family")
        need(job.method == "rewriting", "rewriting only (PE runs out of memory)")
        need(job.retire == 2 and entry == 3, "retire width 2, entry 3")
    elif kind == "store-order":
        need(job.family == "mem", "mem family")
        need(2 <= entry <= job.retire, "2 <= entry <= retire width")
    elif kind == "dropped-flush":
        need(
            (job.family, job.n_rob, job.issue_width, job.retire, entry)
            == ("branch", 2, 1, 1, 2),
            "branch N=2 k=1 l=1 entry 2",
        )
    elif kind == "wrong-path-retire":
        need(
            (job.family, job.n_rob, job.issue_width, job.retire, entry)
            == ("branch", 2, 1, 2, 2),
            "branch N=2 k=1 l=2 entry 2",
        )
    else:
        raise ValueError(f"no placement rule for bug kind {kind!r}")


class Answers:
    """Checks outcomes against the known answers.

    Holds the residual-CNF shape first seen for each (family, k, l), so
    the ROB-size independence check spans every job of a run.
    """

    def __init__(self) -> None:
        self.shapes: Dict[Tuple[str, int, int], Tuple[int, int]] = {}

    def check(self, job: Job, outcome: Outcome) -> List[str]:
        """Every way ``outcome`` differs from the known answer (empty when
        it matches)."""
        wrong = []
        if job.bug_kind is None:
            if not outcome.proved:
                wrong.append("expected PROVED, got BUG_FOUND")
            elif job.method == "rewriting" and job.family in REDUCING_FAMILIES:
                wrong.extend(self._check_reduced(job, outcome))
        else:
            if outcome.proved:
                wrong.append("expected BUG_FOUND, got PROVED")
            elif (
                job.bug_kind in SLICE_KINDS
                and outcome.suspected_entry != job.bug_entry
            ):
                wrong.append(
                    f"expected slice {job.bug_entry} flagged, got "
                    f"{outcome.suspected_entry}"
                )
        if job.certify:
            wrong.extend(self._check_witness(job, outcome))
        return [f"{job.label}: {text}" for text in wrong]

    def _check_reduced(self, job: Job, outcome: Outcome) -> List[str]:
        if outcome.reduction != "full":
            return [f"expected full reduction, got {outcome.reduction!r}"]
        if outcome.cnf is None:
            return ["expected a residual CNF, got none"]
        wrong = []
        cnf_vars, cnf_clauses, eij = outcome.cnf
        if eij != 0:
            wrong.append(f"expected 0 e_ij variables, got {eij}")
        key = (job.family, job.issue_width, job.retire)
        first = self.shapes.setdefault(key, (cnf_vars, cnf_clauses))
        if first != (cnf_vars, cnf_clauses):
            wrong.append(
                f"residual CNF {cnf_vars}/{cnf_clauses} differs from "
                f"{first[0]}/{first[1]} at another N"
            )
        return wrong

    def _check_witness(self, job: Job, outcome: Outcome) -> List[str]:
        if outcome.witness is None:
            return ["expected a witness, got none"]
        kind, validated = outcome.witness
        if kind == "rewrite-flag":
            if job.bug_kind is None or outcome.suspected_entry is None:
                return ["rewrite-flag witness without a flagged slice"]
            return []
        expected = "unsat-proof" if outcome.proved else "counterexample"
        if kind != expected or not validated:
            return [
                f"expected a validated {expected} witness, got {kind!r} "
                f"(validated={validated})"
            ]
        return []
