"""Seeded job lists for the four benchmark workloads.

A job is plain data (no ``repro`` import), so the parent process, the
tests and the known-answer checker can all handle it without loading the
verifier.  Each workload draws its jobs from
``random.Random(f"{seed}:{workload}")``: the same seed always gives the
same list, a different seed a different one.

Sizes are drawn by *stratified* sampling: a range is cut into as many
equal strata as there are jobs and one value is drawn inside each
stratum, and discrete choices (issue width, bug kind, twins) are dealt
out in fixed proportions.  Every seed therefore gets the same spread of
job costs, so the medians the benchmark reports move with the code under
test, not with the luck of the draw.

Every workload has 40 jobs, the fewest at which ten lie beyond the 75th
percentile.  Sizes stop where a run of 32 s repeats every job at least
twice even while other tenants slow the host down by up to 1.8 times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["Job", "WORKLOADS", "draw"]


@dataclass(frozen=True)
class Job:
    """One ``verify()`` call."""

    family: str
    n_rob: int
    issue_width: int
    retire_width: Optional[int] = None
    method: str = "rewriting"
    bug_kind: Optional[str] = None
    bug_entry: int = 1
    bug_operand: int = 1
    certify: bool = False
    criterion: str = "disjunction"

    @property
    def retire(self) -> int:
        return self.retire_width if self.retire_width is not None else self.issue_width

    @property
    def label(self) -> str:
        text = (
            f"{'rw' if self.method == 'rewriting' else 'pe'}-{self.family}"
            f"-N{self.n_rob}-k{self.issue_width}"
        )
        if self.retire_width is not None:
            text += f"-l{self.retire_width}"
        if self.criterion != "disjunction":
            text += f"-{self.criterion}"
        if self.bug_kind is not None:
            text += f"-{self.bug_kind}@{self.bug_entry}.{self.bug_operand}"
        if self.certify:
            text += "-certified"
        return text

    @property
    def group(self) -> Tuple:
        """Jobs that differ only in the ROB size N; growth exponents are
        fitted within a group."""
        return (self.family, self.issue_width, self.retire, self.method,
                self.bug_kind, self.certify, self.criterion)

    def twin(self) -> "Job":
        """The same design without its planted bug."""
        return Job(
            self.family, self.n_rob, self.issue_width, self.retire_width,
            self.method, certify=self.certify,
        )


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` integers in ``[lo, hi]``, one per equal-width stratum,
    in stratum order."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _certify_every_tenth(jobs: List[Job]) -> List[Job]:
    # A verdict certified now and then, as a campaign does, keeps the
    # witness layer (here the DRUP proof check) measured on every
    # workload, not only on bug-hunt.
    return [replace(job, certify=i % 10 == 0) for i, job in enumerate(jobs)]


def _deep_rob(rng: random.Random) -> List[Job]:
    # 70% register-register, 30% load-store; the widths take turns along
    # the ROB-size strata, so every width meets small and large ROBs.  At
    # these ROB sizes a load-store design 8 wide spends half its time in
    # encoding and SAT, so load-store widths stop at 4.
    jobs = []
    for family, count, lo, hi, widths in (
        ("reg-reg", 28, 16, 46, (1, 2, 4, 8)),
        ("mem", 12, 12, 26, (1, 2, 4)),
    ):
        for i, n_rob in enumerate(_strata(rng, lo, hi, count)):
            jobs.append(Job(family, n_rob, widths[i % len(widths)]))
    return _certify_every_tenth(jobs)


def _wide_issue(rng: random.Random) -> List[Job]:
    # Widths 6 to 15, each at four ROB sizes in [k, 2k]: the residual CNF
    # must come out identical at every N of one width.
    return _certify_every_tenth([
        Job("reg-reg", n_rob, k)
        for k in range(6, 16)
        for n_rob in _strata(rng, k, 2 * k, 4)
    ])


#: correct designs on which no reduction happens: branch families under
#: rewriting (the engine declines) and the Positive-Equality baseline,
#: also with the stronger case-split criterion.  Sizes stop where the
#: full formula takes about half a second to decide; the cheapest come
#: first.
PE = "positive_equality"
FULL_FORMULA_DESIGNS = (
    Job("reg-reg", 1, 1, method=PE, criterion="case_split"),
    Job("reg-reg", 1, 1, method=PE),
    Job("mem", 1, 1, method=PE, criterion="case_split"),
    Job("branch", 1, 1),
    Job("branch", 1, 1, method=PE),
    Job("mem", 1, 1, method=PE),
    Job("reg-reg", 2, 1, method=PE, criterion="case_split"),
    Job("mixed", 1, 1, method=PE),
    Job("mixed", 1, 1),
    Job("reg-reg", 2, 1, method=PE),
    Job("reg-reg", 2, 1, 2, method=PE, criterion="case_split"),
    Job("reg-reg", 2, 1, 2, method=PE),
    Job("branch", 2, 1, method=PE),
    Job("mem", 2, 1, method=PE, criterion="case_split"),
    Job("mem", 2, 1, 2, method=PE, criterion="case_split"),
    Job("branch", 2, 1),
    Job("mem", 2, 1, method=PE),
    Job("mem", 2, 1, 2, method=PE),
    Job("branch", 2, 1, 2, method=PE),
    Job("branch", 2, 1, 2),
)


def _full_formula(rng: random.Random) -> List[Job]:
    # The designs are fixed by the workload's purpose; the seed only sets
    # the order.  Fewer than 40 designs this small exist, so each runs
    # twice, the second time certified for the four cheapest: the 40
    # samples of p75 rest on 20 designs.
    return [
        replace(job, certify=copy == 1 and i < 4)
        for i, job in enumerate(FULL_FORMULA_DESIGNS) for copy in range(2)
    ]


def _bug(
    rng: random.Random, family: str, n_rob: int, k: int, kind: str,
    entry: int, retire: Optional[int] = None,
) -> Job:
    return Job(
        family, n_rob, k, retire, bug_kind=kind, bug_entry=entry,
        bug_operand=rng.choice((1, 2)), certify=True,
    )


#: bug kinds planted in the register-register design, each at one width
#: (fixed, so every seed's job costs spread alike).
REG_REG_BUGS = {
    "forward-wrong-source": 1,
    "forward-stale-result": 2,
    "execute-ignores-hazard": 4,
    "retire-without-result": 2,
    "retire-out-of-order": 4,
    "retire-ignores-valid": 1,
    "pc-single-increment": 2,
}


def _reg_reg_bug(rng: random.Random, kind: str, n: int, k: int, spot: float) -> Job:
    """A register-register bug placement; ``spot`` in [0, 1) says where in
    its allowed range the planted entry sits."""
    lo, hi = {
        "forward-stale-result": (3, n),
        "execute-ignores-hazard": (2, n),
        "retire-out-of-order": (2, k),
        "pc-single-increment": (1, 1),
    }.get(kind, (1, k))  # retire-without-result, retire-ignores-valid
    entry = lo + int(spot * (hi - lo + 1))
    if kind == "forward-wrong-source":
        entry = round(0.56 * n)  # the paper's entry 72 of 128
    return _bug(rng, "reg-reg", n, k, kind, entry)


def _bug_hunt(rng: random.Random) -> List[Job]:
    # 24 register-register placements, 6 load-store ones and one branch
    # bug, with 9 correct twins: about the quarter of correct designs a
    # bug hunt meets.  Every placement obeys answers.check_placement.
    #
    # One width per kind, so a kind's placements form a growth-exponent
    # group over N.  The register-register kinds take turns along one set
    # of ROB-size strata, so each gets small and large ROBs, and their
    # planted entries sit in the low, middle and high third of their
    # range in turn: the rewriting engine stops at the planted slice, so
    # a job's cost follows its entry, and every seed must get the same
    # spread of both.  The twins are of the second placement of each kind.
    kinds = list(REG_REG_BUGS)
    placed = []
    for i, n in enumerate(_strata(rng, 8, 36, 24)):
        kind = kinds[i % len(kinds)]
        third = (i // len(kinds)) % 3
        placed.append(_reg_reg_bug(
            rng, kind, n, REG_REG_BUGS[kind], (third + rng.random()) / 3
        ))
    jobs = placed + [job.twin() for job in placed[len(kinds):2 * len(kinds)]]

    # Load-store bugs at fixed widths for the same reason; the twin is of
    # the middle-sized placement.
    placed = [
        _bug(rng, "mem", n, k, "stale-load-forward", 3, retire=2)
        for k, n in zip((1, 2, 1), _strata(rng, 3, 8, 3))
    ]
    jobs += placed + [placed[1].twin()]
    placed = [
        _bug(rng, "mem", retire + extra, k, "store-order",
             rng.randint(2, retire), retire=retire)
        for (k, retire), extra in zip(((1, 2), (2, 3), (1, 3)), _strata(rng, 0, 5, 3))
    ]
    jobs += placed + [placed[1].twin()]

    # The branch bug is the one whose SAT counterexample the witness layer
    # reconstructs and minimizes (about half the pass).  One kind at one
    # operand only: wrong-path-retire costs as much again, and the second
    # operand about a tenth less, so drawing either would make the pass
    # time depend on the seed.
    jobs.append(Job("branch", 2, 1, bug_kind="dropped-flush", bug_entry=2,
                    certify=True))
    return jobs


WORKLOADS: Dict[str, object] = {
    "deep-rob": _deep_rob,
    "wide-issue": _wide_issue,
    "full-formula": _full_formula,
    "bug-hunt": _bug_hunt,
}

def draw(workload: str, seed: int) -> List[Job]:
    """The job list of ``workload`` for ``seed``, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
        )
    rng = random.Random(f"{seed}:{workload}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
