"""Injectable design defects for the buggy-processor experiments.

The paper's experiment (Sect. 7.2) plants a bug "in the forwarding logic
for one of the data operands of the 72nd instruction in the ROB" of a
128-entry design and shows the rewriting rules flag the offending
computation slice in seconds, while the Positive-Equality-only flow runs
out of memory.  This module defines that bug plus a family of related
control defects, all of which must be caught by verification.

The branch and load-store workload families
(:mod:`repro.processor.families`) add four defect classes of their own:
wrong-path retirement, a dropped misprediction flush, stale store-to-load
forwarding, and out-of-program-order store commit.  Those kinds only make
sense in a design that actually hosts the corresponding logic, so
:meth:`Bug.check` rejects, say, a ``stale-load-forward`` bug in a
``reg-reg`` configuration instead of silently verifying an unbugged
design; it equally rejects any bug planted in a slice or slot where the
defect changes nothing.  The processor builder and the service's request
parser both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Bug", "BugKind", "forwarding_bug"]


class BugKind:
    """Enumeration of supported defect classes."""

    #: the forwarding comparator of one operand of one entry matches the
    #: wrong source field (the paper's experiment).
    FORWARD_WRONG_SOURCE = "forward-wrong-source"
    #: forwarding of one operand of one entry takes the Result of the
    #: *previous* matching entry instead of the latest one.
    FORWARD_STALE_RESULT = "forward-stale-result"
    #: an entry may execute even when an operand is not yet available,
    #: reading a stale value from the Register File.
    EXECUTE_IGNORES_HAZARD = "execute-ignores-hazard"
    #: the retirement condition omits the ValidResult check, retiring (and
    #: writing back) an uncomputed result.
    RETIRE_WITHOUT_RESULT = "retire-without-result"
    #: retirement is not in program order: the chain condition on earlier
    #: retirements is dropped for one entry.
    RETIRE_OUT_OF_ORDER = "retire-out-of-order"
    #: the Register-File write at retirement ignores the Valid bit.
    RETIRE_IGNORES_VALID = "retire-ignores-valid"
    #: the PC is incremented once regardless of how many instructions were
    #: fetched.
    PC_SINGLE_INCREMENT = "pc-single-increment"
    #: (branch families) one retirement slot drops the wrong-path guard:
    #: the entry retires — and writes back — in the same cycle an older
    #: mispredicted branch retires, even though it sits on the wrong path.
    WRONG_PATH_RETIRE = "wrong-path-retire"
    #: (branch families) the ROB-flush recovery skips one entry: its Valid
    #: bit survives the squash after an older branch retires mispredicted,
    #: so the wrong-path instruction later completes and corrupts state.
    DROPPED_FLUSH = "dropped-flush"
    #: (memory families) the store-to-load forwarding of one load entry
    #: returns the data of the *previous* matching store instead of the
    #: latest preceding one.
    STALE_LOAD_FORWARD = "stale-load-forward"
    #: (memory families) the data-memory commit of one retirement slot is
    #: sequenced before its older neighbor's, letting a younger store
    #: reach memory before an older one to the same address (needs
    #: ``entry >= 2`` and ``retire_width >= entry``).
    STORE_ORDER = "store-order"

    ALL = (
        FORWARD_WRONG_SOURCE,
        FORWARD_STALE_RESULT,
        EXECUTE_IGNORES_HAZARD,
        RETIRE_WITHOUT_RESULT,
        RETIRE_OUT_OF_ORDER,
        RETIRE_IGNORES_VALID,
        PC_SINGLE_INCREMENT,
        WRONG_PATH_RETIRE,
        DROPPED_FLUSH,
        STALE_LOAD_FORWARD,
        STORE_ORDER,
    )

    #: kinds whose defect logic only exists when the family has branches.
    NEEDS_BRANCHES = (WRONG_PATH_RETIRE, DROPPED_FLUSH)
    #: kinds whose defect logic only exists when the family has memory.
    NEEDS_MEMORY = (STALE_LOAD_FORWARD, STORE_ORDER)


@dataclass(frozen=True)
class Bug:
    """A planted defect.

    Attributes:
        kind: one of :class:`BugKind`.
        entry: 1-based ROB entry the defect applies to (where relevant).
        operand: 1 or 2, the data operand affected (forwarding defects).
    """

    kind: str
    entry: int = 1
    operand: int = 1

    def __post_init__(self) -> None:
        if self.kind not in BugKind.ALL:
            raise ValueError(f"unknown bug kind {self.kind!r}")
        if self.entry < 1:
            raise ValueError("bug entry is 1-based")
        if self.operand not in (1, 2):
            raise ValueError("operand must be 1 or 2")

    def check_family(self, family) -> None:
        """Reject a defect the given family's logic cannot express.

        Args:
            family: a :class:`repro.processor.families.Family`.

        Raises:
            ValueError: when the bug targets branch (or memory) logic and
                the family has none — planting it would be a silent no-op
                and the "buggy" design would verify PROVED.
        """
        if self.kind in BugKind.NEEDS_BRANCHES and not family.has_branches:
            raise ValueError(
                f"bug {self.kind!r} targets branch logic, but family "
                f"{family.name!r} has no branches"
            )
        if self.kind in BugKind.NEEDS_MEMORY and not family.has_memory:
            raise ValueError(
                f"bug {self.kind!r} targets load-store logic, but family "
                f"{family.name!r} has no data memory"
            )

    def check(self, config) -> None:
        """Reject a defect planted where ``config``'s design has no logic
        for it: a family without the targeted logic
        (:meth:`check_family`), or a slice or slot below which the defect
        changes nothing.  Either way the "buggy" design would verify as
        correct.

        Args:
            config: a :class:`repro.processor.params.ProcessorConfig`.

        Raises:
            ValueError: naming the bug and where it could be planted.
        """
        self.check_family(config.family_spec)
        n, k, l = config.n_rob, config.issue_width, config.retire_width
        if self.kind == BugKind.PC_SINGLE_INCREMENT:
            if k < 2:
                raise ValueError(
                    f"bug {self.kind!r} needs issue width >= 2: it drops "
                    "the second NextPC of a fetch group"
                )
            return
        producer = "execution slices with an older producer"
        producers = "execution slices with two older producers"
        retirement = "retirement slots"
        neighbour = "retirement slots after the first"
        low, high, where = {
            BugKind.FORWARD_WRONG_SOURCE: (2, n, producer),
            BugKind.EXECUTE_IGNORES_HAZARD: (2, n, producer),
            BugKind.FORWARD_STALE_RESULT: (3, n, producers),
            BugKind.STALE_LOAD_FORWARD: (3, n, producers),
            BugKind.RETIRE_WITHOUT_RESULT: (1, l, retirement),
            BugKind.RETIRE_IGNORES_VALID: (1, l, retirement),
            BugKind.RETIRE_OUT_OF_ORDER: (2, l, neighbour),
            BugKind.STORE_ORDER: (2, l, neighbour),
            BugKind.WRONG_PATH_RETIRE: (2, l, neighbour),
            BugKind.DROPPED_FLUSH: (2, n + k, "slots with an older entry"),
        }[self.kind]
        if not low <= self.entry <= high:
            raise ValueError(
                f"bug {self.kind!r} at entry {self.entry} would change "
                f"nothing: this design plants it in {where}, "
                f"{low} <= entry <= {high}"
            )

    def describe(self) -> str:
        return f"{self.kind} at ROB entry {self.entry}, operand {self.operand}"


def forwarding_bug(entry: int, operand: int = 1) -> Bug:
    """The paper's experiment: broken forwarding for one operand of one
    entry (entry 72 of a 128-entry ROB in the paper)."""
    return Bug(BugKind.FORWARD_WRONG_SOURCE, entry=entry, operand=operand)
