"""A fixed probe of how fast the host runs Python right now.

The benchmark shares a few cores of a host with other tenants, and their
load makes the same Python code run up to 1.5-1.8 times slower, switching
between fast and slow within a second and for minutes at a time.  Raw
wall times therefore move with the neighbours as much as with the code
under test.  The worker probes the host next to every timed job and,
through a :class:`Sampler`, every 50 ms during it; ``run.py`` divides
each job's wall time by the mean of those probes and reports the result
in *reference seconds*: what the job would take on a host where a probe
takes ``REFERENCE_S``.

The probe runs a miniature of the verifier's own kinds of work, so that
host load slows it about as much as it slows ``verify()``:

* a hash-consed DAG of slotted nodes with Python-level ``__hash__`` (the
  EUFM intern table), evaluated by memoized recursion (simulation and
  rewriting);
* tuple-keyed memo tables (encoding);
* unit propagation and backtracking over clause lists (the SAT solver);
* JSON, regular expressions and sorting (witness and report code).

The probe imports nothing from ``repro``, so no change to the verifier
changes its time, and it runs with the collector off, so no collector
setting the verifier makes does either.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import re
import signal
import time
from typing import Dict, List, Tuple

__all__ = ["REFERENCE_S", "Sampler", "probe"]

#: what one probe takes on a quiet 2-vCPU x86-64 VM with Python 3.11;
#: reported times are wall times rescaled to a host this fast.
REFERENCE_S = 0.0007


class _Node:
    __slots__ = ("uid", "op", "kids")

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other


def _dag(rng: random.Random, size: int) -> List[_Node]:
    table: Dict[Tuple, _Node] = {}
    uid = itertools.count(1)
    nodes: List[_Node] = []
    for i in range(size):
        if i < 24:
            op, kids = "leaf", (i,)
        else:
            op = ("f", "g", "ite", "eq")[rng.randrange(4)]
            kids = tuple(
                nodes[-1 - int(rng.random() ** 2 * len(nodes))]
                for _ in range(rng.choice((1, 2, 3)))
            )
        key = (op,) + kids
        node = table.get(key)
        if node is None:
            node = object.__new__(_Node)
            node.uid, node.op, node.kids = next(uid), op, kids
            table[key] = node
        nodes.append(node)
    return nodes


def _evaluate(roots: List[_Node], leaf_bits: int) -> int:
    memo: Dict[_Node, int] = {}

    def value(node: _Node) -> int:
        known = memo.get(node)
        if known is None:
            if node.op == "leaf":
                known = (leaf_bits >> node.kids[0]) & 1
            else:
                kids = [value(kid) for kid in node.kids]
                known = kids[-1] if node.op == "ite" else (sum(kids) + len(node.op)) & 1
            memo[node] = known
        return known

    return sum(value(root) for root in roots)


def _pairs(rng: random.Random, size: int) -> int:
    memo: Dict[Tuple[str, int, int], int] = {}
    total = 0
    for i in range(size):
        key = ("op%d" % (i % 5), rng.randrange(size), rng.randrange(size))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (key[1] * 31 + key[2]) & 0xFFFF
        total += hit
    return total


def _search(rng: random.Random, n_vars: int, n_clauses: int, budget: int) -> int:
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(3)]
        for _ in range(n_clauses)
    ]
    watches: Dict[int, List[int]] = {}
    for index, clause in enumerate(clauses):
        for lit in clause[:2]:
            watches.setdefault(lit, []).append(index)
    calls = 0

    def solve(assign: List[int], trail: List[int]) -> bool:
        nonlocal calls
        calls += 1
        if calls > budget:
            return True
        head = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            for index in watches.get(-lit, ()):
                free, n_free = 0, 0
                for other in clauses[index]:
                    value = assign[abs(other)]
                    if value == 0:
                        free, n_free = other, n_free + 1
                    elif (value > 0) == (other > 0):
                        break
                else:
                    if n_free == 0:
                        return False
                    if n_free == 1:
                        assign[abs(free)] = 1 if free > 0 else -1
                        trail.append(free)
        for var in range(1, n_vars + 1):
            if assign[var] == 0:
                for lit in (var, -var):
                    branch = list(assign)
                    branch[var] = 1 if lit > 0 else -1
                    if solve(branch, [lit]):
                        return True
                return False
        return True

    solve([0] * (n_vars + 1), [])
    return calls


_REPORT = {
    "k%d" % i: [i, str(i), {"a": i * 0.5, "b": [None, True, "s" * (i % 5)]}]
    for i in range(15)
}
_TEXT = " ".join("word%d, x%d = y%d + %d;" % (i, i % 7, i % 11, i) for i in range(30))


def _report() -> int:
    data = json.loads(json.dumps(_REPORT, sort_keys=True))
    words = re.findall(r"[a-z]+\d+", _TEXT)
    ranked = sorted(data.items(), key=lambda item: (item[1][0] % 13, item[0]))
    text = "".join("%s=%r;" % (key, value[0]) for key, value in ranked)
    return len(words) + len(text)


def _work() -> int:
    rng = random.Random(20240601)
    nodes = _dag(rng, 120)
    checksum = _evaluate(nodes[-3:], 0x5A5A5A)
    checksum += _pairs(rng, 120)
    checksum += _search(rng, 20, 85, 30)
    return checksum + _report()


def probe() -> float:
    """Wall time of one fixed unit of work, in seconds, with the
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes the host every ``interval`` seconds of wall time while
    running, from a ``SIGALRM`` handler, so a long job is measured
    together with the host speed *during* it.

    The host changes speed within a second: a job of two seconds can run
    fast at both ends and slow in between, and probes next to it say
    nothing of that.  ``samples`` holds ``(start, seconds)`` of every
    probe since ``start()``; the time they took is inside any wall time
    measured across them, and the caller subtracts it.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
