"""Repeated calls on :class:`repro.sat.Solver`: a budget-stopped call
resumed to the cold verdict, learned clauses kept across calls, per-call
DRUP certification, and the session pool behind
:func:`repro.sat.solve_cnf`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import (
    Cnf,
    SessionPool,
    Solver,
    cnf_digest,
    current_session_pool,
    solve_cnf,
    use_session_pool,
)
from repro.sat.solver import MAX_SESSIONS
from repro.witness import DrupProof, check_drup


def _cnf(num_vars, clauses):
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _php(pigeons, holes):
    """The pigeonhole principle: ``pigeons`` pigeons in ``holes`` holes,
    unsatisfiable whenever ``pigeons > holes``."""

    def var(pigeon, hole):
        return 1 + pigeon * holes + hole

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for hole in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, hole), -var(p2, hole)])
    return _cnf(pigeons * holes, clauses)


def _certifies(cnf, result):
    return check_drup(cnf, DrupProof.from_solver_steps(result.proof)).ok


# Random 3-CNFs near the satisfiability threshold, where a budget of one
# to three conflicts often stops the first call short of a verdict.
clause_strategy = st.lists(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=3,
    max_size=3,
)
cnf_strategy = st.lists(clause_strategy, min_size=30, max_size=50)


class TestResumedSearch:
    @settings(max_examples=150, deadline=None)
    @given(clauses=cnf_strategy, budget=st.integers(min_value=1, max_value=3))
    def test_budget_stopped_call_resumes_to_the_cold_verdict(
        self, clauses, budget
    ):
        cnf = _cnf(10, clauses)
        cold = solve_cnf(cnf)
        solver = Solver(cnf, log_proof=True)
        first = solver.solve(max_conflicts=budget)
        assert first.status in ("unknown", cold.status)
        assert first.conflicts <= budget
        resumed = solver.solve()
        assert resumed.status == cold.status
        if resumed.is_sat:
            assert cnf.check_assignment(resumed.model)
        else:
            assert _certifies(cnf, resumed)


class TestLearnedClausePersistence:
    def test_three_calls_share_learning_and_stay_sound(self):
        cnf = _php(5, 4)
        cold = solve_cnf(cnf)
        assert cold.is_unsat

        solver = Solver(cnf, log_proof=True)
        stopped = solver.solve(max_conflicts=10)
        assert stopped.status == "unknown"
        assert stopped.conflicts == 10
        resumed = solver.solve()
        assert resumed.is_unsat
        assert _certifies(cnf, resumed)
        # The resumed call keeps what the stopped one learned instead of
        # re-deriving it: it needs no more conflicts than a cold solve.
        assert resumed.conflicts <= cold.conflicts
        third = solver.solve()
        assert third.is_unsat
        assert third.conflicts == 0
        assert _certifies(cnf, third)

    def test_latched_unsat_is_instant_and_certifiable(self):
        cnf = _php(3, 2)
        solver = Solver(cnf, log_proof=True)
        first = solver.solve()
        assert first.is_unsat
        second = solver.solve()
        assert second.is_unsat
        assert second.conflicts == 0
        assert _certifies(cnf, second)

    def test_sat_model_is_complete_for_check_assignment(self):
        cnf = _cnf(3, [[1, 2], [-1, 3]])
        result = Solver(cnf).solve()
        assert result.is_sat
        assert cnf.check_assignment(result.model)


class TestMidSessionProofs:
    def test_every_call_proof_stands_alone(self):
        # Interleave budget-stopped and UNSAT calls; each UNSAT proof
        # must certify against the CNF on its own.
        cnf = _php(5, 4)
        solver = Solver(cnf, log_proof=True)

        stopped = solver.solve(max_conflicts=5)
        assert stopped.status == "unknown"
        assert not _certifies(cnf, stopped)
        stopped_steps = list(stopped.proof)

        first = solver.solve()
        assert first.is_unsat
        assert _certifies(cnf, first)
        first_steps = list(first.proof)
        # The stopped call's view is a prefix the journal grew past.
        assert first.proof[:len(stopped_steps)] == stopped_steps
        assert len(first.proof) > len(stopped_steps)

        again = solver.solve(max_conflicts=1)
        assert again.is_unsat
        assert _certifies(cnf, again)
        # Earlier results must be immune to later calls.
        assert stopped.proof == stopped_steps
        assert first.proof == first_steps
        assert _certifies(cnf, first)


CASES = [
    (2, [[1, 2]], "sat"),
    (1, [[1], [-1]], "unsat"),
    (3, [[1], [-1, 2], [-2, 3], [-3]], "unsat"),
    (3, [[1, 2], [-1, 3], [-2, 3]], "sat"),
]


def _pooled(pool, cnf, **kwargs):
    """``solve_cnf`` with ``pool`` installed as the ambient pool."""
    with use_session_pool(pool):
        return solve_cnf(cnf, **kwargs)


class TestSessionPool:
    def test_digest_is_content_addressed(self):
        a = _cnf(3, [[1, 2], [-1, 3]])
        b = _cnf(3, [[1, 2], [-1, 3]])
        c = _cnf(3, [[1, 2], [-1, -3]])
        assert cnf_digest(a) == cnf_digest(b)
        assert cnf_digest(a) != cnf_digest(c)

    def test_hits_misses_and_resume(self):
        pool = SessionPool()
        cnf = _php(3, 2)
        first = _pooled(pool, cnf)
        second = _pooled(pool, cnf)
        assert first.is_unsat and second.is_unsat
        assert pool.misses == 1
        assert pool.hits == 1
        # The resumed call rides the latched verdict: no new conflicts.
        assert second.conflicts == 0

    def test_proof_and_plain_sessions_are_distinct(self):
        pool = SessionPool()
        cnf = _cnf(2, [[1, 2]])
        assert _pooled(pool, cnf).proof is None
        assert _pooled(pool, cnf, log_proof=True).proof is not None
        assert pool.misses == 2

    def test_lru_eviction(self):
        pool = SessionPool()
        cnfs = [_cnf(2 + n, [[1, 2]]) for n in range(MAX_SESSIONS + 1)]
        for cnf in cnfs:
            _pooled(pool, cnf)
        assert len(pool) == MAX_SESSIONS
        assert pool.evictions == 1
        # The oldest digest was evicted; touching it is a miss again.
        _pooled(pool, cnfs[0])
        assert pool.misses == MAX_SESSIONS + 2

    def test_ambient_pool_scope(self):
        assert current_session_pool() is None
        pool = SessionPool()
        with use_session_pool(pool):
            assert current_session_pool() is pool
        assert current_session_pool() is None

    @pytest.mark.parametrize("num_vars, clauses, status", CASES)
    def test_pooled_verdicts_match_cold(self, num_vars, clauses, status):
        cnf = _cnf(num_vars, clauses)
        pool = SessionPool()
        assert solve_cnf(cnf).status == status
        assert _pooled(pool, cnf).status == status
        # A resumed session keeps giving the same verdict.
        assert _pooled(pool, cnf).status == status
        assert pool.hits == 1

    def test_pooled_solve_logs_proofs(self):
        cnf = _cnf(1, [[1], [-1]])
        result = _pooled(SessionPool(), cnf, log_proof=True)
        assert result.is_unsat
        assert result.proof[-1] == ("a", ())
        assert check_drup(cnf, DrupProof.from_solver_steps(result.proof)).ok
