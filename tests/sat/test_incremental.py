"""Incremental assumption-based solving on :class:`repro.sat.Solver`:
equivalence with monolithic solving, learned-clause soundness across
calls, mid-session DRUP certification, failed-assumption cores, and the
session pool behind :func:`repro.sat.solve_cnf`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.sat import (
    Cnf,
    SessionPool,
    Solver,
    cnf_digest,
    current_session_pool,
    solve_by_enumeration,
    solve_cnf,
    use_session_pool,
)
from repro.witness import DrupProof, check_drup, cnf_with_assumptions


def _cnf(num_vars, clauses):
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _monolithic(cnf, assumptions):
    """Cold-solve ``cnf`` with the assumptions baked in as units."""
    return solve_cnf(cnf_with_assumptions(cnf, assumptions))


# A small pigeonhole-style UNSAT core: 3 pigeons, 2 holes.
def _php32():
    def var(pigeon, hole):
        return 1 + pigeon * 2 + hole

    clauses = [[var(p, 0), var(p, 1)] for p in range(3)]
    for hole in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                clauses.append([-var(p1, hole), -var(p2, hole)])
    return _cnf(6, clauses)


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1,
    max_size=4,
)
cnf_strategy = st.lists(clause_strategy, min_size=1, max_size=12)
assumptions_strategy = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    max_size=3,
    unique_by=abs,
)


class TestAssumptionEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(clauses=cnf_strategy, assumptions=assumptions_strategy)
    def test_matches_monolithic_units(self, clauses, assumptions):
        cnf = _cnf(5, clauses)
        expected = _monolithic(cnf, assumptions)
        result = Solver(cnf).solve(assumptions=assumptions)
        assert result.status == expected.status
        if result.is_sat:
            assert cnf.check_assignment(result.model)
            for lit in assumptions:
                assert result.model[abs(lit)] == (lit > 0)

    @settings(max_examples=60, deadline=None)
    @given(clauses=cnf_strategy, assumptions=assumptions_strategy)
    def test_matches_exhaustive_reference(self, clauses, assumptions):
        cnf = _cnf(5, clauses)
        witness = solve_by_enumeration(cnf_with_assumptions(cnf, assumptions))
        result = Solver(cnf).solve(assumptions=assumptions)
        assert result.status == ("sat" if witness is not None else "unsat")

    def test_assumption_out_of_range_raises(self):
        solver = Solver(_cnf(2, [[1, 2]]))
        try:
            solver.solve(assumptions=[7])
        except SolverError:
            pass
        else:
            raise AssertionError("expected SolverError")

    def test_core_names_responsible_assumptions(self):
        # 1 and 2 force 3; assuming -3 alongside an irrelevant 4 must
        # produce a core that mentions only the responsible literals.
        cnf = _cnf(4, [[-1, -2, 3]])
        result = Solver(cnf).solve(assumptions=[1, 2, -3, 4])
        assert result.is_unsat
        assert result.core is not None
        assert set(result.core) <= {1, 2, -3}
        assert -3 in result.core
        # The core alone is already unsatisfiable with the CNF.
        recheck = Solver(cnf).solve(assumptions=result.core)
        assert recheck.is_unsat

    def test_failed_assumptions_do_not_latch_unsat(self):
        cnf = _cnf(2, [[1, 2]])
        solver = Solver(cnf)
        assert solver.solve(assumptions=[-1, -2]).is_unsat
        # The CNF itself is still satisfiable afterwards.
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[1]).is_sat


class TestLearnedClausePersistence:
    def test_three_calls_share_learning_and_stay_sound(self):
        cnf = _php32()
        solver = Solver(cnf, log_proof=True)
        cold = solve_cnf(cnf)
        assert cold.is_unsat

        outcomes = []
        for assumptions in ([1], [2, 4], []):
            result = solver.solve(assumptions=assumptions)
            outcomes.append(result)
            expected = _monolithic(cnf, assumptions)
            assert result.status == expected.status == "unsat"
            proof = DrupProof.from_solver_steps(result.proof)
            assert check_drup(
                cnf_with_assumptions(cnf, assumptions), proof
            ).ok
        # Later calls resume the learned clause database instead of
        # re-deriving it: total conflicts must not grow per call.
        assert outcomes[2].conflicts <= cold.conflicts

    def test_latched_unsat_is_instant_and_certifiable(self):
        cnf = _php32()
        solver = Solver(cnf, log_proof=True)
        first = solver.solve()
        assert first.is_unsat
        second = solver.solve(assumptions=[1])
        assert second.is_unsat
        assert second.conflicts == 0
        assert check_drup(
            cnf, DrupProof.from_solver_steps(second.proof)
        ).ok

    def test_add_clause_between_calls(self):
        solver = Solver(_cnf(2, [[1, 2]]))
        assert solver.solve(assumptions=[-1]).is_sat
        assert solver.add_clause([-2])
        result = solver.solve(assumptions=[-1])
        assert result.is_unsat
        assert solver.solve(assumptions=[1]).is_sat

    def test_add_clause_before_the_first_call(self):
        solver = Solver(Cnf(num_vars=2))
        assert solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.is_sat
        assert result.model[2] is True
        result = solver.solve(assumptions=[-1, -2])
        assert result.is_unsat
        assert result.core is not None

    def test_sat_model_is_complete_for_check_assignment(self):
        cnf = _cnf(3, [[1, 2], [-1, 3]])
        result = Solver(cnf).solve()
        assert result.is_sat
        assert cnf.check_assignment(result.model)


class TestMidSessionProofs:
    def test_every_call_proof_stands_alone(self):
        # Interleave assumption-unsat, sat, and real-unsat calls; each
        # UNSAT proof must certify against its own per-call view.
        cnf = _cnf(3, [[1, 2], [-1, 3], [-2, 3]])
        solver = Solver(cnf, log_proof=True)

        r1 = solver.solve(assumptions=[-3])
        assert r1.is_unsat
        assert check_drup(
            cnf_with_assumptions(cnf, [-3]),
            DrupProof.from_solver_steps(r1.proof),
        ).ok

        r2 = solver.solve(assumptions=[3])
        assert r2.is_sat

        r3 = solver.solve(assumptions=[-3, 1])
        assert r3.is_unsat
        assert check_drup(
            cnf_with_assumptions(cnf, [-3, 1]),
            DrupProof.from_solver_steps(r3.proof),
        ).ok
        # Earlier results must be immune to later journal growth.
        assert check_drup(
            cnf_with_assumptions(cnf, [-3]),
            DrupProof.from_solver_steps(r1.proof),
        ).ok

    def test_tautological_assumption_pair(self):
        cnf = _cnf(2, [[1, 2]])
        result = Solver(cnf, log_proof=True).solve(
            assumptions=[1, -1]
        )
        assert result.is_unsat
        assert check_drup(
            cnf_with_assumptions(cnf, [1, -1]),
            DrupProof.from_solver_steps(result.proof),
        ).ok


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
        pool = SessionPool(max_sessions=4)
        cnf = _php32()
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
        pool = SessionPool(max_sessions=2)
        cnfs = [_cnf(2, [[1, 2]]), _cnf(2, [[-1, 2]]), _cnf(2, [[1, -2]])]
        for cnf in cnfs:
            _pooled(pool, cnf)
        assert len(pool) == 2
        assert pool.evictions == 1
        # The oldest digest was evicted; touching it is a miss again.
        _pooled(pool, cnfs[0])
        assert pool.misses == 4

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
