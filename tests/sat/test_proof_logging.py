"""DRUP proof logging in the CDCL solver, plus a hypothesis cross-check
of the solver against the exhaustive reference on random formulas."""

import random

from hypothesis import given, settings, strategies as st

from repro.sat import Cnf, solve_by_enumeration, solve_cnf
from repro.witness import DrupProof, check_drup


def _cnf(num_vars, clauses):
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestProofLogging:
    def test_logging_is_off_by_default(self):
        result = solve_cnf(_cnf(1, [[1], [-1]]))
        assert result.is_unsat
        assert result.proof is None

    def test_sat_formula_logs_no_empty_clause(self):
        result = solve_cnf(_cnf(2, [[1, 2]]), log_proof=True)
        assert result.is_sat
        assert all(step[1] != () for step in result.proof or [])

    def test_init_time_conflict_logs_empty_clause(self):
        # Contradictory units die in clause loading, before search.
        result = solve_cnf(_cnf(1, [[1], [-1]]), log_proof=True)
        assert result.is_unsat
        assert result.proof[-1] == ("a", ())

    def test_init_time_refutation_proof_checks(self):
        cnf = _cnf(1, [[1], [-1]])
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_unsat
        assert check_drup(cnf, DrupProof.from_solver_steps(result.proof)).ok

    def test_propagation_conflict_logs_empty_clause(self):
        result = solve_cnf(
            _cnf(3, [[1], [-1, 2], [-2, 3], [-3]]), log_proof=True
        )
        assert result.is_unsat
        assert result.proof[-1] == ("a", ())
        assert check_drup(
            _cnf(3, [[1], [-1, 2], [-2, 3], [-3]]),
            DrupProof.from_solver_steps(result.proof),
        ).ok

    def test_search_proof_has_learned_clauses(self):
        def var(i, j):
            return 1 + i * 2 + j

        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        cnf = _cnf(6, clauses)
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_unsat
        additions = [lits for op, lits in result.proof if op == "a"]
        assert additions[-1] == ()
        assert check_drup(cnf, DrupProof.from_solver_steps(result.proof)).ok


def _random_cnf(rng, num_vars, num_clauses, max_width):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, max_width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append(
            [var if rng.random() < 0.5 else -var for var in variables]
        )
    return _cnf(num_vars, clauses)


class TestCrossCheck:
    """Hypothesis property: the CDCL solver agrees with exhaustive
    enumeration, its models satisfy every clause individually, and its
    UNSAT proofs certify under the independent RUP checker."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_status_model_and_proof_agree(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 6)
        num_clauses = rng.randint(1, 24)
        cnf = _random_cnf(rng, num_vars, num_clauses, 3)
        expected = solve_by_enumeration(cnf)
        result = solve_cnf(cnf, log_proof=True)
        assert result.is_sat == (expected is not None)
        if result.is_sat:
            # Clause-by-clause: every clause has a satisfied literal
            # under the model (stronger diagnostics than a whole-formula
            # check when it fails).
            model = result.model
            for clause in cnf.clauses:
                assert any(
                    model.get(abs(lit)) is (lit > 0) for lit in clause
                ), f"clause {clause} unsatisfied by {model}"
        else:
            proof = DrupProof.from_solver_steps(result.proof)
            assert check_drup(cnf, proof).ok
