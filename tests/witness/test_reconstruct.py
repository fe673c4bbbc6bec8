"""Tests for term-level counterexample reconstruction and replay."""

from collections import Counter
from dataclasses import replace

import pytest

from repro import ProcessorConfig, verify
from repro.encode import check_validity
from repro.errors import WitnessError
from repro.eufm import (
    and_, bvar, eq, evaluator, implies, ite_term, not_, or_, traversal, tvar,
    uf, up,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.processor import Bug
from repro.witness import reconstruct_counterexample, replay_assignment


def _falsify(phi, **kwargs):
    """Check validity, assert invalid, return (encoded, counterexample)."""
    result = check_validity(phi, **kwargs)
    assert not result.valid
    assert result.counterexample is not None
    return result.encoded, result.counterexample


class TestPropositional:
    def test_replay_is_false(self):
        encoded, cex = _falsify(implies(bvar("p"), bvar("q")))
        assert replay_assignment(encoded, cex) is False

    def test_reconstruction_shape(self):
        encoded, cex = _falsify(implies(bvar("p"), bvar("q")))
        rebuilt = reconstruct_counterexample(encoded, cex)
        assert rebuilt.replay_value is False
        assert rebuilt.bool_values["p"] is True
        assert rebuilt.bool_values["q"] is False
        assert rebuilt.uf_tables == {}
        assert rebuilt.replayed_false

    def test_minimization_drops_dont_cares(self):
        # not(p) v not(q) v r: falsified only by p=q=True, r=False; the
        # CNF also mentions an irrelevant variable s on a satisfied
        # branch which minimization may discard but never needs.
        phi = or_(not_(bvar("p")), not_(bvar("q")), bvar("r"),
                  and_(bvar("s"), not_(bvar("s"))))
        encoded, cex = _falsify(phi)
        rebuilt = reconstruct_counterexample(encoded, cex)
        assert rebuilt.replayed_false
        assert rebuilt.minimized_size <= rebuilt.raw_size
        assert set(rebuilt.minimized) <= {"p", "q", "r", "s"}
        assert rebuilt.minimized["p"] is True
        assert rebuilt.minimized["q"] is True

    def test_minimize_false_keeps_minimized_empty(self):
        encoded, cex = _falsify(implies(bvar("p"), bvar("q")))
        rebuilt = reconstruct_counterexample(encoded, cex, minimize=False)
        assert rebuilt.minimized == {}
        assert rebuilt.minimized_replay_value is None
        assert not rebuilt.replayed_false


class TestTermLevel:
    def test_congruence_counterexample(self):
        # f(x) = f(y) -> x = y is invalid; the reconstruction must merge
        # the two fresh f-application variables while keeping the
        # p-variables x and y apart.
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        encoded, cex = _falsify(phi)
        rebuilt = reconstruct_counterexample(encoded, cex)
        assert rebuilt.replayed_false
        assert rebuilt.term_values["x"] != rebuilt.term_values["y"]
        merged = [group for group in rebuilt.classes if len(group) > 1]
        assert len(merged) == 1
        assert all(name.startswith("vc!f!") for name in merged[0])
        # The two table rows for f land on the same result value.
        results = {value for _, value in rebuilt.uf_tables["f"]}
        assert len(results) == 1

    def test_distinct_values_per_class(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        encoded, cex = _falsify(phi)
        rebuilt = reconstruct_counterexample(encoded, cex)
        roots = {min(group) for group in rebuilt.classes}
        values = {rebuilt.term_values[root] for root in roots}
        assert len(values) == len(rebuilt.classes)
        assert rebuilt.domain_size == len(rebuilt.classes)

    def test_predicate_counterexample(self):
        # P(x) -> P(y) is invalid; the synthesized UP table must give
        # P(x) = True, P(y) = False.
        x, y = tvar("x"), tvar("y")
        phi = implies(up("P", [x]), up("P", [y]))
        encoded, cex = _falsify(phi)
        rebuilt = reconstruct_counterexample(encoded, cex)
        assert rebuilt.replayed_false
        table = dict(rebuilt.up_tables["P"])
        assert table[(rebuilt.term_values["x"],)] is True
        assert table[(rebuilt.term_values["y"],)] is False

    def test_disagreements_name_the_broken_equation(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        encoded, cex = _falsify(phi)
        rebuilt = reconstruct_counterexample(encoded, cex)
        assert any("(= x y)" in text for text in rebuilt.disagreements)

    def test_replay_rejects_wrong_model(self):
        # Flipping the model of p must make the formula true again.
        encoded, cex = _falsify(implies(bvar("p"), bvar("q")))
        wrong = dict(cex)
        wrong["p"] = False
        assert replay_assignment(encoded, wrong) is True


class TestRendering:
    def _rebuilt(self):
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        encoded, cex = _falsify(phi)
        return reconstruct_counterexample(encoded, cex)

    def test_render_mentions_tables_and_classes(self):
        text = self._rebuilt().render()
        assert "equal term classes" in text
        assert "UF f:" in text
        assert "replays to False" in text

    def test_summary_dict_is_json_safe(self):
        import json

        summary = self._rebuilt().summary_dict()
        assert summary["replay_value"] is False
        assert summary["minimized_size"] <= summary["raw_size"]
        json.dumps(summary)


class TestProvenanceArguments:
    @pytest.mark.parametrize("application", [
        uf("g", [tvar("x")]), up("Q", [tvar("x")]),
    ], ids=["uf", "up"])
    def test_argument_holding_an_application_is_refused(self, application):
        # The arguments are evaluated in one pass before any table entry
        # is pinned; an application among them would read a table that
        # pass is still building, so reconstruction refuses it.
        x, y = tvar("x"), tvar("y")
        phi = implies(eq(uf("f", [x]), uf("f", [y])), eq(x, y))
        encoded, cex = _falsify(phi)
        fresh = encoded.uf_elim.fresh_term_vars[0]
        if application.is_term():
            argument = application
        else:
            argument = ite_term(application, x, y)
        provenance = {**encoded.uf_elim.provenance, fresh: ("f", (argument,))}
        broken = replace(
            encoded, uf_elim=replace(encoded.uf_elim, provenance=provenance)
        )
        with pytest.raises(WitnessError, match="provenance argument"):
            reconstruct_counterexample(broken, cex)
        with pytest.raises(WitnessError, match="provenance argument"):
            replay_assignment(broken, cex)


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestReplayCost:
    def test_dag_walks_do_not_grow_with_the_assignment(self, monkeypatch):
        # Minimization replays the formula up to twice per model
        # variable, yet every DAG walk and memory-sort inference happens
        # once per encoding: branch N=2 and N=3 (87 and 126 model
        # variables) make the same number of them.
        walks = {}
        for n_rob in (2, 3):
            result = verify(
                ProcessorConfig(n_rob, 1, family="branch"),
                bug=Bug("dropped-flush", entry=2),
            )
            encoded = result.validity.encoded
            assignment = result.validity.counterexample
            calls = Counter()
            with monkeypatch.context() as patch:
                for module in (evaluator, traversal):
                    _count_calls(patch, module, "iter_dag", calls)
                _count_calls(patch, evaluator, "infer_memory_sorts", calls)
                tracer = Tracer()
                with use_tracer(tracer), tracer.span("test"):
                    cex = reconstruct_counterexample(encoded, assignment)
            assert cex.replayed_false
            minimize = tracer.root.find("witness.minimize").counters
            assert minimize["witness.raw_vars"] == cex.raw_size
            assert 0 < minimize["witness.replays"] <= 2 * cex.raw_size + 1
            walks[n_rob] = (dict(calls), cex.raw_size)
        (walks_2, vars_2), (walks_3, vars_3) = walks[2], walks[3]
        assert vars_2 < vars_3
        assert walks_2 == walks_3
