"""The rule checker: the registry is sound, confluent and terminating,
and unsound rules are caught.

Soundness fixtures are single rules (``analyze_rules([spec])``).  For
confluence and termination the known-good fixture is the real registry:
every critical pair must join (syntactically or semantically) and no
rule may diverge.  The known-bad fixture registers a deliberately
unsound forwarding rule — ``read(write(m, a, d), b) -> d`` without the
``a = b`` case split — whose overlap with the correct forwarding rule
produces reducts that differ under a concrete interpretation.
"""

from repro.analysis import (
    ERROR,
    REGISTRY,
    RuleInstance,
    RuleSpec,
    analyze_rules,
)
from repro.analysis import rules
from repro.analysis.rules import critical_pairs, rule_measure, unify
from repro.eufm import builder
from repro.eufm.evaluator import Interpretation, evaluate


def errors(diagnostics):
    return [d for d in diagnostics if d.severity == ERROR]


def checks(diagnostics):
    return {d.check for d in diagnostics}


class TestRegistry:
    def test_every_registered_rule_is_sound(self):
        findings = analyze_rules()
        assert not errors(findings), [d.render() for d in findings]
        verified = {
            d.subject for d in findings
            if d.check in ("rules.verified",
                           "rules.identity-after-normalization")
        }
        assert verified == {spec.name for spec in REGISTRY}

    def test_verified_findings_report_interpretation_counts(self):
        for spec in REGISTRY:
            findings = analyze_rules([spec])
            for diag in findings:
                if diag.check == "rules.verified":
                    assert diag.data["interpretations"] > 0


def _unsound_drop_address_check():
    """read(write(m, a, d), b) -> d: ignores that a may differ from b."""
    m, a = builder.tvar("bad!m"), builder.tvar("bad!a")
    b, d = builder.tvar("bad!b"), builder.tvar("bad!d")
    lhs = builder.read(builder.write(m, a, d), b)
    return RuleInstance(
        lhs=lhs, rhs=d,
        pattern_vars=("bad!m", "bad!a", "bad!b", "bad!d"),
    )


UNSOUND_SPEC = RuleSpec(
    name="drop-address-check",
    description="deliberately unsound: forwards without comparing addresses",
    build=_unsound_drop_address_check,
)


class TestUnsoundRuleDetection:
    def test_unsound_rewrite_is_reported_with_witness(self):
        findings = analyze_rules([UNSOUND_SPEC])
        unsound = [d for d in findings if d.check == "rules.unsound-rewrite"]
        assert len(unsound) == 1
        diag = unsound[0]
        assert diag.severity == ERROR
        assert diag.subject == "drop-address-check"
        witness = diag.data
        assert witness["term_values"]["bad!a"] != witness["term_values"]["bad!b"]

    def test_witness_replays_concretely(self):
        instance = UNSOUND_SPEC.build()
        diag = next(
            d for d in analyze_rules([UNSOUND_SPEC])
            if d.check == "rules.unsound-rewrite"
        )
        interp = Interpretation(
            domain_size=diag.data["domain_size"],
            seed=diag.data["seed"],
            term_values=dict(diag.data["term_values"]),
            bool_values=dict(diag.data["bool_values"]),
        )
        equivalence = builder.eq(instance.lhs, instance.rhs)
        assert evaluate(equivalence, interp) is False


class TestStaticChecks:
    def test_rhs_inventing_a_variable_is_error(self):
        spec = RuleSpec(
            name="invent", description="", build=lambda: RuleInstance(
                lhs=builder.tvar("s!x"),
                rhs=builder.tvar("s!ghost"),
                pattern_vars=("s!x",),
            ),
        )
        assert "rules.rhs-invents-variable" in checks(analyze_rules([spec]))

    def test_unbound_pattern_variable_is_error(self):
        spec = RuleSpec(
            name="unbound", description="", build=lambda: RuleInstance(
                lhs=builder.tvar("s!x"),
                rhs=builder.tvar("s!x"),
                pattern_vars=("s!x", "s!never"),
            ),
        )
        assert "rules.unbound-pattern-var" in checks(analyze_rules([spec]))

    def test_nonlinear_pattern_is_error(self):
        spec = RuleSpec(
            name="nonlinear", description="", build=lambda: RuleInstance(
                lhs=builder.tvar("s!x"),
                rhs=builder.tvar("s!x"),
                pattern_vars=("s!x", "s!x"),
            ),
        )
        assert "rules.nonlinear-pattern" in checks(analyze_rules([spec]))

    def test_dropped_guard_is_error(self):
        g = builder.bvar("s!g")
        t = builder.tvar("s!t")
        e = builder.tvar("s!e")
        spec = RuleSpec(
            name="drops-guard", description="", build=lambda: RuleInstance(
                lhs=builder.ite_term(g, t, e),
                rhs=builder.ite_term(g, t, e),
                pattern_vars=("s!g", "s!t", "s!e"),
                guards=(builder.bvar("s!other"),),
            ),
        )
        assert "rules.guard-dropped" in checks(analyze_rules([spec]))

    def test_capture_into_general_position_is_error(self):
        # LHS uses x positively; the RHS moves it into a negated equation.
        x, y = builder.tvar("s!x"), builder.tvar("s!y")
        spec = RuleSpec(
            name="captures", description="", build=lambda: RuleInstance(
                lhs=builder.eq(x, y),
                rhs=builder.not_(builder.eq(x, y)),
                pattern_vars=("s!x", "s!y"),
            ),
        )
        findings = analyze_rules([spec])
        assert "rules.captures-into-general-position" in checks(findings)
        # It is also semantically unsound, and that is reported too.
        assert "rules.unsound-rewrite" in checks(findings)

    def test_declared_may_generalize_is_allowed(self):
        # The production forwarding rule generalizes its address variables
        # by declaration; no capture error may fire for it.
        fwd = next(s for s in REGISTRY if s.name == "forwarding-read-push")
        assert "rules.captures-into-general-position" not in checks(
            analyze_rules([fwd])
        )

    def test_broken_builder_is_a_finding_not_a_crash(self):
        def boom():
            raise RuntimeError("no instance today")

        spec = RuleSpec(name="broken", description="", build=boom)
        findings = analyze_rules([spec])
        assert checks(errors(findings)) == {"rules.builder-failed"}
        assert errors(findings)


def _by_check(diagnostics):
    grouped = {}
    for diag in diagnostics:
        grouped.setdefault(diag.check, []).append(diag)
    return grouped


def _unsound_forwarding() -> RuleInstance:
    mem = builder.tvar("bad!m")
    addr_w = builder.tvar("bad!a")
    addr_r = builder.tvar("bad!b")
    data = builder.tvar("bad!d")
    lhs = builder.read(builder.write(mem, addr_w, data), addr_r)
    return RuleInstance(
        lhs=lhs,
        rhs=data,  # wrong unless addr_w == addr_r
        pattern_vars=("bad!m", "bad!a", "bad!b", "bad!d"),
    )


class TestRealRegistry:
    def test_registry_has_no_divergent_critical_pairs(self):
        grouped = _by_check(analyze_rules())
        assert "rules.critical-pair-divergent" not in grouped
        assert "rules.builder-failed" not in grouped
        summary = grouped["rules.registry-summary"][0]
        assert summary.data["pairs"] >= 1
        assert summary.data["pairs"] == (
            summary.data["syntactic"] + summary.data["semantic"]
        )
        assert len(summary.data["rules"]) == len(REGISTRY)

    def test_registry_termination_obligations_all_discharged(self):
        grouped = _by_check(analyze_rules())
        assert "rules.measure-not-decreasing" not in grouped
        accounted = (
            len(grouped.get("rules.measure-decreases", []))
            + len(grouped.get("rules.permutative-rule", []))
            + len(grouped.get("rules.identity-after-normalization", []))
        )
        assert accounted == len(REGISTRY)


def _correct_forwarding() -> RuleInstance:
    mem = builder.tvar("good!m")
    addr_w = builder.tvar("good!a")
    addr_r = builder.tvar("good!b")
    data = builder.tvar("good!d")
    lhs = builder.read(builder.write(mem, addr_w, data), addr_r)
    rhs = builder.ite_term(
        builder.eq(addr_w, addr_r), data, builder.read(mem, addr_r)
    )
    return RuleInstance(
        lhs=lhs,
        rhs=rhs,
        pattern_vars=("good!m", "good!a", "good!b", "good!d"),
    )


class TestUnsoundRule:
    def test_unsound_forwarding_rule_diverges(self):
        # The unsound rule overlaps the correct forwarding rule at the
        # root: one reduct is `d`, the other the proper address case
        # split — they differ whenever the addresses differ.
        specs = [
            RuleSpec(
                name="bad-forwarding",
                description="read-over-write without the address case split",
                build=_unsound_forwarding,
            ),
            RuleSpec(
                name="correct-forwarding",
                description="the paper's forwarding rule",
                build=_correct_forwarding,
            ),
        ]
        grouped = _by_check(analyze_rules(specs))
        divergent = grouped.get("rules.critical-pair-divergent", [])
        assert divergent, "the unsound rule must produce a divergent pair"
        assert divergent[0].severity == "error"
        # The finding carries a concrete witness interpretation.
        assert divergent[0].data["witness"]

    def test_builder_failure_is_an_error_finding(self):
        def boom() -> RuleInstance:
            raise ValueError("no instance today")

        specs = [RuleSpec(name="broken", description="", build=boom)]
        grouped = _by_check(analyze_rules(specs))
        assert "rules.builder-failed" in grouped


class TestPrimitives:
    def test_unify_binds_pattern_vars_and_rejects_mismatches(self):
        m = builder.tvar("p!m")
        a = builder.tvar("p!a")
        d = builder.tvar("p!d")
        pattern = builder.write(m, a, d)
        concrete = builder.write(
            builder.tvar("state"), builder.uf("pc", ()), builder.tvar("v")
        )
        names = frozenset({"p!m", "p!a", "p!d"})
        subst = unify(pattern, concrete, names)
        assert subst is not None
        assert subst[m] is concrete.mem
        assert unify(pattern, builder.tvar("state"), names) is None

    def test_rule_measure_counts_redexes_then_size(self):
        mem = builder.tvar("m")
        addr = builder.tvar("a")
        other = builder.tvar("b")  # same-address reads fold in the builder
        data = builder.tvar("d")
        redex = builder.read(builder.write(mem, addr, data), other)
        plain = builder.read(mem, addr)
        r_redex, size_redex = rule_measure(redex)
        r_plain, size_plain = rule_measure(plain)
        assert r_redex == 1 and r_plain == 0
        assert size_redex > size_plain
        assert rule_measure(data) < rule_measure(plain)

    def test_critical_pairs_finds_the_self_overlap(self):
        instance = _unsound_forwarding()
        pairs = critical_pairs(instance, instance, self_pair=True)
        # The unsound rule's LHS contains no non-root, non-pattern-var
        # subterm matching its own LHS except through the write; the
        # overlap set may be empty for the self pair, but pairing it with
        # a chain-shaped rule must produce at least one overlap.
        chained = RuleInstance(
            lhs=builder.read(
                builder.write(
                    builder.write(builder.tvar("c!m"), builder.tvar("c!x"),
                                  builder.tvar("c!e")),
                    builder.tvar("c!a"), builder.tvar("c!d")),
                builder.tvar("c!b"),
            ),
            rhs=builder.tvar("c!d"),
            pattern_vars=("c!m", "c!x", "c!e", "c!a", "c!b", "c!d"),
        )
        overlaps = critical_pairs(chained, instance, self_pair=False)
        assert pairs == [] or all("overlap" in p for p in pairs)
        assert overlaps
        for pair in overlaps:
            assert {"position", "overlap", "reduct_outer",
                    "reduct_inner"} <= set(pair)


class TestSortsAndConstants:
    def test_ill_sorted_rule_is_a_finding_not_a_crash(self):
        # The ill-sorted rule rewrites the term g(y) to a formula, and its
        # LHS overlaps the other rule's: soundness reports the sort error
        # and the critical-pair pass must not trip over it.
        x, y = builder.tvar("s!x"), builder.tvar("s!y")
        ill = RuleSpec(
            name="ill-sorted", description="", build=lambda: RuleInstance(
                lhs=builder.uf("g", (y,)),
                rhs=builder.up("p", (y,)),
                pattern_vars=("s!y",),
            ),
        )
        nested = builder.uf("f", (builder.uf("g", (x,)),))
        outer = RuleSpec(
            name="outer", description="", build=lambda: RuleInstance(
                lhs=nested, rhs=nested, pattern_vars=("s!x",),
            ),
        )
        findings = analyze_rules([outer, ill])
        assert checks(errors(findings)) == {"rules.sort-mismatch"}

    def test_unify_keeps_distinct_constants_apart(self):
        # Variables outside the pattern set are constants: two different
        # ones never unify, the same one always does.
        x, y = builder.tvar("k!x"), builder.tvar("k!y")
        assert unify(x, y, frozenset()) is None
        assert unify(builder.uf("f", (x,)), builder.uf("f", (y,)),
                     frozenset()) is None
        assert unify(x, x, frozenset()) == {}


class TestPublishedReport:
    def test_registry_report_matches_the_published_numbers(self):
        # The registry numbers EXPERIMENTS.md publishes under `repro lint`.
        findings = analyze_rules()
        assert not errors(findings), [d.render() for d in findings]
        grouped = _by_check(findings)
        assert {d.subject: d.data["interpretations"]
                for d in grouped["rules.verified"]} == {
            "reorder-disjoint-updates": 776,
            "merge-complementary-contexts": 280,
            "case-split-valid-result": 560,
            "forwarding-read-push": 70,
        }
        assert [d.subject for d in
                grouped["rules.identity-after-normalization"]] == [
            "guard-split-round-trip"]
        assert {d.subject: (tuple(d.data["lhs_measure"]),
                            tuple(d.data["rhs_measure"]))
                for d in grouped["rules.measure-decreases"]} == {
            "merge-complementary-contexts": ((0, 13), (0, 9)),
            "case-split-valid-result": ((0, 10), (0, 6)),
            "forwarding-read-push": ((1, 6), (0, 7)),
        }
        assert [d.subject for d in grouped["rules.permutative-rule"]] == [
            "reorder-disjoint-updates"]
        (summary,) = grouped["rules.registry-summary"]
        assert (summary.data["pairs"], summary.data["syntactic"],
                summary.data["semantic"]) == (7, 0, 7)
        assert "0 divergent" in summary.message
        assert {d.subject: d.data["count"]
                for d in grouped["rules.overlap-order-dependent"]} == {
            "reorder-disjoint-updates <~ merge-complementary-contexts": 2,
            "merge-complementary-contexts <~ reorder-disjoint-updates": 2,
            "case-split-valid-result <~ reorder-disjoint-updates": 1,
            "case-split-valid-result <~ merge-complementary-contexts": 1,
            "case-split-valid-result <~ guard-split-round-trip": 1,
        }
        assert all(d.severity == "warning"
                   for d in grouped["rules.overlap-order-dependent"])
        assert "rules.universe-truncated" not in grouped


class TestTruncation:
    def test_truncated_joinability_check_is_reported(self, monkeypatch):
        # Critical-pair checks share the soundness check's assignment cap;
        # cutting one short must be a finding, not a silent "joined".
        monkeypatch.setattr(rules, "MAX_ASSIGNMENTS", 8)
        truncated = {d.subject for d in analyze_rules()
                     if d.check == "rules.universe-truncated"}
        assert ("case-split-valid-result <~ merge-complementary-contexts"
                in truncated)
        assert "case-split-valid-result" in truncated
