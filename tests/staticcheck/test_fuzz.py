"""Property: the engine never crashes on arbitrary parseable modules.

Two generators feed ``run_project``:

* structured source assembled from a grammar of the constructs the
  checkers inspect (loops, try/except, raises, ContextVar sets, pool
  calls, nested defs) — biased toward the code shapes that exercise
  checker logic;
* arbitrary text, which must either parse (and then check cleanly or
  with findings, never an exception) or surface as an ``RS000`` finding.
"""

import ast
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.diagnostics import SEVERITIES
from repro.staticcheck.baseline import fingerprints
from repro.staticcheck.engine import run_project

_IDENT = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {
        "def", "if", "for", "in", "is", "not", "and", "or", "del",
        "try", "else", "elif", "while", "with", "pass", "class",
        "raise", "from", "import", "as", "return", "lambda", "global",
        "assert", "break", "continue", "finally", "except", "none",
    }
)

_EXPR = st.sampled_from([
    "x", "f(x)", "obj.attr", "obj.check('sat')", "deadline.tick('sat')",
    "pool.apply_async(job, args)", "pool.map(lambda v: v, items)",
    "_ACTIVE.set(value)", "_ACTIVE.reset(token)", "span.__enter__()",
    "journal.append(rec)", "Journal(path)", "itertools.count(1)",
    "iter(read, sentinel)", "range(10)",
])

_SMALL_STMT = st.one_of(
    st.just("pass"),
    st.just("raise RuntimeError('boom')"),
    st.just("raise ValueError('fine')"),
    st.just("raise"),
    _EXPR.map(lambda e: f"{e}"),
    st.tuples(_IDENT, _EXPR).map(lambda t: f"{t[0]} = {t[1]}"),
)


def _indent(block, level):
    pad = "    " * level
    return [pad + line for line in block]


@st.composite
def _statements(draw, depth=0):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.integers(0, 5 if depth < 2 else 1))
        if choice == 0 or choice == 1:
            lines.append(draw(_SMALL_STMT))
        elif choice == 2:
            iterator = draw(st.sampled_from(
                ["range(3)", "items", "itertools.count()",
                 "iter(read, None)"]))
            lines.append(f"for i in {iterator}:")
            lines.extend(_indent(draw(_statements(depth=depth + 1)), 1))
        elif choice == 3:
            lines.append("while cond:")
            lines.extend(_indent(draw(_statements(depth=depth + 1)), 1))
        elif choice == 4:
            handler = draw(st.sampled_from(
                ["except:", "except BaseException:", "except Exception:",
                 "except ValueError as exc:"]))
            lines.append("try:")
            lines.extend(_indent(draw(_statements(depth=depth + 1)), 1))
            lines.append(handler)
            lines.extend(_indent(draw(_statements(depth=depth + 1)), 1))
        else:
            lines.append(f"def {draw(_IDENT)}():")
            lines.extend(_indent(draw(_statements(depth=depth + 1)), 1))
    return lines


@st.composite
def _modules(draw):
    lines = ["from contextvars import ContextVar",
             "_ACTIVE = ContextVar('active')"]
    for _ in range(draw(st.integers(1, 3))):
        lines.append(f"def {draw(_IDENT)}():")
        lines.extend(_indent(draw(_statements()), 1))
    return "\n".join(lines) + "\n"


def _check_invariants(findings):
    for diag in findings:
        assert diag.severity in SEVERITIES
        assert diag.stage == "staticcheck"
        assert diag.check.startswith("RS0")
        diag.to_dict()  # JSON-serializable payloads only
    fingerprints(findings)  # fingerprinting never crashes either


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=_modules())
def test_engine_never_crashes_on_generated_modules(source):
    assert ast.parse(source) is not None  # the generator emits valid code
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        findings = run_project([path])
    _check_invariants(findings)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.text(max_size=300))
def test_engine_never_crashes_on_arbitrary_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arbitrary.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        findings = run_project([path])
    _check_invariants(findings)
