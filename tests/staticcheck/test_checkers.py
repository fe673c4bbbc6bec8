"""One known-bad and one known-good fixture per file checker (RS001-RS006).

Fixture modules are written to a temporary directory, which puts them
outside any recognizable ``repro`` package root — the engine then treats
them as matching every checker scope, so each checker can be exercised
in isolation via ``select``.
"""

import textwrap

from repro.staticcheck.engine import load_source, run_project


def _run(tmp_path, source, select):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    return run_project([str(path)], select=select)


def _checks(findings):
    return sorted(diag.check for diag in findings)


class TestRS001Taxonomy:
    def test_bad_bare_except_blind_except_and_builtin_raise(self, tmp_path):
        findings = _run(tmp_path, """\
            def solve():
                try:
                    work()
                except:
                    pass
                try:
                    work()
                except BaseException:
                    pass
                raise RuntimeError("solver wedged")
            """, select=["RS001"])
        assert _checks(findings) == [
            "RS001.bare-except",
            "RS001.blind-except",
            "RS001.builtin-raise",
        ]
        raise_diag = [d for d in findings
                      if d.check == "RS001.builtin-raise"][0]
        assert raise_diag.data["exception"] == "RuntimeError"
        assert "ReproError" in raise_diag.message

    def test_bad_builtins_module_spelling(self, tmp_path):
        findings = _run(tmp_path, """\
            import builtins

            def solve():
                raise builtins.TimeoutError("budget")
            """, select=["RS001"])
        assert _checks(findings) == ["RS001.builtin-raise"]

    def test_good_structured_raises_and_narrow_except(self, tmp_path):
        findings = _run(tmp_path, """\
            from repro.errors import BudgetExhausted, SolverError

            def solve(budget):
                if budget <= 0:
                    raise ValueError("budget must be positive")
                try:
                    work()
                except KeyError:
                    raise SolverError("lost a watch list")
                except Exception:
                    raise
                raise BudgetExhausted("out of conflicts")
            """, select=["RS001"])
        assert findings == []


class TestRS002DeadlinePolls:
    def test_bad_unpolled_while_loop(self, tmp_path):
        findings = _run(tmp_path, """\
            def fixpoint(nodes):
                changed = True
                while changed:
                    changed = step(nodes)
            """, select=["RS002"])
        assert _checks(findings) == ["RS002.unpolled-loop"]
        assert findings[0].data["qualname"] == "fixpoint"

    def test_bad_unbounded_for_over_itertools_count(self, tmp_path):
        findings = _run(tmp_path, """\
            import itertools

            def restart_schedule():
                for attempt in itertools.count(1):
                    if try_once(attempt):
                        break
            """, select=["RS002"])
        assert _checks(findings) == ["RS002.unpolled-loop"]
        assert findings[0].data["loop_kind"] == "unbounded for"

    def test_good_direct_poll(self, tmp_path):
        findings = _run(tmp_path, """\
            from repro.guard import current_deadline

            def fixpoint(nodes):
                deadline = current_deadline()
                changed = True
                while changed:
                    deadline.tick("encode")
                    changed = step(nodes)
            """, select=["RS002"])
        assert findings == []

    def test_good_indirect_poll_through_module_local_helper(self, tmp_path):
        # The dataflow half: `walk` polls, so a loop that calls `walk`
        # is covered (module-local call-graph fixpoint).
        findings = _run(tmp_path, """\
            from repro.guard import current_deadline

            def walk(node):
                current_deadline().tick("encode")
                return node.children

            def explore(root):
                stack = [root]
                while stack:
                    stack.extend(walk(stack.pop()))
            """, select=["RS002"])
        assert findings == []

    def test_good_bounded_for_is_exempt(self, tmp_path):
        findings = _run(tmp_path, """\
            def total(counts):
                acc = 0
                for value in counts:
                    acc += value
                return acc
            """, select=["RS002"])
        assert findings == []


class TestRS003SingleWriterJournal:
    def test_bad_mutation_and_open_outside_writer_modules(self, tmp_path):
        findings = _run(tmp_path, """\
            from repro.campaign.journal import Journal

            def worker_body(journal, record):
                journal.append(record)

            def sneaky(path):
                mine = Journal(path)
                return mine
            """, select=["RS003"])
        assert _checks(findings) == [
            "RS003.journal-mutation",
            "RS003.journal-open",
        ]
        mutation = [d for d in findings
                    if d.check == "RS003.journal-mutation"][0]
        assert mutation.data["method"] == "append"

    def test_good_read_only_access(self, tmp_path):
        findings = _run(tmp_path, """\
            from repro.campaign.journal import Journal

            def summarize(path):
                replay = Journal.load(path)
                return list(replay.events("finish"))

            def unrelated(items):
                # append on a non-journal receiver is not a finding.
                items.append(1)
            """, select=["RS003"])
        assert findings == []

    def test_writer_module_is_allowed_but_its_workers_are_not(self, tmp_path):
        # A file laid out like the real runner module: module-level writes
        # are fine, `_worker*` scopes are still forbidden.
        root = tmp_path / "repro" / "campaign"
        root.mkdir(parents=True)
        path = root / "runner.py"
        path.write_text(textwrap.dedent("""\
            def run(journal, record):
                journal.append(record)

            def _worker_entry(journal, record):
                journal.append(record)
            """))
        findings = run_project([str(path)], select=["RS003"])
        assert _checks(findings) == ["RS003.journal-mutation"]
        assert findings[0].data["qualname"] == "_worker_entry"


class TestRS004PicklablePayloads:
    def test_bad_lambda_and_local_def_payloads(self, tmp_path):
        findings = _run(tmp_path, """\
            def fan_out(pool, jobs):
                def on_done(result):
                    return result

                pool.apply_async(lambda job: job.run(), jobs)
                pool.apply_async(on_done, jobs)
            """, select=["RS004"])
        assert _checks(findings) == [
            "RS004.lambda-payload",
            "RS004.local-def-payload",
        ]
        local = [d for d in findings
                 if d.check == "RS004.local-def-payload"][0]
        assert local.data["name"] == "on_done"

    def test_bad_process_target_lambda(self, tmp_path):
        findings = _run(tmp_path, """\
            import multiprocessing

            def launch():
                proc = multiprocessing.Process(target=lambda: None)
                proc.start()
            """, select=["RS004"])
        assert _checks(findings) == ["RS004.lambda-payload"]

    def test_good_module_level_payloads(self, tmp_path):
        findings = _run(tmp_path, """\
            def job_entry(job):
                return job.run()

            def fan_out(pool, jobs):
                pool.apply_async(job_entry, jobs)
                pool.starmap(job_entry, [(j,) for j in jobs])

            def not_a_fanout(items):
                # plain map() on a non-pool receiver takes any callable.
                return list(map(lambda x: x + 1, items))
            """, select=["RS004"])
        assert findings == []


class TestRS005ContextVarHygiene:
    def test_bad_discarded_token_and_unpaired_set(self, tmp_path):
        findings = _run(tmp_path, """\
            from contextvars import ContextVar

            _ACTIVE = ContextVar("active")

            def install(value):
                _ACTIVE.set(value)

            def leaky(value):
                token = _ACTIVE.set(value)
                return token
            """, select=["RS005"])
        assert _checks(findings) == [
            "RS005.discarded-token",
            "RS005.set-without-reset",
        ]

    def test_bad_manual_enter(self, tmp_path):
        findings = _run(tmp_path, """\
            def run(span):
                span.__enter__()
                try:
                    work()
                finally:
                    span.__exit__(None, None, None)
            """, select=["RS005"])
        assert _checks(findings) == [
            "RS005.manual-enter", "RS005.manual-enter",
        ]

    def test_good_enter_exit_pairing_across_one_class(self, tmp_path):
        # The sanctioned pattern: set() in __enter__, reset() in __exit__
        # of the same class (mirrors repro.guard.deadline.use_deadline).
        findings = _run(tmp_path, """\
            from contextvars import ContextVar

            _ACTIVE = ContextVar("active")

            class use_value:
                def __init__(self, value):
                    self._value = value

                def __enter__(self):
                    self._token = _ACTIVE.set(self._value)
                    return self._value

                def __exit__(self, *exc_info):
                    _ACTIVE.reset(self._token)
                    return False
            """, select=["RS005"])
        assert findings == []

    def test_good_same_function_pairing(self, tmp_path):
        findings = _run(tmp_path, """\
            from contextvars import ContextVar

            _ACTIVE = ContextVar("active")

            def scoped(value):
                token = _ACTIVE.set(value)
                try:
                    return work()
                finally:
                    _ACTIVE.reset(token)
            """, select=["RS005"])
        assert findings == []


class TestRS006UnusedImports:
    def test_bad_unused_module_level_imports(self, tmp_path):
        findings = _run(tmp_path, """\
            import os.path
            import sys
            from typing import (
                Dict,
                List,
            )

            try:
                import json
            except ImportError:
                json = None

            def size(items: List[int]) -> int:
                import re  # a function's own import is its business
                return len(items)
            """, select=["RS006"])
        assert _checks(findings) == ["RS006.unused-import"] * 4
        assert sorted(
            (d.data["name"], d.data["line"]) for d in findings
        ) == [("Dict", 4), ("json", 9), ("os", 1), ("sys", 2)]

    def test_good_future_all_annotations_and_init(self, tmp_path):
        source = """\
            from __future__ import annotations

            import itertools
            from typing import TYPE_CHECKING, Optional

            from .ast import Expr, Formula, TermVar

            __all__ = ["TermVar", "first"]

            if TYPE_CHECKING:
                from .ast import Term

            def first(nodes: "Optional[Term]") -> "Expr":
                counter = itertools.count()
                return Formula, counter
            """
        assert _run(tmp_path, source, select=["RS006"]) == []
        package = tmp_path / "pkg"
        package.mkdir()
        init = package / "__init__.py"
        init.write_text("from .ast import Expr\nimport os\n")
        assert run_project([str(init)], select=["RS006"]) == []


class TestScoping:
    def test_repro_package_files_respect_checker_scope(self, tmp_path):
        # RS001's scope excludes `campaign`; the same bad source under
        # repro/campaign/ must not be flagged by RS001.
        root = tmp_path / "repro" / "campaign"
        root.mkdir(parents=True)
        path = root / "helper.py"
        path.write_text("def f():\n    raise RuntimeError('x')\n")
        assert run_project([str(path)], select=["RS001"]) == []
        module, failure = load_source(str(path))
        assert failure is None
        assert module.package == ("repro", "campaign")
        assert module.subpackage == "campaign"

    def test_same_source_in_scope_is_flagged(self, tmp_path):
        root = tmp_path / "repro" / "sat"
        root.mkdir(parents=True)
        path = root / "helper.py"
        path.write_text("def f():\n    raise RuntimeError('x')\n")
        findings = run_project([str(path)], select=["RS001"])
        assert _checks(findings) == ["RS001.builtin-raise"]
