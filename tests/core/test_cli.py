"""Tests for the ``python -m repro`` command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.rob == 16
        assert args.width == 4
        assert args.method == "rewriting"
        assert args.bug is None

    def test_bug_options(self):
        args = build_parser().parse_args(
            ["--bug", "forward-wrong-source", "--entry", "7", "--operand", "2"]
        )
        assert args.bug == "forward-wrong-source"
        assert args.entry == 7
        assert args.operand == 2

    def test_unknown_bug_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--bug", "not-a-bug"])


class TestMain:
    def test_correct_design_exits_zero(self, capsys):
        code = main(["--rob", "4", "--width", "2"])
        assert code == 0
        assert "correct" in capsys.readouterr().out

    def test_buggy_design_exits_one(self, capsys):
        code = main(
            ["--rob", "4", "--width", "2", "--bug", "forward-wrong-source",
             "--entry", "3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "slice 3" in out

    def test_inert_bug_placement_exits_three(self, capsys):
        # Slice 1 has no older producer to mis-compare: the defect would
        # change nothing, so the run is refused instead of reported correct.
        code = main(["--rob", "4", "--width", "2", "--bug",
                     "forward-wrong-source"])
        assert code == 3
        assert "2 <= entry <= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, name", [
        ("--deadline", "max_wall_seconds"), ("--max-memory", "max_memory_mb"),
    ])
    def test_non_finite_budget_exits_three(self, flag, name, value, capsys):
        assert main(["--rob", "2", "--width", "1", flag, value]) == 3
        assert f"{name} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rob", "0", "--width", "1"],
            ["--rob", "2", "--width", "3"],
            ["--rob", "2", "--width", "1", "--retire-width", "0"],
            ["--bug", "retire-ignores-valid", "--entry", "0"],
            ["--rob", "2", "--width", "1", "--max-conflicts", "-1"],
            ["--rob", "2", "--width", "1", "--deadline", "-1"],
            ["--rob", "2", "--width", "1", "--max-memory", "-1"],
        ],
        ids=["empty-rob", "width-over-rob", "zero-retire-width", "entry-zero",
             "negative-max-conflicts", "negative-deadline",
             "negative-max-memory"],
    )
    def test_invalid_configuration_exits_three(self, argv, capsys):
        # One error line, not a traceback and not the "bug found" status.
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("python -m repro: error: ")
        assert len(err.strip().splitlines()) == 1

    def test_positive_equality_method(self, capsys):
        code = main(["--rob", "2", "--width", "1", "--method",
                     "positive_equality"])
        assert code == 0

    def test_deadline_flag(self, capsys):
        code = main(
            ["--rob", "3", "--width", "3", "--method", "positive_equality",
             "--deadline", "0.05"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"budget exhausted .* in stage '[^']+'", err)
        assert "Traceback" not in err

    def test_max_seconds_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--max-seconds", "1"])

    def test_max_conflicts_flag(self, capsys):
        code = main(
            ["--rob", "3", "--width", "3", "--method", "positive_equality",
             "--max-conflicts", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        # The SAT seconds spent are the "sat" span's wall time.
        assert re.search(r"after \d+ conflicts, \d+\.\ds", err)
        assert "campaign" in err  # points at the escalating runner

    def test_retire_width_flag(self, capsys):
        code = main(["--rob", "6", "--width", "3", "--retire-width", "2"])
        assert code == 0
        assert "retire width 2" in capsys.readouterr().out


class TestProcessExit:
    @pytest.mark.parametrize("argv, status", [
        (["--rob", "4", "--width", "2"], 0),
        (["--rob", "4", "--width", "2", "--bug", "forward-wrong-source",
          "--entry", "3"], 1),
    ])
    def test_command_freezes_the_collector_before_it_exits(
        self, argv, status
    ):
        """A run's nodes stay interned after it; the command freezes them
        so that the interpreter's shutdown collections skip them.  An exit
        hook, which runs after ``sys.exit``, sees them frozen."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()"
            " > 0))\n"
            f"sys.argv = ['repro', *{argv!r}]\n"
            "runpy.run_module('repro', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == status, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen True"
