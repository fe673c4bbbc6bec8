"""CLI tests for ``python -m repro perf`` and ``python -m repro trace``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.obs import cli
from repro.obs.cli import _parse_tolerance, perf_main, trace_main
from repro.obs.metrics import (
    MetricsSnapshot,
    Tolerance,
    load_record,
    save_record,
)
from repro.processor import Bug, ProcessorConfig


RUN = ["--rob", "2", "--width", "1"]
REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "baselines" / "grid.json"
#: The ``--tol`` flags of the CI perf-smoke job's ``perf compare`` step.
CI_TOLERANCES = [
    "--tol", "cpu.*=rel:20+abs:2",
    "--tol", "timings.*=rel:20+abs:2+advisory",
]


class TestParseTolerance:
    def test_rel_only(self):
        pattern, tol = _parse_tolerance("timings.*=rel:0.5")
        assert pattern == "timings.*"
        assert tol == Tolerance(rel=0.5, abs=0.0)

    def test_rel_plus_abs(self):
        _, tol = _parse_tolerance("sat.*=rel:1+abs:10")
        assert tol == Tolerance(rel=1.0, abs=10.0)

    def test_advisory_flag(self):
        _, tol = _parse_tolerance("timings.*=rel:2+abs:1+advisory")
        assert tol == Tolerance(rel=2.0, abs=1.0, advisory=True)

    def test_advisory_alone(self):
        _, tol = _parse_tolerance("*seconds*=advisory")
        assert tol == Tolerance(advisory=True)

    @pytest.mark.parametrize(
        "bad", ["no-equals", "x=rel", "x=nope:1", "x=rel:1:abs",
                "x=rel:nan", "x=abs:inf"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            _parse_tolerance(bad)


class TestPerfRecordCompare:
    def test_record_then_compare_is_clean(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert perf_main(["record", *RUN, "--out", str(base)]) == 0
        (snapshot,) = load_record(base)
        assert snapshot.metrics["timings.total"] > 0
        assert snapshot.metrics["sat.decisions"] >= 0

        current = tmp_path / "current.json"
        assert perf_main(["record", *RUN, "--out", str(current)]) == 0
        code = perf_main(["compare", str(base), str(current)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_perturbed_count_fails_the_gate(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        (snapshot,) = load_record(base)
        worse = MetricsSnapshot(
            metrics=dict(snapshot.metrics), meta=dict(snapshot.meta)
        )
        worse.metrics["sat.decisions"] = snapshot.metrics["sat.decisions"] + 50
        current = tmp_path / "current.json"
        save_record(current, [worse])
        assert perf_main(["compare", str(base), str(current)]) == 1
        assert "sat.decisions" in capsys.readouterr().out

    def test_tolerance_override_can_absorb_the_perturbation(self, tmp_path):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        (snapshot,) = load_record(base)
        snapshot.metrics["sat.decisions"] += 50
        current = tmp_path / "current.json"
        save_record(current, [snapshot])
        code = perf_main(
            ["compare", str(base), str(current),
             "--tol", "sat.decisions=abs:100"]
        )
        assert code == 0

    def test_compare_json_output(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        perf_main(["record", *RUN, "--out", str(base)])
        capsys.readouterr()  # drain the record command's output
        code = perf_main(["compare", str(base), str(base), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [row["ok"] for row in payload["rows"]] == [True]

    def test_missing_snapshot_is_a_setup_error(self, tmp_path, capsys):
        code = perf_main(
            ["compare", str(tmp_path / "nope.json"), str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "perf compare error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, problem", [
        ([], "a perf record must be a JSON object"),
        ({"meta": {}, "metrics": {}}, "a perf record must be a JSON object"),
        ({"rows": [[]]}, "must be a JSON object"),
        ({"rows": [{"metrics": [1, 2]}]}, "'metrics' must be a JSON object"),
        ({"rows": [{"metrics": {"a": None}}]},
         "metric 'a' must be a finite number"),
        ({"rows": [{"meta": {"config": ["a"]}, "metrics": {}}]},
         "run fields must be JSON scalars"),
    ])
    def test_malformed_snapshot_is_a_setup_error(
        self, payload, problem, tmp_path, capsys
    ):
        # Valid JSON of the wrong shape is a setup error (exit 2), never
        # a traceback that reads as a regression (exit 1).
        good = tmp_path / "good.json"
        assert perf_main(["record", *RUN, "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        for pair in ([good, bad], [bad, good]):
            assert perf_main(["compare", *map(str, pair)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("perf compare error: ")
            assert problem in err


    @pytest.mark.parametrize("flag", ["--trace-out", "--csv-out"])
    def test_record_writes_no_sidecar_files(self, flag, tmp_path, capsys):
        # `trace --format chrome` is the one Chrome writer; there is no
        # CSV writer at all.
        with pytest.raises(SystemExit) as exit_info:
            perf_main(["record", *RUN, "--out", str(tmp_path / "x.json"),
                       flag, str(tmp_path / "side")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNonFinite:
    """A NaN passes every comparison (``x > nan`` is false), so neither a
    metric nor a tolerance may be one."""

    def _records(self, tmp_path, current_value):
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        meta = {"config": "c", "method": "rewriting"}
        save_record(base, [MetricsSnapshot({"sat.conflicts": 7.0}, meta)])
        save_record(current, [MetricsSnapshot(
            {"sat.conflicts": current_value}, meta
        )])
        return [str(base), str(current)]

    @pytest.mark.parametrize("flags", [
        ["--tol", "sat.*=rel:nan"],
        ["--tol", "sat.*=abs:inf"],
        ["--default-rel", "nan"],
        ["--default-abs", "nan"],
    ], ids=["tol-rel", "tol-abs", "default-rel", "default-abs"])
    def test_non_finite_tolerance_is_a_setup_error(
        self, flags, tmp_path, capsys
    ):
        code = perf_main(["compare", *self._records(tmp_path, 7000.0), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("perf compare error: ")
        assert flags[1].rsplit(":", 1)[-1] in err

    def test_nan_metric_is_a_setup_error(self, tmp_path, capsys):
        code = perf_main(["compare", *self._records(tmp_path, float("nan"))])
        assert code == 2
        err = capsys.readouterr().err
        assert "metric 'sat.conflicts' must be a finite number, got nan" in err


def _committed():
    return load_record(BASELINE)


def _compare(tmp_path, rows, *flags):
    current = tmp_path / "current.json"
    save_record(current, rows)
    return perf_main(["compare", str(BASELINE), str(current), *flags])


def _edited(row, **meta):
    return MetricsSnapshot(dict(row.metrics), dict(row.meta, **meta))


class TestRowPairing:
    """``perf compare`` pairs rows by the run their ``meta`` names; these
    tests edit the committed grid record and run nothing."""

    def test_committed_record_passes_against_itself(self, tmp_path, capsys):
        assert _compare(tmp_path, _committed(), *CI_TOLERANCES) == 0
        assert "no regressions in 22 row(s)" in capsys.readouterr().out

    def test_row_order_does_not_matter(self, tmp_path):
        assert _compare(tmp_path, _committed()[::-1]) == 0

    def test_missing_row_is_a_setup_error(self, tmp_path, capsys):
        rows = _committed()
        assert _compare(tmp_path, rows[:-1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("perf compare error: ")
        assert f"{rows[-1].meta['config']!r}" in err
        assert "has no current row" in err

    def test_extra_row_is_a_setup_error(self, tmp_path, capsys):
        rows = _committed()
        extra = _edited(rows[0], criterion="case_split")
        assert _compare(tmp_path, rows + [extra]) == 2
        err = capsys.readouterr().err
        assert "current row (" in err and "has no baseline row" in err
        assert "criterion 'case_split'" in err

    def test_two_rows_naming_one_run_are_a_setup_error(
        self, tmp_path, capsys
    ):
        rows = _committed()
        assert _compare(tmp_path, rows + [rows[3]]) == 2
        err = capsys.readouterr().err
        assert "two rows name one run" in err
        assert f"{rows[3].meta['config']!r}" in err

    def test_a_count_grown_by_one_fails_naming_row_and_metric(
        self, tmp_path, capsys
    ):
        rows = _committed()
        grown = _edited(rows[8])
        grown.metrics["sat.conflicts"] += 1
        rows[8] = grown
        assert _compare(tmp_path, rows, *CI_TOLERANCES) == 1
        out = capsys.readouterr().out
        assert f"config {rows[8].meta['config']!r}" in out
        assert "sat.conflicts" in out
        assert "1 of 22 row(s) regressed" in out

    @pytest.mark.parametrize("field, value", [
        ("correct", True), ("suspected_entry", 71),
    ])
    def test_a_changed_outcome_fails(self, field, value, tmp_path, capsys):
        # The Sect. 7.2 row, its bug missed or flagged at another slice.
        rows = _committed()
        index = next(
            i for i, row in enumerate(rows) if row.meta["bug"] is not None
        )
        assert rows[index].meta[field] != value
        rows[index] = _edited(rows[index], **{field: value})
        assert _compare(tmp_path, rows) == 1
        out = capsys.readouterr().out
        assert field in out and "outcome changed" in out

    @pytest.mark.parametrize("flags, field", [
        (["--method", "positive_equality"], "method"),
        (["--criterion", "case_split"], "criterion"),
        (["--bug", "forward-wrong-source", "--entry", "2"], "bug"),
    ])
    def test_record_of_another_check_is_a_setup_error(
        self, flags, field, tmp_path, capsys
    ):
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        perf_main(["record", *RUN, "--out", str(base)])
        perf_main(["record", *RUN, *flags, "--out", str(current)])
        capsys.readouterr()
        assert perf_main(["compare", str(base), str(current)]) == 2
        err = capsys.readouterr().err
        assert "has no current row" in err and "has no baseline row" in err
        assert f"{field} {load_record(current)[0].meta[field]!r}" in err

    def test_missing_fields_read_as_their_defaults(self, tmp_path, capsys):
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        perf_main(["record", *RUN, "--out", str(current)])
        (snapshot,) = load_record(current)
        assert (snapshot.meta["criterion"], snapshot.meta["bug"]) == \
            ("disjunction", None)
        del snapshot.meta["criterion"], snapshot.meta["bug"]
        save_record(base, [snapshot])
        assert perf_main(["compare", str(base), str(current)]) == 0


def _run_of(line):
    """The run a ``perf record`` command line names, built without
    running it: the ``meta`` fields :data:`repro.obs.cli.RUN_FIELDS`
    reads."""
    args = cli.build_perf_parser().parse_args(["record", *line.split()])
    config = ProcessorConfig(
        args.rob, args.width, retire_width=args.retire_width,
        family=args.family,
    )
    bug = args.bug and Bug(args.bug, entry=args.entry, operand=args.operand)
    return (config.describe(), args.method, args.criterion,
            bug and bug.describe())


class TestGrid:
    def test_every_row_parses_and_names_its_own_run(self):
        runs = [_run_of(line) for line in cli.GRID_ROWS]
        assert len(runs) == 22
        assert len(set(runs)) == len(runs)

    def test_committed_record_holds_the_grid_in_order(self):
        assert [cli._run_of(row) for row in _committed()] == [
            _run_of(line) for line in cli.GRID_ROWS
        ]

    def test_grid_writes_one_row_per_run(self, tmp_path, monkeypatch, capsys):
        lines = ("--rob 2 --width 1",
                 "--rob 3 --width 1 --bug forward-wrong-source --entry 2")
        monkeypatch.setattr(cli, "GRID_ROWS", lines)
        out = tmp_path / "grid.json"
        assert perf_main(["grid", "--out", str(out)]) == 0
        rows = load_record(out)
        assert [cli._run_of(row) for row in rows] == list(map(_run_of, lines))
        assert [(row.meta["correct"], row.meta["suspected_entry"])
                for row in rows] == [(True, None), (False, 2)]
        assert "recorded 2 rows" in capsys.readouterr().out

    def test_a_row_that_cannot_run_is_a_setup_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "GRID_ROWS", ("--rob 2 --width 3",))
        out = tmp_path / "grid.json"
        assert perf_main(["grid", "--out", str(out)]) == 2
        assert "perf grid failed on '--rob 2 --width 3'" in \
            capsys.readouterr().err
        assert not out.exists()


class TestTraceCommand:
    def test_tree_output(self, capsys):
        assert trace_main([*RUN]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verify")
        assert "simulate" in out and "sat" in out

    def test_chrome_output_to_file(self, tmp_path):
        out = tmp_path / "t.json"
        assert trace_main([*RUN, "--format", "chrome", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_chrome_events_link_the_pipeline_spans(self, tmp_path):
        out = tmp_path / "t.json"
        assert trace_main([*RUN, "--format", "chrome", "--out", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert events[0]["name"] == "verify"
        assert events[0]["args"]["parentIndex"] == -1
        for index, event in enumerate(events):
            assert event["args"]["spanIndex"] == index
            if index:
                assert 0 <= event["args"]["parentIndex"] < index
        parents = {ev["name"]: events[ev["args"]["parentIndex"]]["name"]
                   for ev in events[1:]}
        assert parents["simulate"] == parents["sat"] == "verify"


class TestInvalidConfiguration:
    @pytest.mark.parametrize(
        "size",
        [["--rob", "0", "--width", "1"], ["--rob", "2", "--width", "3"]],
        ids=["empty-rob", "width-over-rob"],
    )
    @pytest.mark.parametrize("command", ["trace", "perf-record"])
    def test_is_a_setup_error(self, command, size, tmp_path, capsys):
        if command == "trace":
            code = trace_main(size)
        else:
            code = perf_main(
                ["record", *size, "--out", str(tmp_path / "x.json")]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "failed: ValueError: " in err
        assert len(err.strip().splitlines()) == 1


class TestMainDispatch:
    def test_main_routes_perf_and_trace(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert repro_main(["perf", "record", *RUN, "--out", str(base)]) == 0
        assert repro_main(["trace", *RUN]) == 0
        assert base.exists()
        assert "verify" in capsys.readouterr().out


#: Three cheap rows of the committed grid, one per kind of run.
FRESH_ROWS = (
    "--rob 32 --width 4",
    "--rob 16 --width 1 --family mem",
    "--rob 2 --width 1 --method positive_equality",
)


def _counts(row):
    return {
        name: value for name, value in row.metrics.items()
        if not name.startswith(("cpu.", "timings."))
    }


class TestCommittedBaseline:
    """Rows recorded in fresh interpreters under two hash seeds, as CI
    records them, have the committed record's counts."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        records = {}
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                       PYTHONHASHSEED=seed)
            rows = []
            for index, line in enumerate(FRESH_ROWS):
                out = tmp_path_factory.mktemp(f"seed{seed}") / f"{index}.json"
                record = subprocess.run(
                    [sys.executable, "-m", "repro", "perf", "record",
                     *line.split(), "--out", str(out)],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert record.returncode == 0, record.stderr
                rows += load_record(out)
            records[seed] = rows
        return records

    def test_both_seeds_record_the_same_counts(self, fresh):
        assert list(map(_counts, fresh["1"])) == list(map(_counts, fresh["2"]))
        assert [row.meta for row in fresh["1"]] == \
            [row.meta for row in fresh["2"]]

    def test_fresh_rows_pass_the_ci_gate(self, fresh, tmp_path, capsys):
        committed = {cli._run_of(row): row for row in _committed()}
        for rows in fresh.values():
            baseline = [committed[cli._run_of(row)] for row in rows]
            assert list(map(_counts, rows)) == list(map(_counts, baseline))
            base, current = tmp_path / "base.json", tmp_path / "current.json"
            save_record(base, baseline)
            save_record(current, rows)
            code = perf_main(
                ["compare", str(base), str(current), *CI_TOLERANCES]
            )
            assert code == 0, capsys.readouterr().out
