"""Crash-safety tests for the campaign journal."""

import json

import pytest

from repro.campaign import Journal
from repro.errors import JournalError


def _append_all(path, records):
    with Journal(str(path)) as journal:
        for record in records:
            journal.append(record)


class TestRoundtrip:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        records = [
            {"event": "enqueue", "job": {"job_id": "a", "n_rob": 2}},
            {"event": "start", "job_id": "a", "attempt": 1},
            {"event": "finish", "job_id": "a", "status": "PROVED"},
        ]
        _append_all(path, records)
        replay = Journal.load(str(path))
        assert replay.records == records
        assert replay.corrupt_lines == 0
        assert replay.torn_tail is False

    def test_missing_file_is_empty(self, tmp_path):
        replay = Journal.load(str(tmp_path / "absent.jsonl"))
        assert replay.records == []
        assert replay.finished() == {}

    def test_append_resumes_existing_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [{"event": "start", "job_id": "a", "attempt": 1}])
        _append_all(path, [{"event": "finish", "job_id": "a",
                            "status": "PROVED"}])
        replay = Journal.load(str(path))
        assert [rec["event"] for rec in replay.records] == ["start", "finish"]


class TestCorruptionTolerance:
    def test_torn_tail_is_silently_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "start", "job_id": "a", "attempt": 1},
            {"event": "finish", "job_id": "a", "status": "PROVED"},
        ])
        # Simulate a crash mid-write: truncate the final line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        replay = Journal.load(str(path))
        assert len(replay.records) == 1
        assert replay.records[0]["event"] == "start"
        assert replay.torn_tail is True
        assert replay.corrupt_lines == 0

    def test_corrupt_tail_helper(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(str(path)) as journal:
            journal.append({"event": "start", "job_id": "a", "attempt": 1})
            journal.append({"event": "finish", "job_id": "a",
                            "status": "PROVED"})
            journal.corrupt_tail()
        replay = Journal.load(str(path))
        assert replay.torn_tail is True
        assert "a" not in replay.finished()

    def test_mid_file_corruption_skipped_and_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "start", "job_id": "a", "attempt": 1},
            {"event": "attempt_failed", "job_id": "a", "attempt": 1},
            {"event": "finish", "job_id": "a", "status": "INCONCLUSIVE"},
        ])
        lines = path.read_text().splitlines()
        lines[1] = "not json at all {{{"
        path.write_text("\n".join(lines) + "\n")
        replay = Journal.load(str(path))
        assert len(replay.records) == 2
        assert replay.corrupt_lines == 1
        assert replay.torn_tail is False

    def test_strict_mode_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "start", "job_id": "a", "attempt": 1},
            {"event": "finish", "job_id": "a", "status": "PROVED"},
        ])
        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            Journal.load(str(path), strict=True)

    def test_checksum_catches_valid_json_bitflips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "finish", "job_id": "a", "status": "PROVED"},
            {"event": "finish", "job_id": "b", "status": "PROVED"},
        ])
        lines = path.read_text().splitlines()
        # Flip the payload without breaking JSON: the crc must catch it.
        wrapper = json.loads(lines[0])
        wrapper["data"]["status"] = "BUG_FOUND"
        lines[0] = json.dumps(wrapper)
        path.write_text("\n".join(lines) + "\n")
        replay = Journal.load(str(path))
        assert len(replay.records) == 1
        assert replay.corrupt_lines == 1
        assert "a" not in replay.finished()


class TestReplayDerivations:
    def test_finished_and_in_flight(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "start", "job_id": "a", "attempt": 1, "method": "rewriting"},
            {"event": "finish", "job_id": "a", "status": "PROVED"},
            {"event": "start", "job_id": "b", "attempt": 1, "method": "rewriting"},
        ])
        replay = Journal.load(str(path))
        assert set(replay.finished()) == {"a"}
        assert set(replay.in_flight()) == {"b"}

    def test_failed_attempts_are_counted_per_job(self, tmp_path):
        # Every failed attempt of a job counts, whatever method it names.
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "attempt_failed", "job_id": "a", "attempt": 1,
             "method": "rewriting"},
            {"event": "attempt_failed", "job_id": "a", "attempt": 2,
             "method": "rewriting"},
            {"event": "attempt_failed", "job_id": "a", "attempt": 1,
             "method": "positive_equality"},
            {"event": "attempt_failed", "job_id": "b", "attempt": 1,
             "method": "rewriting"},
        ])
        replay = Journal.load(str(path))
        assert replay.failed_attempts() == {"a": 3, "b": 1}

    def test_job_specs_in_order(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _append_all(path, [
            {"event": "enqueue", "job": {"job_id": "a", "n_rob": 2,
                                         "issue_width": 1}},
            {"event": "enqueue", "job": {"job_id": "b", "n_rob": 3,
                                         "issue_width": 1}},
        ])
        specs = Journal.load(str(path)).job_specs()
        assert list(specs) == ["a", "b"]
        assert specs["b"]["n_rob"] == 3
