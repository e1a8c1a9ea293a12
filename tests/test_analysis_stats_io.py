"""Tests for record persistence: the CSV/JSON writer and JSON-lines journals."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.analysis import records_to_csv, save_records


class TestRecordPersistence:
    RECORDS = [
        {"topology": "mesh", "tr": 1, "latency": 11.5, "saturated": False},
        {"topology": "torus", "tr": 2, "latency": 19.0, "saturated": True},
    ]

    def test_csv_union_of_keys(self):
        text = records_to_csv([{"a": 1}, {"b": 2}])
        assert list(csv.reader(io.StringIO(text))) == [["a", "b"], ["1", ""], ["", "2"]]

    def test_empty(self):
        assert records_to_csv([]) == ""

    def test_save_load_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        save_records(self.RECORDS, path)
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert rows == [{k: str(v) for k, v in rec.items()} for rec in self.RECORDS]

    def test_save_load_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_records(self.RECORDS, path)
        assert json.loads(path.read_text()) == self.RECORDS

    def test_unsupported_suffix(self, tmp_path):
        with pytest.raises(ValueError):
            save_records(self.RECORDS, tmp_path / "sweep.parquet")


class TestJsonl:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        from repro.analysis import append_jsonl, read_jsonl

        append_jsonl({"index": 0, "value": 1.5}, path)
        append_jsonl([{"index": 1}, {"index": 2, "nested": {"a": [1, 2]}}], path)
        out = read_jsonl(path)
        assert out == [
            {"index": 0, "value": 1.5},
            {"index": 1},
            {"index": 2, "nested": {"a": [1, 2]}},
        ]

    def test_read_tolerates_truncated_tail_and_blanks(self, tmp_path):
        from repro.analysis import read_jsonl

        path = tmp_path / "journal.jsonl"
        path.write_text('{"index": 0}\n\n{"index": 1}\n{"index": 2, "val')
        assert read_jsonl(path) == [{"index": 0}, {"index": 1}]

    def test_read_missing_file_is_empty(self, tmp_path):
        from repro.analysis import read_jsonl

        assert read_jsonl(tmp_path / "absent.jsonl") == []
