"""Serialized output pinned byte for byte.

tests/golden_rows.json holds a short SHA-256 digest of every cap-6
catalog row, as catalog_entry and as SpindleReport.to_json_dict (JSON
with sorted keys), and of the file written by `table --cap 3 --json`.
Any change to a key, a value or a float's last digit shows up here.
"""

import hashlib
import json
from pathlib import Path

from spindles import catalog_entry
from spindles.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_rows.json").read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def row_digests(rows: dict) -> dict:
    return {name: digest(json.dumps(row, sort_keys=True).encode()) for name, row in rows.items()}


def test_report_rows(catalog6):
    rows = {name: report.to_json_dict() for name, (_, _, report) in catalog6.items()}
    assert row_digests(rows) == GOLDEN["to_json_dict"]


def test_catalog_entries(catalog6):
    rows = {name: catalog_entry(space) for name, (_, space, _) in catalog6.items()}
    assert row_digests(rows) == GOLDEN["catalog_entry"]


def test_table_json_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    path = tmp_path / "table.json"
    assert main(["table", "--cap", "3", "--json", str(path)]) == 0
    capsys.readouterr()
    assert digest(path.read_bytes()) == GOLDEN["table_cap3_json"]

