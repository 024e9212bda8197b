"""Serialized output pinned byte for byte.

tests/golden_rows.json holds a short SHA-256 digest of every cap-6
catalog row, as catalog_entry and as SpindleReport.to_json_dict (JSON
with sorted keys), of the to_json_dict rows of eight N=40 spaces at their
canonical element, of the file written by `table --cap 3 --json`, and of
the stdout of `verify --cap 3 --verbose` at the default eps and at eps 0.1
(where every slice_zero_iff_knot check fails, since sin(pi/60) < 0.1).
Any change to a key, a value or a float's last digit shows up here.
"""

import hashlib
import json

import pytest
from pathlib import Path

from spindles import SpaceFamily, build_space, catalog_entry, spindle_number
from spindles.cli import main

# Eight N=40 spaces, dim g from 780 to 1599.
LARGE_FAMILIES = (
    ("AI", 19, 21),
    ("AIII", 20),
    ("BDI_split", 20),
    ("CII", 10),
    ("DIII", 10),
    ("GRP_c", 20),
    ("GRP_d", 20),
    ("GRP_bd", 41),
)

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


def test_report_rows_n40():
    rows = {}
    for params in LARGE_FAMILIES:
        family = SpaceFamily.make(*params)
        rows[str(family)] = spindle_number(build_space(family)).to_json_dict()
    assert row_digests(rows) == GOLDEN["to_json_dict_n40"]


def test_table_json_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    path = tmp_path / "table.json"
    assert main(["table", "--cap", "3", "--json", str(path)]) == 0
    capsys.readouterr()
    assert digest(path.read_bytes()) == GOLDEN["table_cap3_json"]



@pytest.mark.parametrize(
    "eps_args, code, key",
    [
        ((), 0, "verify_cap3_verbose"),
        (("--eps", "0.1"), 1, "verify_cap3_verbose_eps0.1"),
    ],
)
def test_verify_stdout(eps_args, code, key, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    assert main([*eps_args, "verify", "--cap", "3", "--verbose"]) == code
    out = capsys.readouterr().out
    assert digest(out.encode()) == GOLDEN[key]
