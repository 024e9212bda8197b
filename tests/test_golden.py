"""Serialized output pinned byte for byte.

tests/golden_rows.json holds a short SHA-256 digest of every cap-6
catalog row, as catalog_entry and as SpindleReport.to_json_dict (JSON
with sorted keys), of the to_json_dict rows of eight N=40 spaces at their
canonical element, of the file written by `table --cap 3 --json`, of
the stdout of `verify --cap 3 --verbose` at the default eps and at eps 0.1
(where every slice_zero_iff_knot check fails, since sin(pi/60) < 0.1),
of the stdout of `analyze` for one member of each family, of `profile`
(stdout and --csv file) for AI(2,4) and GRP_bd(5), of `table --cap 3`
(stdout and --csv file),
and of the stdout of the whole cap-6 battery, `verify --cap 6 --verbose`
(2,752 checks, every printed residual included, run with one BLAS thread),
and of the basis tensor of su(m) and so(m) for m <= 12 and of sp(n) for
2n <= 12, scattered from the algebra's entry table, as
(tensor + 0.0).tobytes(), so that -0.0 and 0.0 agree.
Any change to a key, a value or a float's last digit shows up here.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from pathlib import Path

import spindles
from spindles import SpaceFamily, build_space, catalog_entry, spaces, spindle_number
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

# One member of each of the twelve families, as `analyze` arguments.
ANALYZE_MEMBERS = (
    "AI 2 3", "AII 1 2", "AIII 3", "BDI_rank1 2 3", "BDI_split 3", "DIII 2",
    "CI 3", "CII 2", "GRP_a 1 2", "GRP_bd 5", "GRP_c 2", "GRP_d 3",
)
PROFILE_MEMBERS = ("AI 2 4", "GRP_bd 5")

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


@pytest.mark.parametrize("member", ANALYZE_MEMBERS)
def test_analyze_stdout(member, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    assert main(["analyze", *member.split()]) == 0
    assert digest(capsys.readouterr().out.encode()) == GOLDEN["analyze_stdout"][member]


@pytest.mark.parametrize("member", PROFILE_MEMBERS)
def test_profile_outputs(member, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    path = tmp_path / "profile.csv"
    assert main(["profile", *member.split(), "--step", "1/12", "--csv", str(path)]) == 0
    got = {"stdout": digest(capsys.readouterr().out.encode()), "csv": digest(path.read_bytes())}
    assert got == GOLDEN["profile_step_1/12"][member]


def test_table_stdout_and_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    path = tmp_path / "table.csv"
    assert main(["table", "--cap", "3", "--csv", str(path)]) == 0
    got = {"stdout": digest(capsys.readouterr().out.encode()), "csv": digest(path.read_bytes())}
    assert got == GOLDEN["table_cap3"]


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


def test_verify_cap6_stdout():
    # A printed residual that comes from a BLAS product large enough for
    # OpenBLAS to split over threads may move in its last digits (the
    # structural checks' residuals no longer come from one). The digest is
    # of the one-thread output, so the CLI runs in a child process with
    # BLAS pinned to one thread.
    env = {k: v for k, v in os.environ.items() if k != "SPINDLE_EPS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(spindles.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from spindles.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--cap", "6", "--verbose"],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert digest(proc.stdout) == GOLDEN["verify_cap6_verbose"]


@pytest.mark.parametrize("name", GOLDEN["basis_tensor"])
def test_basis_tensor(name):
    algebra, size = name[:2], int(name[3:-1])
    element, position, value = getattr(spaces, f"_{algebra}_basis")(size)
    tensor = np.zeros((element[-1] + 1, size * size), dtype=complex)
    tensor[element, position] = value
    assert digest((tensor + 0.0).tobytes()) == GOLDEN["basis_tensor"][name]
