"""profile's rows from the integer slice lattice, against the per-row route.

cmd_profile reads every row from SpindleReport.profile_rows, which decides
it by _lattice_row from the integers k*num and den of t = k*(num/den)*pi,
with no RationalAngle per row. The oracle below is the per-row route that
profile used before, kept as it was apart from names: t = step * k as a
RationalAngle, jacobi_norm_sq with unit components, slice_dimension,
classify_time and the lowest-terms text of t/pi. The goldens pin the rows at step 1/12 only;
here each golden member is compared at ten steps, and two members with
lambda >= 10 at a step whose k*num passes 2**63, where an int64 product
would wrap.
"""

import csv
from fractions import Fraction

import pytest

from spindles.cli import main
from spindles.linalg import RationalAngle
from spindles.spaces import SpaceFamily, build_space
from spindles.spindle import classify_time, jacobi_norm_sq, slice_dimension, spindle_number
from test_golden import ANALYZE_MEMBERS

STEPS = (
    "1/12",
    "1/4",
    "1/7",
    "3/10",
    "5/3",
    "7/2",
    "2",
    "1/997",
    "123456789/1000000",
    "999999999999999999/1000000000000000000",
)


def oracle_rows(report, step: RationalAngle) -> list:
    """The CSV rows of profile as its per-row route built them."""
    spec = report.spectrum
    units = [1.0] * len(spec.positive_frequencies)
    count = report.lambda_ * step.den // step.num + 1
    rows = []
    for k in range(count):
        t = RationalAngle(step.num * k, step.den)
        rows.append([
            str(Fraction(t.num, t.den)),
            f"{float(jacobi_norm_sq(spec, units, t)):.12g}",
            str(slice_dimension(spec, t)),
            classify_time(t),
        ])
    return rows


def profile_csv(member: str, step: str, path, capsys) -> list:
    assert main(["profile", *member.split(), "--step", step, "--csv", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("member", ANALYZE_MEMBERS)
def test_rows_match_per_row_route(member, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    tag, *params = member.split()
    report = spindle_number(build_space(SpaceFamily.make(tag, *map(int, params))))
    for step in STEPS:
        header, *rows = profile_csv(member, step, tmp_path / "profile.csv", capsys)
        assert header == ["t_over_pi", "jacobi_norm_sq", "slice_dimension", "classification"]
        assert rows == oracle_rows(report, RationalAngle.parse(step)), step


@pytest.mark.parametrize("member", ["AI 9 11", "AI 49 51"])
def test_rows_past_int64(member, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPINDLE_EPS", raising=False)
    tag, *params = member.split()
    report = spindle_number(build_space(SpaceFamily.make(tag, *map(int, params))))
    step = RationalAngle.parse(STEPS[-1])
    assert report.lambda_ * step.num >= 2**63
    _, *rows = profile_csv(member, STEPS[-1], tmp_path / "profile.csv", capsys)
    assert rows == oracle_rows(report, step)


def test_rational_angles_do_not_grow_with_rows(tmp_path, constructions, capsys):
    # The per-row route built two per row.
    counts = {}
    for step in ("1/12", "1/1200"):
        constructions.clear()
        rows = profile_csv("AI 1 2", step, tmp_path / "profile.csv", capsys)
        counts[step] = (len(rows) - 1, len(constructions))
    assert counts["1/1200"][0] == 100 * (counts["1/12"][0] - 1) + 1
    assert counts["1/1200"][1] == counts["1/12"][1]
