"""The report's derived views: knots, centrioles, slice profile and length.

SpindleReport stores what the analysis decides (lambda, the spectrum, the
checks) and computes the four views from lambda, the integer frequencies
and mult_p when they are read. to_json_dict writes their text from
integers. Here the JSON text must equal the text of the property views,
and neither spindle_number nor to_json_dict may build the RationalAngles
that only the views need.
"""

from fractions import Fraction

import pytest

from spindles import cli
from spindles.linalg import RationalAngle
from spindles.spaces import SpaceFamily, build_space, sweep_families
from spindles.spindle import spindle_number

FAMILIES = list(sweep_families(8)) + [
    SpaceFamily.make("AI", 49, 51),
    SpaceFamily.make("GRP_a", 31, 64),
]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_json_text_matches_views(family):
    report = spindle_number(build_space(family))
    payload = report.to_json_dict()
    lam = report.lambda_
    assert len(report.knot_times) == len(report.centriole_times) == lam
    assert len(report.slice_profile) == 12 * lam + 1
    assert payload["knot_times"] == [str(t) for t in report.knot_times]
    assert payload["centriole_times"] == [str(t) for t in report.centriole_times]
    assert payload["geodesic_length_over_norm"] == str(report.geodesic_length_over_norm)
    assert payload["slice_profile"] == [
        {"t_over_pi": str(Fraction(t.num, t.den)), "dim": dim} for t, dim in report.slice_profile
    ]


def test_views_are_rational_angles_on_the_lattice():
    report = spindle_number(build_space(SpaceFamily.make("AI", 1, 5)))
    assert report.knot_times == tuple(RationalAngle(n) for n in range(6))
    assert report.centriole_times == tuple(RationalAngle(2 * n + 1, 2) for n in range(6))
    assert report.geodesic_length_over_norm == RationalAngle(6)
    assert [t for t, _ in report.slice_profile] == [RationalAngle(k, 12) for k in range(73)]
    assert all(type(dim) is int for _, dim in report.slice_profile)


def test_report_path_builds_no_view_angles(constructions):
    space = build_space(SpaceFamily.make("AI", 49, 51))
    report = spindle_number(space)
    # method_exact's one question, at t = D*pi; a search built one per
    # n <= lambda, and the stored views about 15*lambda more.
    assert report.lambda_ == 100
    assert 0 < len(constructions) <= 1

    constructions.clear()
    report.to_json_dict()
    cli._row(report)
    assert constructions == []

    # The counter sees the views when they are read.
    report.knot_times
    report.slice_profile
    assert len(constructions) == report.lambda_ + 12 * report.lambda_ + 1
