"""Each record derived from a spectrum points to it instead of copying it.

A SpindleReport holds the space it analysed and the AdSpectrum that
spindle_number read off the eigenvalues of xi; its dimensions, center,
cover and frequencies are read through those two. A CartanSplit holds the
AdSpectrum of the ad(xi) matrix whose eigenspaces it split.
"""

from dataclasses import fields

import pytest

from spindles import CartanSplit, SpindleReport
from spindles.linalg import _eigh_trusted, ensure_square, resolve_eps
from spindles.spaces import canonical_element
from spindles.spindle import _root_spectrum, ad_spectrum, cartan_split
from test_spectrum import CAP6

EPS = 1e-9


def test_report_fields():
    assert [f.name for f in fields(SpindleReport)] == [
        "space",
        "spectrum",
        "lambda_",
        "method_exact",
        "method_numeric",
        "extrinsically_symmetric",
        "checks",
    ]


def test_split_fields():
    assert [f.name for f in fields(CartanSplit)] == ["spectrum", "k_plus", "p_plus", "k_nu", "p_nu"]


@pytest.mark.parametrize("name", CAP6)
def test_report_holds_its_space_and_spectrum(catalog6, name):
    _, space, report = catalog6[name]
    assert report.space is space
    xi = ensure_square(canonical_element(space.family))
    w, _ = _eigh_trusted(xi, resolve_eps(EPS), "test")
    assert report.spectrum == _root_spectrum(space, w, EPS)[0]


@pytest.mark.parametrize("name", CAP6)
def test_split_holds_the_ad_spectrum(catalog6, name):
    _, space, _ = catalog6[name]
    xi = canonical_element(space.family)
    assert cartan_split(space, xi).spectrum == ad_spectrum(space, xi)
