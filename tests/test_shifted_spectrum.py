"""The d x d spectrum route: one eigh of -ad(xi)^2 + c*sigma_coords.

_spectrum_from_ad labels every eigenvector k or p by the sign of its
shifted eigenvalue. The oracle below takes two steps instead: eigh of
-ad(xi)^2 alone, then per frequency cluster the involution restricted to
the cluster, t = ub^T sigma ub, whose trace gives the k-multiplicity and
whose eigenvectors split the cluster into its k and p parts.
"""

import numpy as np
import pytest

from spindles.errors import SpectrumBucketingError
from spindles.linalg import mat_to_vec
from spindles.spaces import build_space, canonical_element, sweep_families
from spindles.spindle import (
    BUCKET_TOL,
    ZERO_FREQ_TOL,
    AdSpectrum,
    _frequency_clusters,
    _spectrum_from_ad,
    ad_matrix,
    ad_spectrum,
    cartan_split,
)

CAP8 = list(sweep_families(8))
SCALES = (1.0, 0.37, 2.5)


def oracle_spectrum(space, admat):
    """(spectrum, pieces) of the old route: eigh(-ad^2), then the trace and
    the eigenvectors of ub^T sigma ub per cluster; pieces holds the (k, p)
    coordinate columns of each cluster."""
    sq = -(admat @ admat)
    w, u = np.linalg.eigh((sq + sq.T) / 2.0)
    frequencies, groups = _frequency_clusters(space, np.sqrt(np.clip(w, 0.0, None)))
    s = space.sigma_coords
    mult_k, mult_p, pieces = [], [], []
    for cols in groups:
        ub = u[:, cols]
        t = ub.T @ s @ ub
        k_f = (len(cols) + float(np.trace(t))) / 2.0
        assert abs(k_f - round(k_f)) <= 1e-6
        mult_k.append(round(k_f))
        mult_p.append(len(cols) - round(k_f))
        tw, tv = np.linalg.eigh((t + t.T) / 2.0)
        pieces.append((ub @ tv[:, tw > 0.0], ub @ tv[:, tw <= 0.0]))
    return AdSpectrum(tuple(frequencies), tuple(mult_k), tuple(mult_p)), pieces


def shifted_eigenvalues(space, admat):
    """(w, c): the eigenvalues of M = -ad^2 + c*sigma_coords as
    _spectrum_from_ad builds M."""
    sq = -(admat @ admat)
    sq = (sq + sq.T) / 2.0
    c = 1.0 + float(np.max(np.sum(np.abs(sq), axis=1)))
    return np.linalg.eigvalsh(sq + c * space.sigma_coords), c


@pytest.fixture(scope="module", params=CAP8, ids=str)
def case(request):
    """(space, xi, ad(xi)) of one cap-8 family at its canonical element."""
    space = build_space(request.param)
    xi = canonical_element(request.param)
    return space, xi, ad_matrix(space, xi)


def test_matches_old_route(case):
    """Identical multiplicities and frequencies within 1e-12 of the old
    route, at xi and at the non-canonical 0.37*xi and 2.5*xi."""
    space, xi, admat = case
    for scale in SCALES:
        got = ad_spectrum(space, scale * xi)
        want, _ = oracle_spectrum(space, scale * admat)
        assert got.mult_k == want.mult_k, scale
        assert got.mult_p == want.mult_p, scale
        assert np.allclose(got.frequencies, want.frequencies, rtol=0.0, atol=1e-12), scale


def test_shift_margins(case):
    """Margins of the sign rule at the cap-8 canonical elements.

    Exact arithmetic puts every shifted eigenvalue at distance >= 1 from 0,
    with equality where the row-sum bound c - 1 is the largest nu^2; the
    refusal is at 1/2. Measured on all 203 families (one BLAS thread):
    the least |eigenvalue| is 1 - 7e-15, the k/p gap (least positive minus
    greatest negative eigenvalue) is at least 3.0, with 2.0 <= c <= 3.15;
    the largest zero-cluster frequency is 1.33e-7, 7.5x under
    ZERO_FREQ_TOL/10; the farthest positive frequency lies 1.0e-14 from
    its integer, 1e5x under BUCKET_TOL/1000."""
    space, _, admat = case
    w, c = shifted_eigenvalues(space, admat)
    assert np.min(np.abs(w)) >= 1.0 - 1e-12
    assert np.min(w[w > 0.0]) - np.max(w[w < 0.0]) >= 1.0
    nu = np.sqrt(np.clip(np.where(w > 0.0, w - c, w + c), 0.0, None))
    zero = nu <= ZERO_FREQ_TOL
    assert np.all(nu[zero] <= ZERO_FREQ_TOL / 10)
    positive = nu[~zero]
    assert np.all(np.abs(positive - np.round(positive)) <= BUCKET_TOL / 1000)
    assert np.all(np.round(positive) >= 1)


def _projector(cols):
    return cols @ cols.T


def _coords(space, stack):
    """Coordinate columns of a (m, N, N) stack of elements of g."""
    if len(stack) == 0:
        return np.zeros((space.dim_g, 0))
    return space.basis_vecs @ mat_to_vec(stack).T


@pytest.mark.parametrize("name", [str(f) for f in sweep_families(6)])
def test_split_spans_oracle_pieces(catalog6, name):
    """cartan_split's k_plus, p_plus, k_nu and p_nu span the oracle's
    subspaces: their orthogonal projectors agree within 1e-10."""
    family, space, _ = catalog6[name]
    xi = canonical_element(family)
    split = cartan_split(space, xi)
    _, pieces = oracle_spectrum(space, ad_matrix(space, xi))
    got = [(split.k_plus, split.p_plus), *zip(split.k_nu, split.p_nu)]
    assert len(got) == len(pieces)
    for (k, p), (want_k, want_p) in zip(got, pieces):
        for stack, cols in ((k, want_k), (p, want_p)):
            assert stack.shape[0] == cols.shape[1]
            dev = np.max(np.abs(_projector(_coords(space, stack)) - _projector(cols)), initial=0.0)
            assert dev <= 1e-10


def test_refuses_involution_off_the_spectrum():
    """A sigma that does not commute with ad(xi)^2 and is no involution is
    refused: the projector onto k plus a symmetric coupling of a k vector
    and a p vector of different frequencies, both orthogonal to xi. It
    annihilates the coordinates of xi, which -ad(xi)^2 does as well, so M
    has the eigenvalue 0."""
    family = next(f for f in CAP8 if str(f) == "AI(2,3)")
    space = build_space(family)
    xi = canonical_element(family)
    admat = ad_matrix(space, xi)
    _, pieces = oracle_spectrum(space, admat)
    k_vec = pieces[0][0][:, 0]
    p_vec = pieces[1][1][:, 0]
    s = space.sigma_coords
    bad = (np.eye(space.dim_g) + s) / 2.0 + 0.3 * (np.outer(k_vec, p_vec) + np.outer(p_vec, k_vec))
    sq = -(admat @ admat)
    assert np.linalg.norm(bad @ sq - sq @ bad) > 0.1
    vars(space)["sigma_coords"] = bad
    with pytest.raises(SpectrumBucketingError, match="within 1/2 of 0"):
        _spectrum_from_ad(space, admat)
