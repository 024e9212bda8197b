"""The d x d spectrum route: one SVD of the p x k block of ad(xi).

_spectrum_from_ad takes bases of k and p from the eigenvector entries of
the involution (space.sigma_eigh) and reads the frequencies and the pieces
k_nu, p_nu off the singular values and vectors of ad(xi) from k to p.
Two oracles check it. The two-step one: eigh of -ad(xi)^2 alone, then per
frequency cluster the involution restricted to the cluster,
t = ub^T sigma ub, whose trace gives the k-multiplicity and whose
eigenvectors split the cluster into its k and p parts. The shifted one:
one eigh of -ad(xi)^2 + c*sigma_coords, each eigenvector labelled k or p
by the sign of its eigenvalue.
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
from test_entry_joins import dense_eigh

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
    shifted_spectrum builds M."""
    sq = -(admat @ admat)
    sq = (sq + sq.T) / 2.0
    c = 1.0 + float(np.max(np.sum(np.abs(sq), axis=1)))
    return np.linalg.eigvalsh(sq + c * space.sigma_coords), c


def shifted_spectrum(space, admat):
    """The spectrum of the shifted route. For xi in p, -ad(xi)^2 commutes
    with sigma, and M = -ad(xi)^2 + c*sigma_coords, with c one more than
    the largest absolute row sum of -ad(xi)^2 (a bound on its eigenvalues
    nu^2), has the eigenvalue nu^2 + c >= 1 on k_nu and nu^2 - c <= -1 on
    p_nu: the sign of each eigenvalue mu is its k/p label, and nu is
    sqrt(mu - c) on k, sqrt(mu + c) on p."""
    w, c = shifted_eigenvalues(space, admat)
    assert np.min(np.abs(w)) >= 0.5
    in_k = w > 0.0
    nu = np.sqrt(np.clip(np.where(in_k, w - c, w + c), 0.0, None))
    order = np.argsort(nu, kind="stable")
    frequencies, groups = _frequency_clusters(space, nu[order])
    mult_k = tuple(int(np.sum(in_k[order[g]])) for g in groups)
    mult_p = tuple(len(g) - m for g, m in zip(groups, mult_k))
    return AdSpectrum(tuple(frequencies), mult_k, mult_p)


@pytest.fixture(scope="module", params=CAP8, ids=str)
def case(request):
    """(space, xi, ad(xi)) of one cap-8 family at its canonical element."""
    space = build_space(request.param)
    xi = canonical_element(request.param)
    return space, xi, ad_matrix(space, xi)


def test_matches_old_route(case):
    """Identical multiplicities and frequencies within 1e-12 of both old
    routes, at xi and at the non-canonical 0.37*xi and 2.5*xi."""
    space, xi, admat = case
    for scale in SCALES:
        got = ad_spectrum(space, scale * xi)
        for want in (oracle_spectrum(space, scale * admat)[0], shifted_spectrum(space, scale * admat)):
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


def test_svd_margins(case):
    """Margins of the SVD route at the cap-8 canonical elements.

    Measured on all 203 families (one BLAS thread): every eigenvalue of
    sigma_coords lies within 2.4e-15 of +-1, against the refusal at 1/2;
    the largest zero-cluster singular value is 7.2e-16, against
    ZERO_FREQ_TOL = 1e-5 (the shifted route's zero frequencies reached
    1.33e-7); the farthest positive singular value lies 8.9e-16 from its
    integer, against BUCKET_TOL = 1e-6."""
    space, _, admat = case
    ew, ev = dense_eigh(space)
    assert np.max(np.abs(np.abs(ew) - 1.0)) <= 1e-13
    sv = np.linalg.svd(ev[:, ew < 0].T @ admat @ ev[:, ew > 0], compute_uv=False)
    zero = sv <= ZERO_FREQ_TOL
    assert np.all(sv[zero] <= 1e-13)
    positive = sv[~zero]
    assert np.all(np.abs(positive - np.round(positive)) <= 1e-13)
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
    annihilates the coordinates of xi, so it has the eigenvalue 0, a full
    1 away from +-1. It replaces the space's sigma_entries, which
    sigma_eigh reads."""
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
    rows, cols = np.nonzero(bad)
    vars(space)["sigma_entries"] = (rows, cols, bad[rows, cols])
    with pytest.raises(SpectrumBucketingError, match="farther than 1/2 from"):
        _spectrum_from_ad(space, admat)


def test_refuses_a_positive_cluster_at_the_zero_threshold():
    """Six frequencies one ulp above ZERO_FREQ_TOL stay out of the zero
    cluster, but their mean rounds down to ZERO_FREQ_TOL itself: that
    cluster is refused, not reported as a positive frequency."""
    space = build_space(CAP8[0])
    nu = np.full(6, np.nextafter(ZERO_FREQ_TOL, 1))
    assert np.all(nu > ZERO_FREQ_TOL) and float(np.mean(nu)) <= ZERO_FREQ_TOL
    with pytest.raises(SpectrumBucketingError, match="below the zero threshold"):
        _frequency_clusters(space, nu)


def test_refuses_a_cluster_chained_wider_than_the_tolerance():
    """Gaps of 0.9e-6, each under BUCKET_TOL, chain three frequencies into
    one cluster 1.8e-6 wide: that cluster is refused."""
    space = build_space(CAP8[0])
    nu = np.array([0.5, 0.5 + 0.9e-6, 0.5 + 1.8e-6])
    assert np.all(np.diff(nu) <= BUCKET_TOL) and nu[-1] - nu[0] > BUCKET_TOL
    with pytest.raises(SpectrumBucketingError, match="wider than"):
        _frequency_clusters(space, nu)
