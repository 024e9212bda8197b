"""The slice profile against an independent rank oracle.

The Cartan embedding sends gamma(t) = exp(t*xi) to h = exp(2t*xi) and
commutes with the action of K, so the slice dimension at t is the rank of
X -> [X, h] over k: for a quotient family k is the +1 eigenspace of
sigma_coords in the basis, for a group family G = (G x G)/diag G it is
all of g, acting by conjugation. The oracle needs N x N products and a
basis of k, and no frequency or root rule.

For the group families the report's profile is the borrowed pair's, half
of the group's own (ROADMAP item 1), so those cases are strict xfails:
the fix of item 1 turns them into passes.
"""

import math

import numpy as np
import pytest

from spindles import (
    build_space,
    canonical_element,
    exp_generic,
    spindle_number,
    sweep_families,
)
from spindles.linalg import mat_to_vec
from spindles.spaces import _FAMILIES

CAP = 6
# Through cap 6 the kept singular values are >= 0.517 and the dropped ones
# <= 2.6e-15.
RANK_CUT = 1e-8
GROUP_TAGS = {tag for tag in _FAMILIES if tag.startswith("GRP_")}


def _k_basis(space, group: bool) -> np.ndarray:
    """The (dim k, N, N) basis the oracle brackets with h."""
    if group:
        return space.basis_tensor
    w, v = np.linalg.eigh(space.sigma_coords)
    return np.tensordot(v[:, w > 0.0].T, space.basis_tensor, axes=1)


def oracle_profile(space, xi, lam: int) -> list:
    """Rank of X -> [X, exp(2t*xi)] over k at t = k*pi/12, k <= min(24, 12*lam)."""
    basis = _k_basis(space, space.family.tag in GROUP_TAGS)
    dims = []
    for k in range(min(24, 12 * lam) + 1):
        h = exp_generic(xi, 2.0 * k * math.pi / 12.0)
        images = mat_to_vec(basis @ h - h @ basis)
        sv = np.linalg.svd(images, compute_uv=False)
        dims.append(int(np.sum(sv > RANK_CUT)))
    return dims


def _cases():
    for family in sweep_families(CAP):
        marks = ()
        if family.tag in GROUP_TAGS:
            marks = pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: a group family's profile is its pair's, half its own",
            )
        yield pytest.param(family, id=str(family), marks=marks)


@pytest.mark.parametrize("family", _cases())
def test_slice_profile_is_the_rank_of_the_commutator(family):
    space = build_space(family)
    report = spindle_number(space)
    want = oracle_profile(space, canonical_element(family), report.lambda_)
    got = [dim for _, dim in report.slice_profile[: len(want)]]
    assert got == want
