"""sigma_coords as a join of the basis entry table with sigma's signed
permutation of entry positions, against the dense product it replaced.

The oracle is the earlier code: the flattened basis times the flattened
sigma image of every basis element, a dim g x 2N^2 by 2N^2 x dim g
product. The join must stay within 1e-15 of it on every cap-8 family and
on the eight N = 40 spaces. A sigma that mixes entries, or conjugates
some entries and not others, is refused with the family's name. The join
builds neither basis_vecs nor a sigma image of the basis, and its memory
peak on AI(19,21) is pinned.
"""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spindles import spaces
from spindles.errors import CatalogInconsistencyError
from spindles.linalg import mat_to_vec
from spindles.spaces import SpaceFamily, SpaceInstance, build_space, sweep_families
from test_golden import LARGE_FAMILIES

FAMILIES = list(sweep_families(8)) + [SpaceFamily.make(*p) for p in LARGE_FAMILIES]


def dense_sigma_coords(space):
    """The oracle: <B_e, sigma(B_f)> as one product of the flattenings."""
    basis = space.basis_tensor
    return mat_to_vec(basis) @ mat_to_vec(space._sigma(basis)).T


def test_family_count():
    assert len(FAMILIES) == 211


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_matches_dense_product(family):
    space = build_space(family)
    got = space.sigma_coords
    assert got.dtype == np.float64 and got.flags.c_contiguous
    want = dense_sigma_coords(space)
    assert got.shape == want.shape == (space.dim_g, space.dim_g)
    assert float(np.max(np.abs(got - want))) <= 1e-15


def mixes_entries(x, *params):
    """Half of conj(x) plus half of its transpose: each entry of the image
    draws on two entries of x."""
    return (x.conj() + np.swapaxes(x, -1, -2)) / 2.0


def conjugates_upper_half(x, *params):
    """conj(x) on and above the diagonal, x below: a signed permutation of
    the entries whose conjugation is not the same for all of them."""
    upper = np.triu(np.ones(x.shape[-2:], dtype=bool))
    return np.where(upper, x.conj(), x)


@pytest.mark.parametrize("sigma", [mixes_entries, conjugates_upper_half])
@pytest.mark.parametrize("params", [("AI", 2, 3), ("AII", 1, 2), ("CI", 2), ("DIII", 1)], ids=str)
def test_refuses_non_permutation(monkeypatch, params, sigma):
    family = SpaceFamily.make(*params)
    spec = spaces._FAMILIES[family.tag]
    monkeypatch.setitem(spaces._FAMILIES, family.tag, replace(spec, sigma=sigma))
    space = build_space(family)
    message = f"{re.escape(str(family))}: sigma is not a signed permutation"
    with pytest.raises(CatalogInconsistencyError, match=message):
        space.sigma_coords
    assert "sigma_coords" not in vars(space)


def test_builds_no_dense_data(monkeypatch):
    """sigma is applied to N x N probes only, never to the basis stack,
    and basis_vecs is not built."""
    shapes = []
    plain = SpaceInstance._sigma

    def recorded(self, m):
        shapes.append(m.shape)
        return plain(self, m)

    monkeypatch.setattr(SpaceInstance, "_sigma", recorded)
    space = build_space(SpaceFamily.make("AI", 19, 21))
    space.sigma_coords
    assert "basis_vecs" not in vars(space)
    assert shapes == [(40, 40)] * 2


# tracemalloc peak of sigma_coords on AI(19,21) (N = 40, dim g = 1599),
# basis included: 60.5 MiB while the entry table was read off the basis
# tensor (39.0 MiB), 21.5 MiB now that the table is the basis, most of it
# the result (19.5 MiB); tests/test_basis_entries.py pins the latter. The
# dense product measured 156.2 MiB. Any (dim g, 2N^2) flattening or
# (dim g, N, N) sigma image adds 39.0 MiB to the tensor and breaks the bound.
AI1921_PEAK_MIB = 64.0


def test_sigma_coords_peak_memory():
    space = build_space(SpaceFamily.make("AI", 19, 21))
    tracemalloc.start()
    try:
        space.sigma_coords
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= AI1921_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"
