"""The basis as its entry table.

Each algebra's basis is the table (element, position r*N + c, value) of
its nonzero entries, ordered by element and then by position; the dense
(dim g, N, N) tensor is one scatter of it. The table must equal, bit for
bit, the np.nonzero scan of that tensor that it replaced, on every cap-8
family and on the eight N = 40 spaces. to_coords and from_coords are sums
over the table and must agree with the dense products they replaced
within 1e-14. Neither they nor sigma_coords build the tensor or its
flattenings, and the memory peak of a K-conjugate's input path on
AI(19,21) is pinned. from_coords refuses coordinates of the wrong shape.
"""

import re
import tracemalloc

import numpy as np
import pytest

from spindles.errors import DimensionMismatchError
from spindles.linalg import mat_to_vec
from spindles.spaces import SpaceFamily, build_space, canonical_element, sweep_families
from test_golden import LARGE_FAMILIES

FAMILIES = list(sweep_families(8)) + [SpaceFamily.make(*p) for p in LARGE_FAMILIES]


def nonzero_entries(space):
    """The oracle: the nonzero entries of the flattened basis tensor, as
    np.nonzero lists them (element-major, then by position)."""
    flat = space.basis_tensor.reshape(space.dim_g, -1)
    element, position = np.nonzero(flat)
    return element, position, flat[element, position]


def test_family_count():
    assert len(FAMILIES) == 211


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_matches_nonzero_scan(family):
    space = build_space(family)
    element, position, value = space.basis_entries
    want_element, want_position, want_value = nonzero_entries(space)
    assert np.array_equal(element, want_element)
    assert np.array_equal(position, want_position)
    assert value.dtype == want_value.dtype == complex
    assert value.tobytes() == want_value.tobytes()


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_ordered_nonzero_and_unique(family):
    space = build_space(family)
    element, position, value = space.basis_entries
    n = space.ambient_dim
    assert len(element) == len(position) == len(value)
    assert np.all(value != 0)
    assert np.all((position >= 0) & (position < n * n))
    # Every element has 1 to N entries, listed with ascending positions:
    # no (element, position) pair twice.
    counts = np.bincount(element, minlength=space.dim_g)
    assert len(counts) == space.dim_g and counts.min() >= 1 and counts.max() <= n
    step = np.diff(element)
    assert np.all(step >= 0)
    assert np.all(np.diff(position)[step == 0] > 0)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_coords_match_dense_products(family):
    space = build_space(family)
    rng = np.random.default_rng(7)
    n = space.ambient_dim
    c = rng.standard_normal(space.dim_g)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    from_dense = np.tensordot(c, space.basis_tensor, axes=1)
    to_dense = space.basis_vecs @ mat_to_vec(z)
    x = space.from_coords(c)
    assert x.shape == (n, n) and x.dtype == complex
    assert float(np.max(np.abs(x - from_dense))) <= 1e-14
    assert float(np.max(np.abs(space.to_coords(z) - to_dense))) <= 1e-14


def test_no_dense_basis_for_coords():
    """sigma_coords, to_coords and from_coords read the table only."""
    family = SpaceFamily.make("AI", 19, 21)
    space = build_space(family)
    c = space.to_coords(canonical_element(family))
    space.from_coords(space.sigma_coords @ c)
    assert "basis_tensor" not in vars(space)
    assert "basis_vecs" not in vars(space)


# tracemalloc peak of the K-conjugate input path on AI(19,21) (N = 40,
# dim g = 1599), sigma_coords and the entry table included: 21.5 MiB, most
# of it sigma_coords itself (19.5 MiB). It was 60.5 MiB while the table
# was scanned off the (dim g, N, N) tensor (39.0 MiB), which from_coords
# also summed over; building that tensor again breaks the bound.
AI1921_INPUT_PEAK_MIB = 24.0


def test_input_path_peak_memory():
    space = build_space(SpaceFamily.make("AI", 19, 21))
    c = np.random.default_rng(0).standard_normal(space.dim_g)
    tracemalloc.start()
    try:
        space.from_coords((c + space.sigma_coords @ c) / 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= AI1921_INPUT_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "params", [("AI", 1, 2), ("CII", 2), ("BDI_split", 3)], ids=lambda p: str(SpaceFamily.make(*p))
)
@pytest.mark.parametrize("shape", ["short", "long", "2-D"])
def test_from_coords_refuses_wrong_shape(params, shape):
    family = SpaceFamily.make(*params)
    space = build_space(family)
    d = space.dim_g
    coords = {
        "short": np.ones(d - 1),
        "long": np.ones(d + 1),
        "2-D": np.ones((1, d)),
    }[shape]
    message = (
        f"{re.escape(str(family))}: expected {d} coordinates \\(dim g\\), "
        f"got shape {re.escape(str(coords.shape))}"
    )
    with pytest.raises(DimensionMismatchError, match=message):
        space.from_coords(coords)


def test_to_coords_refuses_wrong_size():
    family = SpaceFamily.make("CII", 2)
    space = build_space(family)
    for n in (space.ambient_dim - 1, space.ambient_dim + 1):
        with pytest.raises(DimensionMismatchError, match=rf"CII\(2\): expected size 8, got {n}"):
            space.to_coords(np.zeros((n, n)))
