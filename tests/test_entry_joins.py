"""One basis form: every basis read of the d x d routes goes through the
basis entry table.

ad_matrix is two joins of the table with itself (entries that share a
column, entries that share a row), sigma_eigh splits sigma_entries by the
connected components of its nonzero pattern and returns its
eigenvectors as entries, cartan_split scatters its coefficient columns
over the table, and structural_checks reads the Gram matrix, its bracket
factors and its round trips off the table. The oracles below are the
dense routes they replaced: the bracket product with the flattened basis
tensor, np.linalg.eigh of the whole symmetrized sigma_coords and
tensordot with the tensor. No module of the package reads the tensor or
its flattenings, and the memory of the d x d steps is pinned. The seeded
bracket samples draw no self-pair, and above the exhaustive sweep the
graded check catches a sign fault in any one row of the involution's
entries.
"""

import ast
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spindles import verification
from spindles.linalg import exp_generic, mat_to_vec
from spindles.spaces import (
    SpaceFamily,
    _components,
    build_space,
    canonical_element,
    sweep_families,
)
from spindles.spindle import _frequency_clusters, ad_matrix, ad_spectrum, cartan_split
from spindles.verification import (
    EXHAUSTIVE_CLOSURE_DIM,
    RANDOM_CLOSURE_TRIALS,
    _pairs,
    structural_checks,
)
from test_golden import LARGE_FAMILIES
from test_spectrum import k_element

EPS = 1e-9
SRC = Path(__file__).resolve().parents[1] / "src" / "spindles"
CAP8 = list(sweep_families(8))
FAMILIES = CAP8 + [SpaceFamily.make(*p) for p in LARGE_FAMILIES]
DENSE_KEYS = {"basis_tensor", "basis_vecs"}


def conjugate(space, seed=1):
    """A seeded K-conjugate Ad(k) xi of the canonical element, k = exp(X)
    for a random X in k: a dense element of p."""
    k = exp_generic(k_element(space, np.random.default_rng(seed)))
    return k @ canonical_element(space.family) @ k.conj().T


def dense_eigh(space):
    """sigma_eigh with its eigenvector entries scattered into the dense
    (d, d) matrix whose columns they are."""
    w, (rows, cols, values) = space.sigma_eigh
    v = np.zeros((space.dim_g, space.dim_g))
    v[rows, cols] = values
    return w, v


def dense_ad(space, xi):
    """The oracle: <B_e, [xi, B_f]> as the product of the flattened basis
    with the flattened brackets of the basis tensor, 256 columns at a time."""
    basis, vecs = space.basis_tensor, space.basis_vecs
    columns = []
    for lo in range(0, space.dim_g, 256):
        chunk = basis[lo : lo + 256]
        columns.append(vecs @ mat_to_vec(xi @ chunk - chunk @ xi).T)
    return np.hstack(columns)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_ad_matrix_matches_dense_product(family):
    space = build_space(family)
    for xi in (canonical_element(family), conjugate(space)):
        got = ad_matrix(space, xi)
        assert got.shape == (space.dim_g, space.dim_g)
        assert float(np.max(np.abs(got - dense_ad(space, xi)))) <= 1e-13


@pytest.mark.parametrize("family", CAP8, ids=str)
def test_sigma_split_matches_dense_eigh(family):
    """The component split against one eigh of the whole symmetrized
    sigma_coords: the same eigenvalues, the same +1 and -1 eigenspaces,
    orthonormal eigenvectors, and sigma_coords rebuilt from them."""
    space = build_space(family)
    s = space.sigma_coords
    w0, v0 = np.linalg.eigh((s + s.T) / 2.0)
    w, v = dense_eigh(space)
    assert np.all(np.diff(w) >= 0.0)
    assert float(np.max(np.abs(w - w0))) <= 1e-12
    for sign in (1.0, -1.0):
        u, u0 = v[:, sign * w > 0.0], v0[:, sign * w0 > 0.0]
        assert float(np.max(np.abs(u @ u.T - u0 @ u0.T))) <= 1e-12
    assert float(np.max(np.abs(v.T @ v - np.eye(space.dim_g)))) <= 1e-12
    assert float(np.max(np.abs((v * w) @ v.T - s))) <= 1e-12


def test_sigma_components_are_small():
    """The connected components of the nonzero pattern of sigma_coords up
    to parameter 8 have at most 31 elements (the Cartan block of su(32) in
    AII(8,8)), and each eigenvector of sigma_eigh lies in one of them: its
    entries come column by column, each column's rows in order."""
    largest = {}
    for family in CAP8:
        space = build_space(family)
        s = space.sigma_coords
        label = _components(*np.nonzero(s + s.T), space.dim_g)
        largest[family.tag] = max(largest.get(family.tag, 0), int(np.bincount(label).max()))
        row, col, _ = space.sigma_eigh[1]
        assert np.array_equal(np.lexsort((row, col)), np.arange(len(col)))
        assert np.array_equal(np.unique(col), np.arange(space.dim_g))
        assert np.array_equal(label[row], label[row[np.searchsorted(col, col)]])
    assert largest == {
        "AI": 13, "AII": 31, "AIII": 13, "BDI_rank1": 1, "BDI_split": 1, "DIII": 2,
        "CI": 1, "CII": 1, "GRP_a": 13, "GRP_bd": 1, "GRP_c": 1, "GRP_d": 1,
    }


def dense_cartan_split(space, xi):
    """The oracle: cartan_split on the dense route, the dense ad(xi), eigh
    of the whole sigma_coords, the SVD from k to p and tensordot with the
    basis tensor. Returns [(k part, p part)] per cluster, the zero cluster first."""
    admat = dense_ad(space, xi)
    s = space.sigma_coords
    ew, ev = np.linalg.eigh((s + s.T) / 2.0)
    uk, up = ev[:, ew > 0], ev[:, ew < 0]
    y, sv, zt = np.linalg.svd(up.T @ admat @ uk)
    n = len(sv)
    _, groups = _frequency_clusters(space, sv[::-1])
    rank = n - len(groups[0])
    blocks = [(uk @ zt[rank:].T, up @ y[:, rank:])]
    blocks += [(uk @ zt[n - 1 - cols].T, up @ y[:, n - 1 - cols]) for cols in groups[1:]]
    return [tuple(np.tensordot(c.T, space.basis_tensor, axes=1) for c in b) for b in blocks]


def projector(space, stack):
    """The orthogonal projector, in coordinates, onto the span of a stack."""
    cols = space.basis_vecs @ mat_to_vec(stack).T if len(stack) else np.zeros((space.dim_g, 0))
    return cols @ cols.T


@pytest.mark.parametrize("family", list(sweep_families(4)), ids=str)
def test_cartan_split_spans_dense_pieces(family):
    space = build_space(family)
    for xi in (canonical_element(family), conjugate(space)):
        split = cartan_split(space, xi)
        got = [(split.k_plus, split.p_plus), *zip(split.k_nu, split.p_nu)]
        want = dense_cartan_split(space, xi)
        assert len(got) == len(want)
        for pieces, dense in zip(got, want):
            for stack, oracle in zip(pieces, dense):
                assert stack.shape == oracle.shape
                dev = np.max(np.abs(projector(space, stack) - projector(space, oracle)), initial=0.0)
                assert dev <= 1e-10


def dense_reads(source: str) -> list:
    """Attribute reads of basis_tensor or basis_vecs outside the two
    cached properties that define them."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in DENSE_KEYS:
            inside |= {id(n) for n in ast.walk(node)}
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in DENSE_KEYS and id(node) not in inside
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_dense_basis(path):
    assert dense_reads(path.read_text()) == []


def test_dense_read_guard_finds_a_read():
    source = (
        "class S:\n"
        "    def basis_vecs(self):\n"
        "        return self.basis_tensor\n"
        "def f(space):\n"
        "    return space.basis_vecs @ space.sigma_coords\n"
    )
    assert dense_reads(source) == ["basis_vecs"]


def test_family_checks_build_no_dense_basis(monkeypatch):
    """The battery reads the basis and the involution as entries: neither
    the dense basis nor the dense sigma_coords is built."""
    spaces = []
    real = verification.build_space

    def recording(family):
        spaces.append(real(family))
        return spaces[-1]

    monkeypatch.setattr(verification, "build_space", recording)
    family = SpaceFamily.make("AII", 3, 3)
    results, lam = verification._family_checks(family, EPS, None)
    assert all(r.ok for r in results) and lam == 2
    (space,) = spaces
    assert {"basis_entries", "sigma_entries", "sigma_eigh"} <= set(vars(space))
    assert not (DENSE_KEYS | {"sigma_coords"}) & set(vars(space))


def test_cartan_split_builds_no_dense_basis():
    space = build_space(SpaceFamily.make("AII", 3, 3))
    split = cartan_split(space, canonical_element(space.family))
    assert split.k_plus.shape[1:] == (space.ambient_dim, space.ambient_dim)
    assert not DENSE_KEYS & set(vars(space))


# tracemalloc peak of ad_spectrum on a fresh AII(6,6) (N = 24, dim g = 575),
# which builds the entry table, sigma_entries and sigma_eigh first: 5.5 MiB
# with ad(xi) (2.5 MiB) the one dim g x dim g array, joined from the table
# AD_JOIN_CHUNK entries at a time, and the p x k block summed over the
# eigenvector entries; 12.7 MiB while ad(xi) was one join of the whole
# table, sigma_coords dense and the eigenvectors a dense d x d matrix;
# 24.3 MiB when ad(xi) was the product of the flattened basis with three
# (dim g, N, N) bracket stacks and sigma_eigh one dense eigh. The bound
# leaves 10%.
AII66_AD_PEAK_MIB = 6.1


def test_ad_spectrum_peak_memory():
    space = build_space(SpaceFamily.make("AII", 6, 6))
    assert space.dim_g == 575
    xi = canonical_element(space.family)
    tracemalloc.start()
    try:
        spec = ad_spectrum(space, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.positive_frequencies == (1.0,)
    assert peak <= AII66_AD_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


SAMPLED_DIMS = sorted(
    {build_space(f).dim_g for f in CAP8} - set(range(EXHAUSTIVE_CLOSURE_DIM + 1))
)


def old_pairs(dim, seed):
    """The sampler as it was: two draws per pair, a self-pair kept."""
    rng = random.Random(seed)
    return [(rng.randrange(dim), rng.randrange(dim)) for _ in range(RANDOM_CLOSURE_TRIALS)]


def test_sampled_pairs_draw_no_self_pair():
    collided = set()
    for dim in SAMPLED_DIMS:
        for seed in (0, 1):
            i, j = _pairs(dim, seed)
            assert len(i) == RANDOM_CLOSURE_TRIALS and np.all(i != j)
            old = old_pairs(dim, seed)
            if any(a == b for a, b in old):
                collided.add((dim, seed))
            else:
                assert list(zip(i.tolist(), j.tolist())) == old
    # Only the graded check's draws at these dims spent a pair on a zero bracket.
    assert collided == {(45, 1), (48, 1), (55, 1), (63, 1)}


@pytest.mark.parametrize(
    "params", [("AI", 4, 5), ("AII", 2, 3), ("CII", 3), ("DIII", 3), ("GRP_a", 4, 5)], ids=str
)
def test_graded_check_catches_any_row_sign_fault(params):
    """Above the exhaustive sweep each factor of the graded check is a
    random vector of a whole eigenspace, so a sign flipped in any one row
    of the involution's entries fails it. (The sampled eigenvectors
    themselves, which each lie in a few basis elements, let 57 of the 80
    single-row faults of AI(4,5) pass, and those of one dense eigh 54.)"""
    family = SpaceFamily.make(*params)
    clean = build_space(family)
    rows, cols, values = clean.sigma_entries
    assert clean.dim_g > EXHAUSTIVE_CLOSURE_DIM
    for row in range(clean.dim_g):
        space = build_space(family)
        vars(space)["sigma_entries"] = (rows, cols, np.where(rows == row, -values, values))
        failed = {c.name.split(":", 1)[1] for c in structural_checks(space, EPS) if not c.ok}
        assert "graded_bracket_closure" in failed, row
