"""Products with J_n = [[0, -I], [I, 0]] as block swaps, commutation with
a signature as an elementwise product, and the involution sigma as a map.

J is a signed permutation, so x @ J and J @ x are x with its halves
swapped and one of them negated, exactly. The isotropy predicates of AII,
CII, DIII and CI and the sp(n) projector use the swaps instead of building
J and multiplying. Likewise g S - S g for S = diag(s), s a vector of
signs, has the entries g_ij (s_j - s_i), and the predicates of AIII, BDI
and CII read them so instead of building S. Each family's sigma was
M @ op(X) @ M* for a signed permutation M (the identity, J or a
signature) and op the identity or entrywise conjugation; it is now a map
built from conj, the J swaps and a sign flip, with no N x N matrix. The
oracles below are the matrix forms they replaced, kept verbatim apart
from names; the new forms must give the same arrays (for sigma, up to the
sign of zeros, which _sigma makes +0.0 as the product did) and the same
decisions on every return-scan candidate exp(n*pi*xi) of the cap-8
families. The group families GRP_a, GRP_c and GRP_d take their matrix
realization from AI, CI and BDI_split, and GRP_bd(n) states that of
BDI_rank1(1, n - 1).
"""

import math

import numpy as np
import pytest

from spindles.linalg import _eigh_trusted, _exp_eigh, _is_real, ensure_square, resolve_eps
from spindles.spaces import (
    _FAMILIES,
    SpaceFamily,
    _block_diag,
    _commutes_diag,
    _det_one,
    _in_sp_times_sp,
    _j_matrix,
    _j_times,
    _quaternionic,
    _signature,
    _signs,
    _sp_project,
    _times_j,
    _u_project,
    build_space,
    canonical_element,
    isotropy_contains,
    sweep_families,
)
from spindles.spindle import _divisors, _phase_lcm, _rational_phases

EPS = 1e-9


def random_complex(size, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))


@pytest.mark.parametrize("size", range(2, 41, 2))
def test_swaps_equal_products_byte_for_byte(size):
    x = random_complex(size, size)
    j = _j_matrix(size // 2)
    assert _times_j(x).tobytes() == (x @ j).tobytes()
    assert _j_times(x).tobytes() == (j @ x).tobytes()


@pytest.mark.parametrize("size", range(2, 21, 2))
def test_swaps_equal_products_on_stacks(size):
    x = np.stack([random_complex(size, seed) for seed in range(3)])
    j = _j_matrix(size // 2)
    assert _times_j(x).tobytes() == (x @ j).tobytes()
    assert _j_times(x).tobytes() == (j @ x).tobytes()


# The involution as it was stated: (sigma_conj, sigma_matrix) per family.
ORACLE_SIGMA = {
    "AI": (True, lambda p, q: np.eye(p + q, dtype=complex)),
    "AII": (True, lambda p, q: _j_matrix(p + q)),
    "AIII": (False, lambda n: _signature(n, n)),
    "BDI_rank1": (False, _signature),
    "BDI_split": (False, lambda n: _signature(n, n)),
    "DIII": (False, lambda n: _j_matrix(2 * n)),
    "CI": (False, _j_matrix),
    "CII": (False, lambda n: _signature(n, n, n, n)),
    "GRP_a": (True, lambda p, q: np.eye(p + q, dtype=complex)),
    "GRP_bd": (False, lambda n: _signature(1, n - 1)),
    "GRP_c": (False, _j_matrix),
    "GRP_d": (False, lambda n: _signature(n, n)),
}


def oracle_sigma(family, m):
    conj, matrix = ORACLE_SIGMA[family.tag]
    sigma_matrix = matrix(*family.params)
    core = m.conj() if conj else m
    return sigma_matrix @ core @ sigma_matrix.conj().T


def random_stack(size, seed, depth=3):
    return np.stack([random_complex(size, seed + i) for i in range(depth)])


@pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
def test_sigma_map_equals_dense_product(family):
    space = build_space(family)
    size = space.ambient_dim
    single = random_complex(size, 1)
    fortran = np.asfortranarray(single)
    for x in (random_stack(size, 2), space.basis_tensor, single, fortran):
        got = space._sigma(x)
        assert got.flags.c_contiguous
        assert got.tobytes() == (oracle_sigma(family, x) + 0.0).tobytes()
    assert space.apply_sigma(fortran).tobytes() == space._sigma(single).tobytes()


def oracle_commutes(a, b, eps):
    return float(np.max(np.abs(a @ b - b @ a))) <= eps


def oracle_double_signature(n):
    return _block_diag(_signature(n, n), _signature(n, n))


def oracle_in_so_times_so(g, tol, p, q):
    return (
        _is_real(g, tol)
        and oracle_commutes(g, _signature(p, q), tol)
        and all(_det_one(block, tol) for block in (g[:p, :p], g[p:, p:]))
    )


def oracle_quaternionic(g, tol, p, q):
    j = _j_matrix(p + q)
    return float(np.max(np.abs(g @ j - j @ g.conj()))) <= tol


def oracle_in_sp_times_sp(g, tol, n):
    j = _j_matrix(2 * n)
    symplectic = float(np.max(np.abs(g.T @ j @ g - j))) <= tol
    return symplectic and oracle_commutes(g, oracle_double_signature(n), tol)


def oracle_real_commuting_with_j(g, tol, half):
    return _is_real(g, tol) and oracle_commutes(g, _j_matrix(half), tol)


def oracle_sp_project(x):
    a = _u_project(x)
    n = len(a) // 2
    t = a.T
    jtj = np.block([[-t[n:, n:], t[n:, :n]], [t[:n, n:], -t[:n, :n]]])
    return (a + jtj) / 2.0


def scan_candidates(family):
    """exp(n*pi*xi) at the canonical xi for every divisor n of n_max, the
    matrices the return scan may test."""
    xi = ensure_square(canonical_element(family))
    w, v = _eigh_trusted(xi, resolve_eps(EPS), "scan_candidates")
    return [_exp_eigh(w, v, n * math.pi) for n in _divisors(2 * _phase_lcm(_rational_phases(w)))]


def families(*tags):
    return [f for f in sweep_families(8) if f.tag in tags]


@pytest.mark.parametrize("family", families("AII", "CII", "DIII", "CI"), ids=str)
def test_isotropy_matches_j_matrix_form(family):
    space = build_space(family)
    params = family.params
    oracle = {
        "AII": lambda g: oracle_quaternionic(g, EPS, *params),
        "CII": lambda g: oracle_in_sp_times_sp(g, EPS, *params),
        "DIII": lambda g: oracle_real_commuting_with_j(g, EPS, 2 * params[0]),
        "CI": lambda g: oracle_real_commuting_with_j(g, EPS, params[0]),
    }[family.tag]
    decisions = []
    for g in scan_candidates(family):
        got = isotropy_contains(space, g, EPS)
        assert got == oracle(g)
        decisions.append(got)
    assert any(decisions)


@pytest.mark.parametrize("family", families("AIII", "BDI_rank1", "BDI_split", "CII"), ids=str)
def test_isotropy_matches_signature_matrix_form(family):
    space = build_space(family)
    params = family.params
    oracle = {
        "AIII": lambda g: oracle_commutes(g, _signature(*params, *params), EPS)
        and _det_one(g, EPS),
        "BDI_rank1": lambda g: oracle_in_so_times_so(g, EPS, *params),
        "BDI_split": lambda g: oracle_in_so_times_so(g, EPS, *params, *params),
        "CII": lambda g: oracle_in_sp_times_sp(g, EPS, *params),
    }[family.tag]
    decisions = []
    for g in scan_candidates(family):
        got = isotropy_contains(space, g, EPS)
        assert got == oracle(g)
        decisions.append(got)
    assert any(decisions)


@pytest.mark.parametrize("size", range(2, 41))
def test_sign_residuals_equal_matrix_products(size):
    # Every split p of a random complex matrix: the largest entry, which
    # the predicates compare with tol, is the same float.
    g = random_complex(size, size)
    for p in range(1, size):
        s = _signs(p, size - p)
        want = float(np.max(np.abs(g @ _signature(p, size - p) - _signature(p, size - p) @ g)))
        assert float(np.max(np.abs(g * (s - s[:, None])))) == want
        assert _commutes_diag(g, s, want) and not _commutes_diag(g, s, want / 2)


def test_four_block_signature_is_the_cii_involution():
    for n in range(1, 6):
        assert _signature(n, n, n, n).tobytes() == oracle_double_signature(n).tobytes()


def test_residuals_equal_j_matrix_form():
    for family in families("AII", "CII"):
        for g in scan_candidates(family):
            j = _j_matrix(g.shape[0] // 2)
            assert np.array_equal(_times_j(g) - _j_times(g.conj()), g @ j - j @ g.conj())
            assert np.array_equal(_times_j(g.T) @ g, g.T @ j @ g)


def test_decisions_cover_both_outcomes():
    # AII(1,2) has lambda 3 and n_max 6: n = 1 fails and n = 3 passes, in
    # both forms. CII(2) has lambda 2 and n_max 4.
    g1, _, g3, _ = scan_candidates(SpaceFamily.make("AII", 1, 2))
    assert not _quaternionic(g1, EPS, 1, 2) and not oracle_quaternionic(g1, EPS, 1, 2)
    assert _quaternionic(g3, EPS, 1, 2) and oracle_quaternionic(g3, EPS, 1, 2)
    g1, g2 = scan_candidates(SpaceFamily.make("CII", 2))[:2]
    assert not _in_sp_times_sp(g1, EPS, 2) and not oracle_in_sp_times_sp(g1, EPS, 2)
    assert _in_sp_times_sp(g2, EPS, 2) and oracle_in_sp_times_sp(g2, EPS, 2)


@pytest.mark.parametrize("family", families("CI", "CII", "GRP_c"), ids=str)
def test_sp_project_matches_block_form(family):
    size = family.ambient_dim
    xs = scan_candidates(family) + [canonical_element(family), random_complex(size, size)]
    for x in xs:
        assert _sp_project(x).tobytes() == oracle_sp_project(x).tobytes()


# Each group family and the pair whose matrix realization it has: GRP_a,
# GRP_c and GRP_d take the records of AI, CI and BDI_split, and GRP_bd(n)
# states that of BDI_rank1(1, n - 1).
GROUP_PAIRS = [
    (f, SpaceFamily.make({"GRP_a": "AI", "GRP_c": "CI", "GRP_d": "BDI_split"}[f.tag], *f.params))
    for f in families("GRP_a", "GRP_c", "GRP_d")
] + [(SpaceFamily.make("GRP_bd", n), SpaceFamily.make("BDI_rank1", 1, n - 1)) for n in range(3, 13)]


@pytest.mark.parametrize("group, pair", GROUP_PAIRS, ids=str)
def test_group_realization_is_its_pairs(group, pair):
    spec, pair_spec = group._spec, pair._spec
    assert group.ambient_dim == pair.ambient_dim
    assert spec.k_dim(*group.params) == pair_spec.k_dim(*pair.params)
    for name in ("basis", "dim_g", "roots", "project"):
        assert getattr(spec, name) is getattr(pair_spec, name)
    assert group.closed_form == pair.closed_form
    assert canonical_element(group).tobytes() == canonical_element(pair).tobytes()
    x = random_stack(group.ambient_dim, 5)
    assert build_space(group)._sigma(x).tobytes() == build_space(pair)._sigma(x).tobytes()


def test_groups_are_not_identity_components():
    # K is the whole fixed group of the swap; BDI_split's True would change
    # GRP_d's lambda through stated_membership.
    groups = [tag for tag in _FAMILIES if tag.startswith("GRP_")]
    assert groups == ["GRP_a", "GRP_bd", "GRP_c", "GRP_d"]
    assert not any(_FAMILIES[tag].identity_component for tag in groups)
