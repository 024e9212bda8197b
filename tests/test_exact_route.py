"""The exact route: one membership rule from the eigenphases of xi.

method_exact reads only the eigenvalues w of -i*xi. With D the least
common denominator of the phases, exp(n*pi*xi) is fixed by the involution
exactly for n in D*Z, and the two BDI families add a block-determinant
parity that 2*D always meets, so lambda is D or 2*D times the cover.

The oracle below is the earlier exact route, kept verbatim apart from
names: five per-family rules on t/pi, written for the canonical element,
and a search over n <= 4*sum(params) + 8. The rule must agree with it on
every cap-12 canonical element, and with the numeric return scan on
K-conjugates of rational points of a maximal abelian subalgebra a of p,
where the old rules did not apply.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindles import spaces
from spindles.errors import MembershipSearchError, MethodDisagreementError
from spindles.linalg import RationalAngle, exp_generic
from spindles.spaces import (
    FAMILY_TAGS,
    SpaceFamily,
    build_space,
    canonical_element,
    stated_membership,
    sweep_families,
)
from spindles.spindle import _rational_phases, method_exact, method_numeric, spindle_number

EPS = 1e-9


def oracle_phase_rule(f, p, q):
    """t*a and t*b in pi*Z for the phases a, b of the diagonal element."""
    return (f * q) % (p + q) == 0 and (f * p) % (p + q) == 0


def oracle_even_rule(f, *_):
    """t in 2*pi*Z."""
    return f % 2 == 0


ORACLE_RULES = {
    "AI": oracle_phase_rule,
    "AII": oracle_phase_rule,
    "AIII": oracle_even_rule,
    "BDI_rank1": oracle_even_rule,
    "BDI_split": lambda f, n: f % 2 == 0 and (n % 2 == 0 or f % 4 == 0),
    "DIII": oracle_even_rule,
    "CI": oracle_even_rule,
    "CII": oracle_even_rule,
    "GRP_a": oracle_phase_rule,
    "GRP_bd": lambda f, n: f % 1 == 0,
    "GRP_c": oracle_even_rule,
    "GRP_d": oracle_even_rule,
}


def oracle_stated_membership(family, t):
    return ORACLE_RULES[family.tag](Fraction(t.num, t.den), *family.params)


def oracle_method_exact(family):
    bound = 4 * sum(family.params) + 8
    for n in range(1, bound + 1):
        if oracle_stated_membership(family, RationalAngle(n)):
            return n * family.cover_multiplier
    raise MembershipSearchError(f"{family}: no membership at t = n*pi for n <= {bound}")


def phases_of(xi):
    return _rational_phases(np.linalg.eigvalsh(-1j * xi))


def test_oracle_covers_every_family():
    assert set(ORACLE_RULES) == set(FAMILY_TAGS)


@pytest.mark.parametrize("family", list(sweep_families(12)), ids=str)
def test_matches_search_on_cap12(family):
    assert method_exact(family, phases_of(canonical_element(family))) == oracle_method_exact(
        family
    )


def fraction_stated_membership(family, phases, t):
    """The membership rule of stated_membership in Fraction arithmetic, the
    reference for its integer form."""
    f = Fraction(t.num, t.den)
    turns = sum(w * m for w, m in phases if w > 0) if family._spec.identity_component else 0
    return all((f * w).denominator == 1 for w, _ in phases) and (f * turns) % 2 == 0


@pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
def test_integer_rule_matches_fraction_form(family):
    phases = phases_of(canonical_element(family))
    for k in range(-48, 49):
        t = RationalAngle(k, 12)
        assert stated_membership(family, phases, t) == fraction_stated_membership(
            family, phases, t
        ), k


@pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
def test_rule_matches_old_rules_at_sixths(family):
    phases = phases_of(canonical_element(family))
    for k in range(49):
        t = RationalAngle(k, 6)
        assert stated_membership(family, phases, t) == oracle_stated_membership(family, t), k


# Rational points of a maximal abelian subalgebra a of p, from a vector d
# of a-coordinates. Permuting d is a Weyl group element of every family.


def _su_diagonal(c):
    """d = sum c_j (e_j - e_{j+1}): a traceless diagonal whose entries stay
    within twice the largest |c_j|."""
    c = np.asarray(c, dtype=float)
    return np.concatenate([c, [0.0]]) - np.concatenate([[0.0], c])


def _off_diagonal(b):
    """[[0, B], [-B^T, 0]] for a real B."""
    p, q = b.shape
    xi = np.zeros((p + q, p + q), dtype=complex)
    xi[:p, p:] = b
    xi[p:, :p] = -b.T
    return xi


def torus_point(family, d):
    """The element of a with coordinates d (traceless d for the su families)."""
    d = np.asarray(d, dtype=float)
    tag, params = family.tag, family.params
    if tag in ("AI", "GRP_a"):
        return 1j * np.diag(d).astype(complex)
    if tag == "AII":
        return 1j * np.diag(np.tile(d, 2)).astype(complex)
    if tag == "AIII":
        return np.kron(np.array([[0, 1], [1, 0]]), 1j * np.diag(d)).astype(complex)
    if tag in ("BDI_rank1", "BDI_split", "GRP_d"):
        p, q = params if tag == "BDI_rank1" else params * 2
        b = np.zeros((p, q))
        b[np.arange(p), np.arange(p)] = d
        return _off_diagonal(b)
    if tag == "DIII":
        a = np.kron(np.array([[0, -1], [1, 0]]), np.diag(d))
        return np.kron(np.diag([1, -1]), a).astype(complex)
    if tag in ("CI", "GRP_c"):
        return 1j * np.diag(np.concatenate([d, -d])).astype(complex)
    if tag == "CII":
        return 1j * np.kron(np.fliplr(np.eye(4)), np.diag(d)).astype(complex)
    if tag == "GRP_bd":
        return d[0] * canonical_element(family)
    raise AssertionError(tag)


def torus_size(family):
    """The length of d: the rank, or N for the traceless su diagonals."""
    tag, params = family.tag, family.params
    if tag in ("AI", "GRP_a", "AII"):
        return sum(params)
    if tag == "GRP_bd":
        return 1
    return params[0]


def k_conjugate(space, xi, seed):
    """Ad(k) xi for k = exp(X), X in k the sigma-fixed part of the projection
    onto g of a seeded random matrix (no basis, so N = 100 is cheap)."""
    rng = np.random.default_rng(seed)
    n = space.ambient_dim
    x = space.family._spec.project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    k = exp_generic((x + space.apply_sigma(x)) / 2.0)
    return k @ xi @ k.conj().T


FAMILIES = [
    SpaceFamily.make(*params)
    for params in [
        ("AI", 2, 3),
        ("AII", 1, 2),
        ("AIII", 3),
        ("BDI_rank1", 2, 3),
        ("BDI_split", 3),
        ("BDI_split", 4),
        ("DIII", 2),
        ("CI", 3),
        ("CII", 2),
        ("GRP_a", 1, 3),
        ("GRP_bd", 5),
        ("GRP_c", 2),
        ("GRP_d", 3),
        ("AI", 49, 51),
    ]
]

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6]))


def draw_coordinates(data, family):
    size = torus_size(family)
    if family.tag in ("AI", "GRP_a", "AII"):
        c = data.draw(st.lists(RATIONALS, min_size=size - 1, max_size=size - 1))
        return _su_diagonal([float(v) for v in c])
    c = data.draw(st.lists(RATIONALS, min_size=size, max_size=size))
    return np.array([float(v) for v in c])


def both_routes(space, xi):
    assert space.contains_tangent(xi, EPS)
    return method_exact(space.family, phases_of(xi)), method_numeric(space, xi, EPS)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_exact_equals_numeric_on_k_conjugates(family, data):
    space = build_space(family)
    d = draw_coordinates(data, family)
    seed = data.draw(st.integers(0, 2**32 - 1))
    exact, numeric = both_routes(space, k_conjugate(space, torus_point(family, d), seed))
    assert exact == numeric


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_invariant_under_weyl_permutations(family, data):
    space = build_space(family)
    d = draw_coordinates(data, family)
    order = data.draw(st.permutations(range(len(d))))
    xi, moved = torus_point(family, d), torus_point(family, d[list(order)])
    lam = both_routes(space, xi)
    assert both_routes(space, moved) == lam
    # Reordered phases are the same multiset, so the same answer.
    phases = phases_of(xi)
    order = np.random.default_rng(len(phases)).permutation(len(phases))
    assert method_exact(family, [phases[i] for i in order]) == lam[0]


@pytest.mark.parametrize("tag", FAMILY_TAGS)
@pytest.mark.parametrize("scale", ["1/2", "2/3", "3/2", "5/4", "3"])
def test_rational_multiples_of_canonical(tag, scale):
    family = next(f for f in FAMILIES if f.tag == tag)
    space = build_space(family)
    xi = float(Fraction(scale)) * canonical_element(family)
    exact, numeric = both_routes(space, k_conjugate(space, xi, 11))
    assert exact == numeric


def test_ai12_off_canonical_element():
    # Canonical (frequencies 1 and 2) but not conjugate to the catalog
    # element, whose lambda is 3: exp(pi*xi) = diag(-1, 1, -1) is in SO(3).
    space = build_space(SpaceFamily.make("AI", 1, 2))
    report = spindle_number(space, 1j * np.diag([-1.0, 0.0, 1.0]))
    assert report.lambda_ == report.method_exact == report.method_numeric == 1


def test_identity_component_is_needed(monkeypatch):
    """Without the block-determinant parity the rule stops at D = 2 for
    BDI_split, which is right for even n only; for odd n the numeric scan
    finds 4 and the analysis refuses."""
    spec = spaces._FAMILIES["BDI_split"]
    monkeypatch.setitem(
        spaces._FAMILIES, "BDI_split", dataclasses.replace(spec, identity_component=False)
    )
    for n in range(2, 9):
        space = build_space(SpaceFamily.make("BDI_split", n))
        if n % 2 == 0:
            assert spindle_number(space).lambda_ == 2
        else:
            with pytest.raises(MethodDisagreementError, match="exact method gives 2"):
                spindle_number(space)


def test_bdi_rank1_parity_off_canonical():
    # Phases +-1/2, +-1/2 on BDI_rank1(2, 3): D = 2, and the p-block
    # determinant at 2*pi is (-1)^(2 * (1/2 + 1/2)) = 1, so lambda is 2;
    # with one phase 1/2 and one 1, D = 2 and the parity is
    # (-1)^(2 * 3/2) = -1, so lambda is 4.
    space = build_space(SpaceFamily.make("BDI_rank1", 2, 3))
    assert both_routes(space, torus_point(space.family, [0.5, 0.5])) == (2, 2)
    assert both_routes(space, torus_point(space.family, [0.5, 1.0])) == (4, 4)
