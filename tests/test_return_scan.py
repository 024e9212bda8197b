"""The divisor return scan and the per-cluster phase rationalization
against the linear scan they replaced.

The oracle below is the earlier _return_scan, kept verbatim apart from
its name: every eigenvalue of -i*xi rationalized on its own, then every
n = 1, 2, ..., n_max exponentiated and passed to the isotropy predicate.
The divisor scan must give the same spindle number on every cap-8 family,
on the N = 40 families at seeded K-conjugates and on two large AI spaces,
and the comparison must catch a predicate that accepts a non-divisor.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindles import (
    SpaceFamily,
    build_space,
    canonical_element,
    exp_generic,
    isotropy_contains,
    sweep_families,
)
from spindles import spaces
from spindles.errors import MembershipSearchError, NotUnitaryError, RationalizationError
from spindles.linalg import _eigh_trusted, _exp_eigh, ensure_square, rationalize, resolve_eps
from spindles.spindle import (
    BUCKET_TOL,
    _bucket,
    _divisors,
    _phase_lcm,
    _rational_phases,
    _return_scan,
)

EPS = 1e-9

# The N = 40 families of the benchmark's large_conj workload.
LARGE_FAMILIES = (
    ("AI", 19, 21),
    ("AIII", 20),
    ("BDI_split", 20),
    ("CII", 10),
    ("DIII", 10),
    ("GRP_c", 20),
    ("GRP_d", 20),
    ("GRP_bd", 41),
)


def oracle_return_scan(space, w, v, eps):
    phases = [rationalize(val) for val in w]
    d = math.lcm(*(f.denominator for f in phases))
    n_max = 2 * d
    for n in range(1, n_max + 1):
        if isotropy_contains(space, _exp_eigh(w, v, n * math.pi), eps):
            return n * space.cover_multiplier
    raise MembershipSearchError(f"{space.family}: no return within n_max = {n_max}")


def k_conjugate(family, rng):
    """Ad(k) of the canonical element for k = exp(X), X in k drawn from
    standard normal coordinates, as the benchmark draws its inputs."""
    space = build_space(family)
    coords = rng.standard_normal(space.dim_g)
    x = space.from_coords((coords + space.sigma_coords @ coords) / 2.0)
    k = exp_generic(x)
    return k @ canonical_element(family) @ k.conj().T


def divisor_scan(space, w, v):
    return _return_scan(space, w, v, _exp_eigh(w, v, math.pi), _rational_phases(w), EPS)


def assert_scans_agree(space, xi):
    w, v = _eigh_trusted(ensure_square(xi), resolve_eps(EPS), "test")
    assert divisor_scan(space, w, v) == oracle_return_scan(space, w, v, EPS)


@pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
def test_cap8_canonical(family):
    assert_scans_agree(build_space(family), canonical_element(family))


@pytest.mark.parametrize("seed", [1, 2])
def test_n40_k_conjugates(seed):
    # One generator per seed, drawn family by family in order, as the
    # benchmark draws its large_conj inputs.
    rng = np.random.default_rng(seed)
    for params in LARGE_FAMILIES:
        family = SpaceFamily.make(*params)
        assert_scans_agree(build_space(family), k_conjugate(family, rng))


@pytest.mark.parametrize("p, q", [(49, 51), (99, 101)])
def test_large_ai(p, q):
    family = SpaceFamily.make("AI", p, q)
    assert_scans_agree(build_space(family), canonical_element(family))


def test_divisors():
    assert _divisors(1) == [1]
    assert _divisors(80) == [1, 2, 4, 5, 8, 10, 16, 20, 40, 80]
    assert _divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    for n in range(1, 200):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_mutated_predicate_is_caught(monkeypatch):
    """AI(19,21) has n_max = 80 and lambda = 40. A predicate that also
    accepts exp(3*pi*xi) makes the linear scan stop at 3; the divisor scan
    never tests 3, so the comparison must fail."""
    family = SpaceFamily.make("AI", 19, 21)
    space = build_space(family)
    xi = ensure_square(canonical_element(family))
    w, v = _eigh_trusted(xi, resolve_eps(EPS), "test")
    assert 2 * _phase_lcm(_rational_phases(w)) == 80
    g3 = _exp_eigh(w, v, 3 * math.pi)
    spec = spaces._FAMILIES["AI"]

    def mutant(g, tol, p, q):
        if (p, q) == (19, 21) and float(np.max(np.abs(g - g3))) <= tol:
            return True
        return spec.isotropy(g, tol, p, q)

    monkeypatch.setitem(spaces._FAMILIES, "AI", dataclasses.replace(spec, isotropy=mutant))
    assert oracle_return_scan(space, w, v, EPS) == 3
    assert divisor_scan(space, w, v) == 40
    with pytest.raises(AssertionError):
        assert_scans_agree(space, canonical_element(family))


def test_non_unitary_eigenbasis_is_refused():
    # The scan certifies v once instead of every candidate exp(n*pi*xi).
    family = SpaceFamily.make("AI", 1, 2)
    space = build_space(family)
    xi = ensure_square(canonical_element(family))
    w, v = _eigh_trusted(xi, resolve_eps(EPS), "test")
    with pytest.raises(NotUnitaryError, match=r"^AI\(1,2\): the return scan"):
        divisor_scan(space, w, 1.01 * v)


def test_close_phases_are_separate_clusters():
    assert _phase_lcm(_rational_phases(np.array([1 / 4096, 1 / 4095]))) == 4096 * 4095


def test_off_lattice_phase_raises():
    with pytest.raises(RationalizationError):
        _rational_phases(np.array([-0.5, 0.0, 1 / 3 + 1e-5]))


def test_cluster_member_off_its_fraction_raises():
    # The first value lies within 1e-6 of 1/3, the second is 5e-10 higher
    # (the same cluster) but just outside.
    first = 1 / 3 + 1e-6 - 2e-10
    with pytest.raises(RationalizationError):
        _rational_phases(np.array([first, first + 5e-10]))


def test_one_rationalization_per_cluster(monkeypatch):
    family = SpaceFamily.make("AI", 19, 21)
    xi = k_conjugate(family, np.random.default_rng(7))
    w, _ = _eigh_trusted(ensure_square(xi), resolve_eps(EPS), "test")
    calls = []
    original = Fraction.limit_denominator

    def counted(self, max_denominator=1000000):
        calls.append(self)
        return original(self, max_denominator)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    assert _phase_lcm(_rational_phases(w)) == 40
    assert len(calls) == 2
    calls.clear()
    [rationalize(val) for val in w]
    assert len(calls) == 40


def oracle_bucket(values, tol):
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            groups.append((start, i))
            start = i
    return groups


@given(st.lists(st.integers(0, 3), max_size=40))
def test_bucket_gaps_at_tol(steps):
    # tol = 2^-20 and values on its multiples: every gap is exact, so gaps
    # of exactly tol (which do not split) occur.
    tol = 2.0**-20
    values = np.cumsum(np.array(steps, dtype=float)) * tol
    assert _bucket(values, tol) == oracle_bucket(values, tol)


@given(st.lists(st.floats(0.0, 3.0), max_size=40), st.sampled_from([BUCKET_TOL, 0.1]))
def test_bucket_random_sorted(values, tol):
    values = np.sort(np.array(values, dtype=float))
    assert _bucket(values, tol) == oracle_bucket(values, tol)


def test_bucket_empty():
    assert _bucket(np.array([]), BUCKET_TOL) == []
