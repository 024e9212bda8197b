"""The verify scans as (A, N, N) stacks, against the per-angle code they
replaced.

Each FamilySpec.isotropy predicate takes a stack and returns one bool per
matrix, running a later conjunct only on the matrices that passed the
earlier ones. The oracles below are the per-matrix predicates and the
per-angle isotropy_scan_check as they were, kept verbatim apart from
names (with the float-returning _is_real and _scalar_residual they read).
The stacked predicates must decide every slice of every cap-8 scan stack
and every return-scan candidate at a seeded K-conjugate as the oracles
do, and the scan must fail as the per-angle scan did: the same first
mismatch, and NotUnitaryError naming the family.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from spindles import linalg, spaces, spindle, verification
from spindles.errors import NotAntiHermitianError, NotUnitaryError
from spindles.linalg import (
    _eigh_trusted,
    _exp_eigh,
    _is_anti_hermitian,
    _is_unitary,
    _scalar_residual,
    ensure_square,
)
from spindles.spaces import (
    _j_matrix,
    _j_times,
    _signs,
    _times_j,
    build_space,
    canonical_element,
    isotropy_contains,
    stated_membership,
    sweep_families,
)
from spindles.spindle import _divisors, _phase_lcm, _rational_phases
from spindles.verification import CheckResult, _closed_form_scan, isotropy_scan_check
from test_spectrum import k_element

EPS = 1e-9
CAP8 = list(sweep_families(8))


def oracle_is_real(m, tol):
    return float(np.max(np.abs(m.imag))) <= tol


def oracle_scalar_residual(a, c):
    shifted = a.copy()
    shifted.reshape(-1)[:: a.shape[0] + 1] -= c
    return float(np.max(np.abs(shifted)))


def oracle_det_one(g, tol):
    return abs(np.linalg.det(g) - 1.0) <= max(tol, 1e-9)


def oracle_commutes_diag(g, s, tol):
    return float(np.max(np.abs(g * (s - s[:, None])))) <= tol


def oracle_in_so_times_so(g, tol, p, q):
    return (
        oracle_is_real(g, tol)
        and oracle_commutes_diag(g, _signs(p, q), tol)
        and all(oracle_det_one(block, tol) for block in (g[:p, :p], g[p:, p:]))
    )


def oracle_j_intertwines(g, h, tol):
    return float(np.max(np.abs(_times_j(g) - _j_times(h)))) <= tol


def oracle_quaternionic(g, tol, p, q):
    return oracle_j_intertwines(g, g.conj(), tol)


def oracle_in_sp_times_sp(g, tol, n):
    symplectic = float(np.max(np.abs(_times_j(g.T) @ g - _j_matrix(2 * n)))) <= tol
    return symplectic and oracle_commutes_diag(g, _signs(n, n, n, n), tol)


def oracle_squares_to_one(g, tol, *_):
    return oracle_scalar_residual(g @ g, 1.0) <= tol


ORACLE_ISOTROPY = {
    "AI": lambda g, tol, p, q: oracle_is_real(g, tol) and oracle_det_one(g, tol),
    "AII": oracle_quaternionic,
    "AIII": lambda g, tol, n: oracle_commutes_diag(g, _signs(n, n), tol)
    and oracle_det_one(g, tol),
    "BDI_rank1": oracle_in_so_times_so,
    "BDI_split": lambda g, tol, n: oracle_in_so_times_so(g, tol, n, n),
    "DIII": lambda g, tol, n: oracle_is_real(g, tol) and oracle_j_intertwines(g, g, tol),
    "CI": lambda g, tol, n: oracle_is_real(g, tol) and oracle_j_intertwines(g, g, tol),
    "CII": oracle_in_sp_times_sp,
    "GRP_a": oracle_squares_to_one,
    "GRP_bd": oracle_squares_to_one,
    "GRP_c": oracle_squares_to_one,
    "GRP_d": oracle_squares_to_one,
}


def oracle_isotropy_scan_check(space, eps=None, scan=None):
    xi = canonical_element(space.family)
    phases = _rational_phases(np.linalg.eigvalsh(-1j * xi))
    angles, exps = scan
    mismatches = []
    for k, (t, g) in enumerate(zip(angles, exps)):
        got = isotropy_contains(space, g, eps)
        want = stated_membership(space.family, phases, t)
        if got != want:
            mismatches.append((k, got, want))
    return CheckResult(
        f"{space.family}:isotropy_matches_membership",
        not mismatches,
        "" if not mismatches else f"first mismatch at k={mismatches[0][0]}/6",
    )


def assert_matches_oracle(family, stack):
    """The stacked predicate on stack, and on each slice alone, against the
    per-matrix oracle; returns the decisions."""
    spec, params = family._spec, family.params
    got = spec.isotropy(stack, EPS, *params)
    want = [ORACLE_ISOTROPY[family.tag](g, EPS, *params) for g in stack]
    assert got.shape == (len(stack),) and got.dtype == bool
    assert got.tolist() == want
    assert [bool(spec.isotropy(g, EPS, *params)) for g in stack] == want
    return want


def test_oracles_cover_every_family():
    assert sorted(ORACLE_ISOTROPY) == sorted(spaces.FAMILY_TAGS)


@pytest.mark.parametrize("family", CAP8, ids=str)
def test_scan_stack_matches_per_matrix_predicate(family):
    _, closed, _, _ = _closed_form_scan(build_space(family), EPS)
    decisions = assert_matches_oracle(family, closed)
    assert decisions[0] and not all(decisions)


@pytest.mark.parametrize("seed", [1, 2])
def test_return_candidates_at_k_conjugate_match(seed):
    # exp(n*pi*xi) for every divisor n of n_max at a seeded K-conjugate of
    # the canonical element: dense candidates, some passing and some not.
    rng = np.random.default_rng(seed)
    for family in CAP8:
        space = build_space(family)
        k = linalg.exp_generic(k_element(space, rng))
        xi = ensure_square(k @ canonical_element(family) @ k.conj().T)
        w, v = _eigh_trusted(xi, EPS, "test")
        n_max = 2 * _phase_lcm(_rational_phases(w))
        stack = np.array([_exp_eigh(w, v, n * math.pi) for n in _divisors(n_max)])
        decisions = assert_matches_oracle(family, stack)
        assert decisions[-1], family


@pytest.mark.parametrize("tag", sorted(spaces.FAMILY_TAGS))
def test_narrowing_without_survivors(monkeypatch, tag):
    # Random dense complex matrices fail every predicate's first conjunct;
    # identities pass every predicate. A stack with no survivor, and an
    # empty stack, reduce over no (0, N, N) array; determinants are taken
    # of the survivors only.
    family = next(f for f in CAP8 if f.tag == tag)
    spec, params, n = family._spec, family.params, family.ambient_dim
    dets = []
    real_det = np.linalg.det

    def counted(a):
        dets.append(np.shape(a))
        return real_det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    assert spec.isotropy(noise, EPS, *params).tolist() == [False] * 3
    assert spec.isotropy(noise[:0], EPS, *params).shape == (0,)
    assert all(shape[0] == 0 for shape in dets)
    dets.clear()
    mixed = np.array([np.eye(n), noise[0], np.eye(n)], dtype=complex)
    assert spec.isotropy(mixed, EPS, *params).tolist() == [True, False, True]
    assert all(shape[0] == 2 for shape in dets)


def test_unitarity_and_residual_reduce_per_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    a[1] = np.eye(6)
    got = _scalar_residual(a, 1.0)
    assert got.tolist() == [oracle_scalar_residual(m, 1.0) for m in a]
    assert _is_unitary(a, EPS).tolist() == [False, True, False, False]


def flip_at(spec, g7):
    """spec's predicate with the decision on the matrix g7 flipped, on
    single matrices and stacks alike."""

    def mutant(g, tol, *params):
        hit = np.max(np.abs(g - g7), axis=(-2, -1)) == 0.0
        return spec.isotropy(g, tol, *params) != hit

    return dataclasses.replace(spec, isotropy=mutant)


@pytest.mark.parametrize("name", ["AI(2,3)", "GRP_d(3)", "CII(2)"])
def test_flipped_slice_reports_first_mismatch(monkeypatch, name):
    family = {str(f): f for f in CAP8}[name]
    space = build_space(family)
    scan = _closed_form_scan(space, EPS)
    angles, closed, _, _ = scan
    assert isotropy_scan_check(space, EPS, scan).ok
    monkeypatch.setitem(spaces._FAMILIES, family.tag, flip_at(family._spec, closed[7]))
    got = isotropy_scan_check(space, EPS, scan)
    want = oracle_isotropy_scan_check(space, EPS, (angles, list(closed)))
    assert (got.ok, got.detail) == (False, "first mismatch at k=7/6")
    assert str(got) == str(want)


@pytest.mark.parametrize("name", ["AI(2,3)", "GRP_bd(4)"])
def test_non_unitary_slice_names_family(name):
    family = {str(f): f for f in CAP8}[name]
    space = build_space(family)
    angles, closed, w, v = _closed_form_scan(space, EPS)
    closed = closed.copy()
    closed[3] = 2.0 * np.eye(family.ambient_dim)
    message = f"^{re.escape(name)}: isotropy test requires a unitary matrix$"
    with pytest.raises(NotUnitaryError, match=message):
        isotropy_scan_check(space, EPS, (angles, closed, w, v))
    with pytest.raises(NotUnitaryError, match=message):
        oracle_isotropy_scan_check(space, EPS, (angles, list(closed)))


def test_non_anti_hermitian_scan_names_exp_generic(monkeypatch):
    # S xi S^-1 for a non-unitary S keeps xi^2 = -I/4, so the half-angle
    # form check passes and the one eigendecomposition must refuse, with
    # the refusal exp_agreement_check's exp_generic gave.
    space = build_space({str(f): f for f in CAP8}["AIII(1)"])
    s = np.array([[1.0, 0.3], [0.0, 1.0]])
    skewed = s @ canonical_element(space.family) @ np.linalg.inv(s)
    assert np.allclose(skewed @ skewed, -np.eye(2) / 4)
    assert not _is_anti_hermitian(skewed, EPS)
    monkeypatch.setattr(verification, "canonical_element", lambda family: skewed)
    for check in (verification.exp_agreement_check, isotropy_scan_check):
        with pytest.raises(NotAntiHermitianError, match="^exp_generic requires"):
            check(space, EPS)


@pytest.mark.parametrize("name", ["AI(2,3)", "AII(6,6)", "GRP_bd(5)", "CII(3)"])
def test_scans_make_one_predicate_call_and_no_exp_eigh(monkeypatch, name):
    family = {str(f): f for f in CAP8}[name]
    space = build_space(family)
    spec = family._spec
    shapes, exps = [], []

    def counted(g, tol, *params):
        shapes.append(g.shape)
        return spec.isotropy(g, tol, *params)

    def no_exp(*args):
        exps.append(args)
        return _exp_eigh(*args)

    monkeypatch.setitem(spaces._FAMILIES, family.tag, dataclasses.replace(spec, isotropy=counted))
    for module in (linalg, spindle):
        monkeypatch.setattr(module, "_exp_eigh", no_exp)
    scan = _closed_form_scan(space, EPS)
    assert verification.exp_agreement_check(space, EPS, scan).ok
    assert isotropy_scan_check(space, EPS, scan).ok
    n = family.ambient_dim
    assert shapes == [(24 * space.cover_multiplier + 1, n, n)]
    assert exps == []
