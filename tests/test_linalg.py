import math

import numpy as np
import pytest

from spindles.errors import (
    DimensionMismatchError,
    FormIdentityError,
    NotAntiHermitianError,
    RationalizationError,
)
from spindles.linalg import (
    DEFAULT_EPS,
    RationalAngle,
    _is_anti_hermitian,
    _is_real,
    _is_unitary,
    ensure_square,
    exp_generic,
    exp_structured,
    mat_to_vec,
    rationalize,
    resolve_eps,
)


# Test oracles: the bracket, the inner product and the span dimension that
# the tests check the package against, one matrix at a time. The package
# brackets whole stacks and works in coordinates, so it has no use for them.
# The other test modules import them from here; TestBasics and
# TestSubspaceRank check them.


def commutator(a, b) -> np.ndarray:
    """Matrix commutator ab - ba."""
    ma, mb = ensure_square(a), ensure_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"commutator of shapes {ma.shape} and {mb.shape}")
    return ma @ mb - mb @ ma


def trace_inner(x, y) -> float:
    """<X, Y> = -Re tr(XY), the invariant inner product on anti-Hermitian
    matrices (positive definite there)."""
    return float(-np.trace(np.asarray(x) @ np.asarray(y)).real)


def subspace_rank(mats, eps=None) -> int:
    """Real dimension of the span of the given matrices: the number of
    singular values above eps of the matrices flattened to real vectors."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return 0
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise DimensionMismatchError(f"subspace_rank over mixed shapes {shape} and {m.shape}")
    rows = np.stack([mat_to_vec(m) for m in mats])
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > resolve_eps(eps)))


def random_anti_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a - a.conj().T) / 2


class TestBasics:
    def test_commutator_antisymmetry(self):
        a = random_anti_hermitian(4, 1)
        b = random_anti_hermitian(4, 2)
        assert np.allclose(commutator(a, b), -commutator(b, a))

    def test_commutator_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))

    def test_trace_inner_is_frobenius_on_anti_hermitian(self):
        a = random_anti_hermitian(5, 3)
        b = random_anti_hermitian(5, 4)
        expected = float(np.sum(a.conj() * b).real)
        assert trace_inner(a, b) == pytest.approx(expected, abs=1e-12)

    def test_trace_inner_positive_definite(self):
        a = random_anti_hermitian(5, 5)
        assert trace_inner(a, a) > 0

    def test_mat_to_vec_preserves_inner_product(self):
        a = random_anti_hermitian(4, 6)
        b = random_anti_hermitian(4, 7)
        va, vb = mat_to_vec(a), mat_to_vec(b)
        assert float(va @ vb) == pytest.approx(trace_inner(a, b), abs=1e-12)

    def test_predicates(self):
        assert _is_anti_hermitian(ensure_square(1j * np.eye(3)), DEFAULT_EPS)
        assert not _is_anti_hermitian(ensure_square(np.diag([1.0, 2.0, 3.0])), DEFAULT_EPS)
        assert _is_unitary(ensure_square(np.eye(3)), DEFAULT_EPS)
        assert not _is_unitary(ensure_square(2 * np.eye(3)), DEFAULT_EPS)
        assert _is_real(ensure_square(np.eye(3)), DEFAULT_EPS)
        assert not _is_real(ensure_square(1j * np.eye(3)), DEFAULT_EPS)


class TestSubspaceRank:
    def test_dependent_set(self):
        a = random_anti_hermitian(3, 8)
        b = random_anti_hermitian(3, 9)
        assert subspace_rank([a, b, a + b, 2 * a]) == 2

    def test_empty_is_zero(self):
        assert subspace_rank([]) == 0

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            subspace_rank([np.eye(2), np.eye(3)])


class TestRationalize:
    def test_exact_small_fractions(self):
        from fractions import Fraction

        for num in range(-20, 21):
            for den in range(1, 13):
                f = Fraction(num, den)
                assert rationalize(float(f)) == f

    def test_rejects_irrational(self):
        with pytest.raises(RationalizationError):
            rationalize(math.sqrt(2), max_den=64, tol=1e-6)


class TestExpGeneric:
    def test_matches_series_small_t(self):
        a = random_anti_hermitian(5, 10)
        t = 0.01
        series = (
            np.eye(5) + t * a + (t * a) @ (t * a) / 2 + (t * a) @ (t * a) @ (t * a) / 6
        )
        assert np.max(np.abs(exp_generic(a, t) - series)) < 1e-7

    def test_group_property(self):
        a = random_anti_hermitian(4, 11)
        g1 = exp_generic(a, 0.4)
        g2 = exp_generic(a, 0.7)
        g3 = exp_generic(a, 1.1)
        assert np.max(np.abs(g1 @ g2 - g3)) < 1e-12

    def test_unitary_output(self):
        a = random_anti_hermitian(6, 12)
        g = exp_generic(a, 2.3)
        assert _is_unitary(g, 1e-12)

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(NotAntiHermitianError):
            exp_generic(np.diag([1.0, 2.0]))


class TestExpStructured:
    def test_diagonal_phase(self):
        xi = 1j * np.diag([0.5, -0.25, -0.25])
        t = RationalAngle(2, 3)
        got = exp_structured(xi, t, "diagonal-phase")
        want = exp_generic(xi, t.radians)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_half_angle(self):
        n = 2
        j = np.block(
            [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
        ).astype(complex)
        xi = j / 2
        t = RationalAngle(5, 6)
        got = exp_structured(xi, t, "half-angle")
        want = exp_generic(xi, t.radians)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rotation_block(self):
        xi = np.zeros((3, 3), dtype=complex)
        xi[0, 1], xi[1, 0] = -1.0, 1.0
        t = RationalAngle(7, 6)
        got = exp_structured(xi, t, "rotation-block")
        want = exp_generic(xi, t.radians)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_form_identity_enforced(self):
        xi = 1j * np.diag([0.5, -0.25])
        with pytest.raises(FormIdentityError):
            exp_structured(xi, RationalAngle(1), "half-angle")
        with pytest.raises(FormIdentityError):
            exp_structured(1j * np.diag([0.5, -0.5]), RationalAngle(1), "rotation-block")

    def test_exact_at_lattice_times(self):
        # RationalAngle trig is exact at integer and half-integer
        # multiples of pi, so the closed form lands exactly on +-I there.
        n = 2
        j = np.block(
            [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
        ).astype(complex)
        xi = j / 2
        assert np.max(np.abs(exp_structured(xi, RationalAngle(2), "half-angle") + np.eye(2 * n))) == 0.0
        assert np.max(np.abs(exp_structured(xi, RationalAngle(4), "half-angle") - np.eye(2 * n))) == 0.0
        assert np.max(np.abs(exp_structured(xi, RationalAngle(1), "half-angle") - 2 * xi)) == 0.0
