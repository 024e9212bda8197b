import math

import numpy as np
import pytest

from spindles.errors import (
    DimensionMismatchError,
    NotCanonicalError,
    ParameterError,
)
from spindles.linalg import RationalAngle, exp_generic
from spindles.spaces import SpaceFamily, build_space, canonical_element
from spindles.spindle import (
    AdSpectrum,
    ad_spectrum,
    cartan_split,
    classify_time,
    jacobi_norm_sq,
    slice_dimension,
)
from test_linalg import commutator, subspace_rank, trace_inner

SPLIT_CASES = [
    ("AI", (1, 3)),
    ("AII", (1, 1)),
    ("AIII", (2,)),
    ("BDI_rank1", (2, 2)),
    ("BDI_split", (3,)),
    ("DIII", (2,)),
    ("CI", (2,)),
    ("CII", (1,)),
    ("GRP_a", (1, 2)),
    ("GRP_bd", (4,)),
    ("GRP_c", (2,)),
    ("GRP_d", (2,)),
]


def build_case(tag, params):
    family = SpaceFamily.make(tag, *params)
    space = build_space(family)
    xi = canonical_element(family)
    return family, space, xi


class TestCartanSplit:
    @pytest.mark.parametrize("tag,params", SPLIT_CASES)
    def test_dimensions_match_spectrum(self, tag, params):
        family, space, xi = build_case(tag, params)
        spec = ad_spectrum(space, xi)
        split = cartan_split(space, xi)
        assert split.spectrum == spec
        assert split.k_plus.shape[0] == spec.mult_k[0]
        assert split.p_plus.shape[0] == spec.mult_p[0]
        assert tuple(b.shape[0] for b in split.k_nu) == spec.mult_k[1:]
        assert tuple(b.shape[0] for b in split.p_nu) == spec.mult_p[1:]

    @pytest.mark.parametrize("tag,params", SPLIT_CASES[:4])
    def test_orthonormal_and_graded(self, tag, params):
        family, space, xi = build_case(tag, params)
        split = cartan_split(space, xi)
        pieces = [
            ("k", split.k_plus),
            ("p", split.p_plus),
            *[("k", b) for b in split.k_nu],
            *[("p", b) for b in split.p_nu],
        ]
        mats = [m for _, piece in pieces for m in piece]
        gram = np.array([[trace_inner(a, b) for b in mats] for a in mats])
        assert np.max(np.abs(gram - np.eye(len(mats)))) < 1e-9
        for side, piece in pieces:
            for m in piece:
                assert space._residual(m) < 1e-9
                image = space.apply_sigma(m)
                sign = 1.0 if side == "k" else -1.0
                assert np.max(np.abs(image - sign * m)) < 1e-9

    @pytest.mark.parametrize("tag,params", SPLIT_CASES[:4])
    def test_eigenspace_property(self, tag, params):
        # ad(xi)^2 = -nu^2 on each piece, and ad(xi) maps k_nu onto p_nu
        family, space, xi = build_case(tag, params)
        split = cartan_split(space, xi)
        for freq, kb, pb in zip(split.spectrum.positive_frequencies, split.k_nu, split.p_nu):
            for m in list(kb) + list(pb):
                twice = commutator(xi, commutator(xi, m))
                assert np.max(np.abs(twice + freq * freq * m)) < 1e-9
            if len(kb):
                brackets = [commutator(xi, y) for y in kb]
                assert subspace_rank(brackets + list(pb)) == pb.shape[0]

    def test_zero_pieces_commute_with_xi(self):
        family, space, xi = build_case("AI", (1, 3))
        split = cartan_split(space, xi)
        for m in list(split.k_plus) + list(split.p_plus):
            assert np.max(np.abs(commutator(xi, m))) < 1e-9

    def test_requires_canonical(self):
        family, space, xi = build_case("AI", (1, 2))
        with pytest.raises(NotCanonicalError):
            cartan_split(space, 0.5 * xi)


class TestJacobiNormSq:
    def test_frozen_two_frequency_value(self):
        # frequencies {2, 3} with unit components at t = pi/2:
        # sin(pi)^2/4 + sin(3 pi/2)^2/9 = 1/9
        spec = AdSpectrum((0.0, 2.0, 3.0), (1, 1, 1), (1, 1, 1))
        got = jacobi_norm_sq(spec, [1.0, 1.0], math.pi / 2)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-12)
        exact = jacobi_norm_sq(spec, [1.0, 1.0], RationalAngle(1, 2))
        assert exact == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_single_frequency_is_sin_squared(self):
        spec = AdSpectrum((0.0, 1.0), (1, 1), (1, 1))
        for k in range(0, 25):
            t = k * math.pi / 12
            assert jacobi_norm_sq(spec, [1.0], t) == pytest.approx(
                math.sin(t) ** 2, abs=1e-12
            )

    def test_rational_angle_exact_zero_at_knots(self):
        spec = AdSpectrum((0.0, 1.0, 2.0), (1, 1, 1), (1, 1, 1))
        for n in range(-4, 5):
            assert jacobi_norm_sq(spec, [1.0, 1.0], RationalAngle(n)) == 0.0

    def test_component_validation(self):
        spec = AdSpectrum((0.0, 1.0, 2.0), (1, 1, 1), (1, 1, 1))
        with pytest.raises(DimensionMismatchError):
            jacobi_norm_sq(spec, [1.0], 0.5)
        with pytest.raises(ParameterError):
            jacobi_norm_sq(spec, [1.0, -1.0], 0.5)
        with pytest.raises(ParameterError):
            jacobi_norm_sq(spec, [0.0, 0.0], 0.5)

    @pytest.mark.parametrize("tag,params", SPLIT_CASES[:6])
    def test_matches_transported_field_norm(self, tag, params):
        # independent oracle: move a k-generated variation field back
        # with Ad(exp(-t xi)) and take the norm of its p-component
        family, space, xi = build_case(tag, params)
        spec = ad_spectrum(space, xi)
        split = cartan_split(space, xi)
        rng = np.random.default_rng(sum(ord(ch) for ch in tag))
        c = rng.standard_normal(space.dim_g)
        s = space.sigma_coords
        y = space.from_coords((c + s @ c) / 2.0)

        bracket = commutator(xi, y)
        comps = []
        for freq, pb in zip(split.spectrum.positive_frequencies, split.p_nu):
            total = sum(trace_inner(m, bracket) ** 2 for m in pb)
            comps.append(total / freq**2)

        for t in (0.35, 0.8, math.pi / 2, 2.2, 3.6):
            g = exp_generic(xi, -t)
            moved = space.to_coords(g @ y @ g.conj().T)
            direct = float(np.sum(((moved - s @ moved) / 2.0) ** 2))
            assert jacobi_norm_sq(spec, comps, t) == pytest.approx(direct, abs=1e-9)


class TestSliceDimension:
    def test_catalog_profile(self):
        family, space, xi = build_case("AI", (1, 2))
        spec = ad_spectrum(space, xi)
        split = cartan_split(space, xi)
        for source in (spec, split.spectrum):
            assert slice_dimension(source, RationalAngle(0)) == 0
            assert slice_dimension(source, RationalAngle(1)) == 0
            assert slice_dimension(source, RationalAngle(1, 2)) == 2
            assert slice_dimension(source, RationalAngle(1, 3)) == 2
            assert slice_dimension(source, 0.4) == 2

    def test_multi_frequency_drops(self):
        # with frequencies {1, 2} the nu=2 piece vanishes at t = pi/2
        spec = AdSpectrum((0.0, 1.0, 2.0), (0, 1, 1), (1, 2, 3))
        assert slice_dimension(spec, RationalAngle(1, 2)) == 2
        assert slice_dimension(spec, RationalAngle(1, 4)) == 5
        assert slice_dimension(spec, RationalAngle(1)) == 0

    def test_classify_time(self):
        assert classify_time(RationalAngle(0)) == "knot"
        assert classify_time(RationalAngle(-3)) == "knot"
        assert classify_time(RationalAngle(1, 2)) == "centriole"
        assert classify_time(RationalAngle(7, 2)) == "centriole"
        assert classify_time(RationalAngle(2, 3)) == "regular"
        assert classify_time(0.0) == "knot"
        assert classify_time(math.pi) == "knot"
        assert classify_time(1.5 * math.pi) == "centriole"
        assert classify_time(1.0) == "regular"


class TestNonFiniteInput:
    # A nan or inf t or component norm has no slice or norm to report; it is
    # refused with a ParameterError naming the argument.
    SPEC = AdSpectrum((0.0, 1.0, 2.0), (1, 1, 1), (1, 1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_jacobi_component(self, bad):
        with pytest.raises(ParameterError, match="^component norms must be finite"):
            jacobi_norm_sq(self.SPEC, [1.0, bad], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_jacobi_time(self, bad):
        with pytest.raises(ParameterError, match=f"^t must be a finite number, got {bad!r}$"):
            jacobi_norm_sq(self.SPEC, [1.0, 1.0], bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_slice_dimension_time(self, bad):
        with pytest.raises(ParameterError, match=f"^t must be a finite number, got {bad!r}$"):
            slice_dimension(self.SPEC, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_classify_time(self, bad):
        with pytest.raises(ParameterError, match=f"^t must be a finite number, got {bad!r}$"):
            classify_time(bad)
