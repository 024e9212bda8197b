import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindles import spaces
from spindles.errors import (
    DegenerateElementError,
    IrrationalRatioError,
    NotInTangentSpaceError,
    SpectrumBucketingError,
    SpindleError,
)
from spindles.linalg import exp_generic, mat_to_vec
from spindles.spaces import (
    FAMILY_TAGS,
    PQ_FAMILIES,
    SpaceFamily,
    build_space,
    canonical_element,
    sweep_families,
)
from spindles.spindle import (
    AdSpectrum,
    _is_ext_sym,
    _require_tangent,
    _root_spectrum,
    ad_matrix,
    ad_spectrum,
    adjoint_conjugation_flags,
    integer_frequencies,
    is_canonical,
    is_extrinsically_symmetric_type,
    normalize_canonical,
)
from test_linalg import commutator, trace_inner

EPS = 1e-9
CAP6 = [str(family) for family in sweep_families(6)]


def small_family(tag):
    return SpaceFamily.make(tag, *((1, 2) if tag in PQ_FAMILIES else (3,)))


class TestAdMatrix:
    def test_antisymmetric(self):
        family = small_family("AI")
        space = build_space(family)
        a = ad_matrix(space, canonical_element(family))
        assert np.max(np.abs(a + a.T)) < 1e-12

    def test_matches_bracket_inner_products(self):
        family = small_family("CI")
        space = build_space(family)
        xi = canonical_element(family)
        a = ad_matrix(space, xi)
        for i in range(space.dim_g):
            for j in range(space.dim_g):
                want = trace_inner(
                    space.basis_tensor[i], commutator(xi, space.basis_tensor[j])
                )
                assert a[i, j] == pytest.approx(want, abs=1e-12)

    def test_rejects_non_tangent(self):
        family = small_family("AI")
        space = build_space(family)
        # in k (real antisymmetric), not in p
        y = np.zeros((3, 3), dtype=complex)
        y[0, 1], y[1, 0] = 1.0, -1.0
        with pytest.raises(NotInTangentSpaceError):
            ad_matrix(space, y)


class TestAdSpectrum:
    @pytest.mark.parametrize("tag", sorted(FAMILY_TAGS))
    def test_catalog_elements_have_zero_one_spectrum(self, tag):
        family = small_family(tag)
        space = build_space(family)
        spec = ad_spectrum(space, canonical_element(family))
        assert spec.frequencies == (0.0, 1.0)
        assert spec.dim_k == space.k_dim
        assert spec.dim_p == space.p_dim

    def test_scaled_element_scales_frequencies(self):
        family = small_family("AII")
        space = build_space(family)
        spec = ad_spectrum(space, 2.0 * canonical_element(family))
        assert spec.frequencies == (0.0, 2.0)

    def test_ai12_multiplicities(self):
        family = SpaceFamily.make("AI", 1, 2)
        space = build_space(family)
        spec = ad_spectrum(space, canonical_element(family))
        assert spec.mult_k == (1, 2)
        assert spec.mult_p == (3, 2)
        assert spec.orbit_dim == 2

    def test_frozen_dims_ai12(self):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        assert (space.dim_g, space.k_dim, space.p_dim) == (8, 3, 5)

    def test_multi_frequency_flat_element(self):
        # two independent rotation angles 2 and 3 in the split torus
        family = SpaceFamily.make("BDI_split", 2)
        space = build_space(family)
        b = np.diag([2.0, 3.0])
        flat = np.block([[np.zeros((2, 2)), b], [-b.T, np.zeros((2, 2))]]).astype(
            complex
        )
        spec = ad_spectrum(space, flat)
        # so(4) roots are the sums and differences of the torus angles;
        # the kernel is the rank-two flat through the element, inside p
        assert spec.frequencies == (0.0, 1.0, 5.0)
        assert spec.mult_k == (0, 1, 1)
        assert spec.mult_p == (2, 1, 1)

    def test_spectrum_field_validation(self):
        with pytest.raises(Exception):
            AdSpectrum((0.0, 1.0), (1,), (1, 1))


class TestIsCanonical:
    def test_catalog_elements(self):
        for tag in sorted(FAMILY_TAGS):
            family = small_family(tag)
            space = build_space(family)
            assert is_canonical(ad_spectrum(space, canonical_element(family)))

    def test_doubled_element_not_canonical(self):
        family = small_family("AI")
        space = build_space(family)
        spec = ad_spectrum(space, 2.0 * canonical_element(family))
        assert not is_canonical(spec)

    def test_coprime_non_unit_frequencies_are_canonical(self):
        assert is_canonical(AdSpectrum((0.0, 2.0, 3.0), (1, 1, 1), (1, 1, 1)))
        assert not is_canonical(AdSpectrum((0.0, 2.0, 4.0), (1, 1, 1), (1, 1, 1)))
        assert not is_canonical(AdSpectrum((0.0, 0.5), (1, 1), (1, 1)))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateElementError):
            is_canonical(AdSpectrum((0.0,), (3,), (2,)))

    def test_integer_frequencies(self):
        assert integer_frequencies(AdSpectrum((0.0, 2.0, 3.0), (1, 1, 1), (1, 1, 1))) == (
            2,
            3,
        )


class TestNormalizeCanonical:
    def test_identity_on_canonical(self):
        family = small_family("CII")
        space = build_space(family)
        xi = canonical_element(family)
        assert normalize_canonical(space, xi) is not None
        assert np.max(np.abs(normalize_canonical(space, xi) - xi)) == 0.0

    @pytest.mark.parametrize("scale", [2.0, 3.0, 0.5, 0.125, 7.0])
    def test_undoes_scaling(self, scale):
        family = small_family("AI")
        space = build_space(family)
        xi = canonical_element(family)
        back = normalize_canonical(space, scale * xi)
        assert np.max(np.abs(back - xi)) < 1e-9

    def test_multi_frequency_gcd(self):
        # frequencies {2,5} from angles {2,3}... scaled by 1/2 the result
        # has frequencies {1, 5/2}: normalization must rescale by 2.
        family = SpaceFamily.make("BDI_split", 2)
        space = build_space(family)
        b = np.diag([2.0, 3.0])
        flat = np.block([[np.zeros((2, 2)), b], [-b.T, np.zeros((2, 2))]]).astype(
            complex
        )
        spec = ad_spectrum(space, flat)
        assert spec.frequencies == (0.0, 1.0, 5.0)
        halved = normalize_canonical(space, 0.5 * flat)
        assert np.max(np.abs(halved - flat)) < 1e-9

    def test_irrational_ratios_rejected(self):
        family = SpaceFamily.make("BDI_split", 2)
        space = build_space(family)
        a, c = (math.sqrt(2) + 1) / 2, (math.sqrt(2) - 1) / 2
        b = np.diag([a, c])
        flat = np.block([[np.zeros((2, 2)), b], [-b.T, np.zeros((2, 2))]]).astype(
            complex
        )
        spec = ad_spectrum(space, flat)
        assert not is_canonical(spec)
        with pytest.raises(IrrationalRatioError):
            normalize_canonical(space, flat)

    def test_degenerate_rejected(self):
        # BDI_rank1 p-elements with E of rank one and xi scaled to zero
        family = small_family("AI")
        space = build_space(family)
        with pytest.raises(DegenerateElementError):
            normalize_canonical(space, np.zeros((3, 3), dtype=complex))


class TestExtrinsicallySymmetricType:
    @pytest.mark.parametrize("tag", sorted(FAMILY_TAGS))
    def test_catalog_elements_qualify(self, tag):
        family = small_family(tag)
        space = build_space(family)
        assert is_extrinsically_symmetric_type(space, canonical_element(family))

    def test_doubled_element_fails(self):
        family = small_family("AIII")
        space = build_space(family)
        assert not is_extrinsically_symmetric_type(
            space, 2.0 * canonical_element(family)
        )

    def test_cube_identity_residual_small(self):
        family = small_family("GRP_d")
        space = build_space(family)
        a = ad_matrix(space, canonical_element(family))
        assert np.max(np.abs(a @ a @ a + a)) <= 1e-6

    def test_multi_frequency_element_fails(self):
        family = SpaceFamily.make("BDI_split", 2)
        space = build_space(family)
        b = np.diag([2.0, 3.0])
        flat = np.block([[np.zeros((2, 2)), b], [-b.T, np.zeros((2, 2))]]).astype(
            complex
        )
        assert not is_extrinsically_symmetric_type(space, flat)


def k_element(space, rng) -> np.ndarray:
    """A random element of k: the +1 part of random coordinates."""
    c = rng.standard_normal(space.dim_g)
    return space.from_coords((c + space.sigma_coords @ c) / 2.0)


def p_element(space, rng) -> np.ndarray:
    """A random element of p: the -1 part of random coordinates."""
    c = rng.standard_normal(space.dim_g)
    return space.from_coords((c - space.sigma_coords @ c) / 2.0)


def probe_elements(space) -> dict:
    """Elements of p: the canonical one, x3, x0.5, a K-conjugate of it and
    a random element."""
    rng = np.random.default_rng(7)
    xi = canonical_element(space.family)
    k = exp_generic(k_element(space, rng))
    return {
        "canonical": xi,
        "x3": 3.0 * xi,
        "x0.5": 0.5 * xi,
        "K-conjugate": k @ xi @ k.conj().T,
        "random p": p_element(space, rng),
    }


def root_w(space, xi) -> np.ndarray:
    """The eigenvalues w of -i*xi that _root_spectrum reads, after the
    tangency test its callers make first."""
    _require_tangent(space, xi, EPS)
    return np.linalg.eigvalsh(-1j * xi)


def both_routes(space, xi) -> tuple:
    """(root route, d x d route), each (spectrum, ext-sym) or the type of
    the SpindleError it raised."""
    try:
        root = _root_spectrum(space, root_w(space, xi), EPS)
    except SpindleError as exc:
        root = type(exc)
    try:
        ad = ad_spectrum(space, xi, EPS), _is_ext_sym(ad_matrix(space, xi, EPS), EPS)
    except SpindleError as exc:
        ad = type(exc)
    return root, ad


def dxd_adjoint_flags(space, xi, tol) -> tuple:
    """The d x d reference for adjoint_conjugation_flags: the matrix of
    Ad(exp(pi*xi)) on g, squared against the identity and commuted with
    the involution in coordinates."""
    g = exp_generic(xi, math.pi, tol)
    conj = g[None, :, :] @ space.basis_tensor @ g.conj().T[None, :, :]
    ad_g = space.basis_vecs @ mat_to_vec(conj).T
    order_two = float(np.max(np.abs(ad_g @ ad_g - np.eye(space.dim_g)))) <= tol
    s = space.sigma_coords
    commutes = float(np.max(np.abs(s @ ad_g - ad_g @ s))) <= tol
    return order_two, commutes


class TestRootRoute:
    """The root-data spectrum (spindle_number's route) against the d x d one."""

    @pytest.mark.parametrize("name", CAP6)
    def test_agrees_with_ad_route(self, catalog6, name):
        _, space, _ = catalog6[name]
        elements = probe_elements(space)
        elements["k element"] = k_element(space, np.random.default_rng(8))
        for label, xi in elements.items():
            root, ad = both_routes(space, xi)
            if isinstance(root, type) or isinstance(ad, type):
                assert root == ad, label
                continue
            (root_spec, root_ext), (ad_spec, ad_ext) = root, ad
            assert len(root_spec.frequencies) == len(ad_spec.frequencies), label
            dev = np.abs(np.subtract(root_spec.frequencies, ad_spec.frequencies))
            assert float(np.max(dev)) <= 1e-9, label
            assert root_spec.mult_k == ad_spec.mult_k, label
            assert root_spec.mult_p == ad_spec.mult_p, label
            assert root_ext == ad_ext, label

    def test_probe_outcomes(self):
        space = build_space(SpaceFamily.make("AI", 2, 3))
        got = {label: both_routes(space, xi)[0] for label, xi in probe_elements(space).items()}
        assert got["canonical"][0].frequencies == (0.0, 1.0) and got["canonical"][1]
        assert got["x3"][0].frequencies == (0.0, 3.0) and not got["x3"][1]
        assert got["x0.5"][0].frequencies == (0.0, 0.5) and not got["x0.5"][1]
        assert got["K-conjugate"][0] == got["canonical"][0] and got["K-conjugate"][1]
        assert len(got["random p"][0].frequencies) > 2 and not got["random p"][1]
        y = k_element(space, np.random.default_rng(8))
        assert both_routes(space, y) == (NotInTangentSpaceError, NotInTangentSpaceError)

    def test_multi_frequency_ai12(self):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        xi = 1j * np.diag([-1.0, 0.0, 1.0])
        spec, ext_sym = _root_spectrum(space, root_w(space, xi), EPS)
        assert spec.positive_frequencies == (1.0, 2.0)
        assert spec == ad_spectrum(space, xi)
        assert not ext_sym
        assert not is_extrinsically_symmetric_type(space, xi)

    def test_inconsistent_root_data_raises(self, monkeypatch):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        xi = canonical_element(space.family)
        # Frequency 1 takes 2 dimensions of k; a k of dimension 1 cannot hold them.
        with pytest.raises(SpectrumBucketingError):
            _root_spectrum(replace(space, k_dim=1, p_dim=7), root_w(space, xi), EPS)
        # Three values at frequency 1 cannot split evenly between k and p.
        spec = spaces._FAMILIES["AI"]
        dropped = replace(spec, roots=lambda w: np.sort(spec.roots(w))[:-1])
        monkeypatch.setitem(spaces._FAMILIES, "AI", dropped)
        with pytest.raises(SpectrumBucketingError):
            _root_spectrum(space, root_w(space, xi), EPS)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FAMILY_TAGS)), st.integers(0, 2**32 - 1))
    def test_k_conjugation_invariant(self, tag, seed):
        space = build_space(small_family(tag))
        rng = np.random.default_rng(seed)
        xi = p_element(space, rng)
        k = exp_generic(k_element(space, rng))
        spec, ext_sym = _root_spectrum(space, root_w(space, xi), EPS)
        moved, moved_ext = _root_spectrum(space, root_w(space, k @ xi @ k.conj().T), EPS)
        assert len(moved.frequencies) == len(spec.frequencies)
        assert np.max(np.abs(np.subtract(moved.frequencies, spec.frequencies))) <= 1e-9
        assert (moved.mult_k, moved.mult_p, moved_ext) == (spec.mult_k, spec.mult_p, ext_sym)


class TestAdjointFlags:
    @pytest.mark.parametrize("name", CAP6)
    def test_match_dxd_reference(self, catalog6, name):
        _, space, _ = catalog6[name]
        for label, xi in probe_elements(space).items():
            flags = adjoint_conjugation_flags(space, xi, EPS)
            assert flags == dxd_adjoint_flags(space, xi, EPS), label
            # For xi in p, sigma(exp(pi*xi)) = exp(pi*xi)^-1: one condition.
            assert flags[0] == flags[1], label
            if label == "x0.5":
                assert flags == (False, False)
            if label in ("canonical", "x3", "K-conjugate"):
                assert flags == (True, True), label
