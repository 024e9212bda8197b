import numpy as np
import pytest

from spindles.errors import (
    DimensionMismatchError,
    NotUnitaryError,
    ParameterError,
)
from spindles.linalg import RationalAngle, exp_generic
from spindles.spaces import (
    FAMILY_TAGS,
    PQ_FAMILIES,
    SpaceFamily,
    build_space,
    canonical_element,
    catalog_entry,
    isotropy_contains,
    stated_membership,
    sweep_families,
)
from spindles.spindle import _rational_phases
from test_linalg import subspace_rank


def so_dim(m):
    return m * (m - 1) // 2


def su_dim(m):
    return m * m - 1


def sp_dim(n):
    return n * (2 * n + 1)


class TestSpaceFamily:
    def test_tags(self):
        assert len(FAMILY_TAGS) == 12
        assert PQ_FAMILIES < set(FAMILY_TAGS)

    @pytest.mark.parametrize(
        "tag,params",
        [
            ("AI", (0, 4)),
            ("AI", (3, 2)),
            ("AII", (1,)),
            ("AIII", (0,)),
            ("AIII", (1, 2)),
            ("BDI_rank1", (1, 1)),
            ("BDI_split", (1,)),
            ("GRP_bd", (2,)),
            ("GRP_d", (1,)),
            ("XX", (1, 2)),
            ("AI", (1.5, 2)),
            ("AI", ("a", 2)),
            ("AIII", (float("nan"),)),
            ("AIII", (float("inf"),)),
        ],
    )
    def test_invalid_parameters_rejected(self, tag, params):
        with pytest.raises(ParameterError):
            SpaceFamily.make(tag, *params)

    def test_labels(self):
        assert SpaceFamily.make("AI", 1, 5).label() == "AI(1,5)"
        assert SpaceFamily.make("CI", 3).label() == "CI(3)"

    def test_space_names(self):
        assert SpaceFamily.make("AI", 1, 5).space_name() == "SU(6)/SO(6)"
        assert SpaceFamily.make("AII", 1, 2).space_name() == "SU(6)/Sp(3)"
        assert SpaceFamily.make("AIII", 2).space_name() == "SU(4)/S(U(2)xU(2))"
        assert SpaceFamily.make("BDI_rank1", 2, 3).space_name() == "SO(5)/SO(2)xSO(3)"
        assert SpaceFamily.make("BDI_split", 3).space_name() == "SO(6)/SO(3)xSO(3)"
        assert SpaceFamily.make("DIII", 2).space_name() == "SO(8)/U(4)"
        assert SpaceFamily.make("CI", 3).space_name() == "Sp(3)/U(3)"
        assert SpaceFamily.make("CII", 2).space_name() == "Sp(4)/Sp(2)xSp(2)"
        assert SpaceFamily.make("GRP_a", 2, 3).space_name() == "SU(5)"
        assert SpaceFamily.make("GRP_bd", 5).space_name() == "Spin(5)"
        assert SpaceFamily.make("GRP_c", 4).space_name() == "Sp(4)"
        assert SpaceFamily.make("GRP_d", 3).space_name() == "Spin(6)"

    def test_cover_multipliers(self):
        assert SpaceFamily.make("GRP_bd", 4).cover_multiplier == 2
        assert SpaceFamily.make("GRP_d", 3).cover_multiplier == 2
        assert SpaceFamily.make("GRP_a", 1, 1).cover_multiplier == 1
        assert SpaceFamily.make("AI", 1, 2).cover_multiplier == 1


class TestBuildSpace:
    @pytest.mark.parametrize(
        "tag,params,dims",
        [
            # (dim g, dim k, dim p) against closed-form algebra dimensions
            ("AI", (1, 2), (su_dim(3), so_dim(3), 5)),
            ("AI", (2, 3), (su_dim(5), so_dim(5), 14)),
            ("AII", (1, 1), (su_dim(4), sp_dim(2), 5)),
            ("AIII", (2), (su_dim(4), 7, 8)),
            ("BDI_rank1", (2, 3), (so_dim(5), so_dim(2) + so_dim(3), 6)),
            ("BDI_split", (3), (so_dim(6), 2 * so_dim(3), 9)),
            ("DIII", (2), (so_dim(8), 16, 12)),
            ("CI", (1), (sp_dim(1), 1, 2)),
            ("CI", (3), (sp_dim(3), 9, 12)),
            ("CII", (2), (sp_dim(4), 2 * sp_dim(2), 16)),
            ("GRP_a", (1, 2), (su_dim(3), so_dim(3), 5)),
            ("GRP_bd", (4), (so_dim(4), so_dim(3), 3)),
            ("GRP_c", (2), (sp_dim(2), 4, 6)),
            ("GRP_d", (2), (so_dim(4), 2, 4)),
        ],
    )
    def test_dimensions(self, tag, params, dims):
        params = params if isinstance(params, tuple) else (params,)
        space = build_space(SpaceFamily.make(tag, *params))
        assert (space.dim_g, space.k_dim, space.p_dim) == dims

    @pytest.mark.parametrize("tag,params", [("AI", (1, 2)), ("CII", (1,)), ("GRP_d", (2,))])
    def test_k_dim_matches_eigenspace_rank(self, tag, params):
        # independent route: count +1 eigenvalues of the involution matrix
        space = build_space(SpaceFamily.make(tag, *params))
        ew = np.linalg.eigvalsh(space.sigma_coords)
        assert np.sum(ew > 0) == space.k_dim
        assert np.sum(ew < 0) == space.p_dim

    def test_basis_orthonormal_and_anti_hermitian(self):
        space = build_space(SpaceFamily.make("CII", 1))
        v = space.basis_vecs
        assert np.max(np.abs(v @ v.T - np.eye(space.dim_g))) < 1e-12
        for b in space.basis_tensor:
            assert np.max(np.abs(b + b.conj().T)) < 1e-12

    def test_sigma_preserves_algebra_and_involutes(self):
        space = build_space(SpaceFamily.make("DIII", 1))
        s = space.sigma_coords
        assert np.max(np.abs(s @ s - np.eye(space.dim_g))) < 1e-12
        for b in space.basis_tensor:
            image = space.apply_sigma(b)
            assert space._residual(image) < 1e-12

    def test_coords_roundtrip(self):
        space = build_space(SpaceFamily.make("AII", 1, 1))
        rng = np.random.default_rng(3)
        c = rng.standard_normal(space.dim_g)
        x = space.from_coords(c)
        assert np.allclose(space.to_coords(x), c)


class TestCanonicalElement:
    @pytest.mark.parametrize("tag", sorted(FAMILY_TAGS))
    def test_tangent_and_form_identity(self, tag):
        params = (2, 3) if tag in PQ_FAMILIES else (3,)
        family = SpaceFamily.make(tag, *params)
        space = build_space(family)
        xi = canonical_element(family)
        assert space.contains_tangent(xi)
        if family.closed_form == "half-angle":
            assert np.max(np.abs(xi @ xi + np.eye(family.ambient_dim) / 4)) < 1e-12
        elif family.closed_form == "rotation-block":
            assert np.max(np.abs(xi @ xi @ xi + xi)) < 1e-12
        else:
            d = np.diag(xi).imag
            assert np.max(np.abs(xi - 1j * np.diag(d))) < 1e-12

    def test_ai_entries(self):
        xi = canonical_element(SpaceFamily.make("AI", 1, 2))
        assert np.allclose(np.diag(xi), [-2j / 3, 1j / 3, 1j / 3])

    def test_traceless_where_ambient_is_su(self):
        for tag, params in [("AI", (2, 3)), ("AII", (1, 2)), ("AIII", (3,)), ("GRP_a", (1, 4))]:
            xi = canonical_element(SpaceFamily.make(tag, *params))
            assert abs(np.trace(xi)) < 1e-12


class TestIsotropyContains:
    def test_identity_always_in(self):
        for tag in sorted(FAMILY_TAGS):
            params = (1, 2) if tag in PQ_FAMILIES else (3,)
            space = build_space(SpaceFamily.make(tag, *params))
            assert isotropy_contains(space, np.eye(space.ambient_dim))

    def test_ai_rejects_complex_phase(self):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        g = np.diag(np.exp(1j * np.array([0.3, -0.1, -0.2])))
        assert not isotropy_contains(space, g)

    def test_ai_accepts_rotation(self):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        theta = 0.7
        g = np.eye(3, dtype=complex)
        g[1:, 1:] = [
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ]
        assert isotropy_contains(space, g)

    def test_aiii_contains_minus_identity(self):
        space = build_space(SpaceFamily.make("AIII", 2))
        assert isotropy_contains(space, -np.eye(4))

    def test_aiii_rejects_swap(self):
        space = build_space(SpaceFamily.make("AIII", 2))
        g = 1j * np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert not isotropy_contains(space, g)

    def test_bdi_block_determinants(self):
        # diag(-1,1,-1,1,1) has both blocks of determinant -1: in
        # S(O(2)xO(3)) but not in SO(2)xSO(3).
        space = build_space(SpaceFamily.make("BDI_rank1", 2, 3))
        g = np.diag([-1.0, 1.0, -1.0, 1.0, 1.0]).astype(complex)
        assert not isotropy_contains(space, g)
        assert isotropy_contains(space, np.diag([-1.0, -1.0, 1.0, 1.0, 1.0]).astype(complex))

    def test_group_family_order_two(self):
        space = build_space(SpaceFamily.make("GRP_c", 2))
        assert isotropy_contains(space, -np.eye(4))
        xi = canonical_element(space.family)
        assert not isotropy_contains(space, exp_generic(xi, np.pi))

    def test_rejects_non_unitary(self):
        space = build_space(SpaceFamily.make("AI", 1, 1))
        with pytest.raises(NotUnitaryError):
            isotropy_contains(space, 2 * np.eye(2))

    def test_rejects_wrong_shape(self):
        space = build_space(SpaceFamily.make("AI", 1, 1))
        with pytest.raises(DimensionMismatchError):
            isotropy_contains(space, np.eye(3))

    def test_conjugation_by_isotropy_preserves_membership(self):
        space = build_space(SpaceFamily.make("AII", 1, 2))
        rng = np.random.default_rng(5)
        c = rng.standard_normal(space.dim_g)
        y = space.from_coords(0.4 * (c + space.sigma_coords @ c) / 2)
        k = exp_generic(y)
        assert isotropy_contains(space, k)
        xi = canonical_element(space.family)
        for n in range(1, 7):
            g = exp_generic(xi, n * np.pi)
            assert isotropy_contains(space, k @ g @ k.conj().T) == isotropy_contains(
                space, g
            )


def canonical_phases(family):
    return _rational_phases(np.linalg.eigvalsh(-1j * canonical_element(family)))


class TestStatedMembership:
    def test_ai_lattice(self):
        family = SpaceFamily.make("AI", 1, 5)
        phases = canonical_phases(family)
        hits = [
            n for n in range(0, 25) if stated_membership(family, phases, RationalAngle(n))
        ]
        assert hits == [0, 6, 12, 18, 24]

    def test_bdi_split_parity(self):
        odd = SpaceFamily.make("BDI_split", 3)
        even = SpaceFamily.make("BDI_split", 4)
        odd_phases, even_phases = canonical_phases(odd), canonical_phases(even)
        assert [
            n for n in range(9) if stated_membership(odd, odd_phases, RationalAngle(n))
        ] == [0, 4, 8]
        assert [
            n for n in range(9) if stated_membership(even, even_phases, RationalAngle(n))
        ] == [0, 2, 4, 6, 8]

    def test_non_integer_times_rejected_for_quotients(self):
        family = SpaceFamily.make("CI", 2)
        phases = canonical_phases(family)
        assert not stated_membership(family, phases, RationalAngle(1, 2))
        assert not stated_membership(family, phases, RationalAngle(1))
        assert stated_membership(family, phases, RationalAngle(2))


class TestCenterAndCatalog:
    def test_center_orders(self):
        assert build_space(SpaceFamily.make("GRP_a", 1, 1)).center_order == 2
        assert build_space(SpaceFamily.make("GRP_a", 2, 3)).center_order == 5
        assert build_space(SpaceFamily.make("GRP_c", 3)).center_order == 2
        assert build_space(SpaceFamily.make("GRP_bd", 5)).center_order == 2
        assert build_space(SpaceFamily.make("GRP_bd", 4)).center_order == 4
        assert build_space(SpaceFamily.make("GRP_d", 3)).center_order == 4
        assert build_space(SpaceFamily.make("AI", 1, 5)).center_order == 3
        assert build_space(SpaceFamily.make("AI", 1, 2)).center_order is None

    def test_su_center_brute_force(self):
        # scalar unitaries with determinant one: exactly p+q of them
        for m in (2, 3, 4, 5):
            roots = [np.exp(2j * np.pi * k / m) for k in range(m)]
            assert all(abs(z**m - 1) < 1e-12 for z in roots)
            space = build_space(SpaceFamily.make("GRP_a", 1, m - 1))
            assert space.center_order == len(roots)

    def test_sweep_respects_constraints(self):
        labels = {str(f) for f in sweep_families(3)}
        assert "BDI_rank1(1,1)" not in labels
        assert "GRP_bd(2)" not in labels
        assert "GRP_bd(3)" in labels
        assert "BDI_split(2)" in labels
        assert "AI(1,3)" in labels
        assert "AI(3,1)" not in labels

    def test_sweep_cap_validation(self):
        with pytest.raises(ParameterError):
            list(sweep_families(0))

    def test_sweep_deterministic_order(self):
        first = [str(f) for f in sweep_families(4)]
        second = [str(f) for f in sweep_families(4)]
        assert first == second

    def test_catalog_entry_keys(self):
        space = build_space(SpaceFamily.make("DIII", 2))
        entry = catalog_entry(space)
        for key in (
            "family",
            "params",
            "space",
            "orbit",
            "ambient_dim",
            "dim_g",
            "dim_k",
            "dim_p",
            "center_order",
            "cover_multiplier",
            "closed_form",
        ):
            assert key in entry
        assert entry["space"] == "SO(8)/U(4)"
        assert entry["orbit"] == "U(4)/Sp(2)"


class TestOrbitTangent:
    @pytest.mark.parametrize(
        "tag,params,expected",
        [
            ("AI", (1, 2), 2),  # SO(3)/S(O(1)xO(2)) is a projective plane
            ("AIII", (1,), 1),  # orbit U(1) is a circle
            ("CI", (2,), 3),  # orbit U(2)/SO(2x... dim u(2) - dim so(2)
        ],
    )
    def test_bracket_rank_oracle(self, tag, params, expected):
        # dim of the isotropy orbit through xi: rank of [k-basis, xi]
        family = SpaceFamily.make(tag, *params)
        space = build_space(family)
        xi = canonical_element(family)
        ew, ev = np.linalg.eigh(space.sigma_coords)
        k_mats = np.tensordot(ev[:, ew > 0].T, space.basis_tensor, axes=1)
        brackets = [xi @ y - y @ xi for y in k_mats]
        assert subspace_rank(brackets) == expected
