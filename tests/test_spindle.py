import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindles.errors import (
    MethodDisagreementError,
    NotCanonicalError,
    ParameterError,
)
from spindles.linalg import RationalAngle, exp_generic
from spindles.spaces import SpaceFamily, build_space, canonical_element
from spindles.spindle import (
    adjoint_conjugation_flags,
    adjoint_space_check,
    center_divisibility_check,
    closed_form_lambda,
    method_exact,
    method_numeric,
    product_spindle,
    spindle_number,
)


class TestClosedForm:
    @pytest.mark.parametrize(
        "tag,params,expected",
        [
            ("AI", (1, 5), 6),
            ("AI", (2, 4), 3),
            ("AI", (2, 3), 5),
            ("AI", (4, 4), 2),
            ("AII", (3, 5), 8),
            ("AIII", (4,), 2),
            ("BDI_rank1", (3, 4), 2),
            ("BDI_split", (3,), 4),
            ("BDI_split", (4,), 2),
            ("DIII", (3,), 2),
            ("CI", (5,), 2),
            ("CII", (2,), 2),
            ("GRP_a", (3, 3), 2),
            ("GRP_a", (1, 5), 6),
            ("GRP_bd", (5,), 2),
            ("GRP_c", (3,), 2),
            ("GRP_d", (4,), 4),
        ],
    )
    def test_table_values(self, tag, params, expected):
        assert closed_form_lambda(SpaceFamily.make(tag, *params)) == expected

    def test_coprime_formula(self):
        for p in range(1, 7):
            for q in range(p, 7):
                got = closed_form_lambda(SpaceFamily.make("AI", p, q))
                assert got == (p + q) // math.gcd(p, q)


class TestMethods:
    def test_exact_search_ai15(self):
        assert method_exact(SpaceFamily.make("AI", 1, 5)) == 6

    def test_exact_includes_cover(self):
        assert method_exact(SpaceFamily.make("GRP_bd", 4)) == 2
        assert method_exact(SpaceFamily.make("GRP_d", 2)) == 4

    def test_numeric_matches_exact_samples(self):
        for tag, params in [
            ("AI", (1, 5)),
            ("AI", (2, 4)),
            ("AII", (2, 3)),
            ("BDI_split", (3,)),
            ("BDI_split", (4,)),
            ("GRP_bd", (3,)),
            ("GRP_d", (3,)),
            ("CII", (2,)),
        ]:
            family = SpaceFamily.make(tag, *params)
            space = build_space(family)
            xi = canonical_element(family)
            assert method_numeric(space, xi) == method_exact(family)

    def test_numeric_detects_shorter_return(self):
        # a canonical element that is not conjugate to the catalog one:
        # its geodesic closes after one knot step, the published condition
        # still predicts the catalog value, and the cross-check trips.
        family = SpaceFamily.make("AI", 1, 3)
        space = build_space(family)
        other = 1j * np.diag([0.0, 1.0, -1.0, 0.0])
        assert method_numeric(space, other) == 1
        assert method_exact(family) == 4
        with pytest.raises(MethodDisagreementError):
            spindle_number(space, other)


class TestSpindleNumber:
    def test_ai15_report(self):
        family = SpaceFamily.make("AI", 1, 5)
        space = build_space(family)
        report = spindle_number(space)
        assert report.lambda_ == 6
        assert report.method_exact == 6
        assert report.method_numeric == 6
        assert report.center_order == 3
        assert report.lambda_ == 2 * report.center_order
        assert report.frequencies == (0.0, 1.0)
        assert report.extrinsically_symmetric
        assert report.knot_times == tuple(RationalAngle(n) for n in range(6))
        assert report.centriole_times == tuple(
            RationalAngle(2 * n + 1, 2) for n in range(6)
        )
        assert str(report.geodesic_length_over_norm) == "6/1 pi"
        assert all(v for v in report.checks.values() if v is not None)

    def test_non_canonical_rejected(self):
        family = SpaceFamily.make("AI", 1, 2)
        space = build_space(family)
        with pytest.raises(NotCanonicalError):
            spindle_number(space, 0.5 * canonical_element(family))

    def test_conjugation_invariance(self):
        for tag, params in [("AI", (1, 5)), ("CI", (2,)), ("GRP_d", (2,))]:
            family = SpaceFamily.make(tag, *params)
            space = build_space(family)
            xi = canonical_element(family)
            rng = np.random.default_rng(42)
            c = rng.standard_normal(space.dim_g)
            y = space.from_coords(0.3 * (c + space.sigma_coords @ c) / 2.0)
            k = exp_generic(y)
            moved = k @ xi @ k.conj().T
            report = spindle_number(space, moved)
            assert report.lambda_ == closed_form_lambda(family)

    def test_json_dict_shape(self):
        family = SpaceFamily.make("BDI_split", 3)
        space = build_space(family)
        payload = spindle_number(space).to_json_dict()
        assert payload["lambda"] == 4
        assert payload["family"] == "BDI_split"
        assert payload["knot_times"] == ["0/1 pi", "1/1 pi", "2/1 pi", "3/1 pi"]
        assert payload["centriole_times"][0] == "1/2 pi"
        assert payload["dims"]["g"] == 15
        assert payload["slice_profile"][0] == {"t_over_pi": "0", "dim": 0}
        assert payload["geodesic_length_over_norm"] == "4/1 pi"

    def test_slice_profile_grid(self):
        family = SpaceFamily.make("AIII", 2)
        space = build_space(family)
        report = spindle_number(space)
        assert len(report.slice_profile) == 12 * report.lambda_ + 1
        for t, dim in report.slice_profile:
            assert (dim == 0) == t.sin_is_zero
            if not t.sin_is_zero:
                assert dim == report.orbit_dim


class TestAdjointChecks:
    def test_canonical_passes(self):
        family = SpaceFamily.make("AII", 1, 2)
        space = build_space(family)
        assert adjoint_space_check(space, canonical_element(family))

    def test_half_element_fails_raw_flags(self):
        family = SpaceFamily.make("AI", 1, 2)
        space = build_space(family)
        xi = canonical_element(family)
        order_two, _ = adjoint_conjugation_flags(space, 0.5 * xi)
        assert not order_two
        assert not adjoint_space_check(space, 0.5 * xi, require_canonical=False)

    def test_half_element_gated_by_default(self):
        family = SpaceFamily.make("AI", 1, 2)
        space = build_space(family)
        with pytest.raises(NotCanonicalError):
            adjoint_space_check(space, 0.5 * canonical_element(family))


class TestEpsResolvedOnce:
    @pytest.mark.parametrize("params", [("AI", 2, 3), ("CII", 2), ("GRP_bd", 5)])
    def test_default_eps_calls_per_report(self, monkeypatch, params):
        from spindles import linalg

        calls = []
        real = linalg.default_eps

        def counting():
            calls.append(1)
            return real()

        monkeypatch.delenv("SPINDLE_EPS", raising=False)
        monkeypatch.setattr(linalg, "default_eps", counting)
        space = build_space(SpaceFamily.make(*params))
        spindle_number(space)
        assert len(calls) == 1
        calls.clear()
        spindle_number(space, eps=1e-9)
        assert calls == []


class TestCenterDivisibility:
    def test_examples(self):
        assert center_divisibility_check(6, 3)
        assert center_divisibility_check(3, 3)
        assert center_divisibility_check(2, 1)
        assert not center_divisibility_check(4, 1)
        assert not center_divisibility_check(3, 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            center_divisibility_check(0, 3)
        with pytest.raises(ParameterError):
            center_divisibility_check(2, 0)

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_matches_direct_definition(self, lam, z):
        direct = (2 * z) % lam == 0 and (lam % 2 == 0 or z % lam == 0)
        assert center_divisibility_check(lam, z) == direct


class TestProductSpindle:
    def test_examples(self):
        assert product_spindle(2, 3) == 6
        assert product_spindle(4, 6) == 12
        assert product_spindle(1, 5) == 5

    def test_validation(self):
        with pytest.raises(ParameterError):
            product_spindle(0, 3)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_lcm_properties(self, a, b):
        m = product_spindle(a, b)
        assert m % a == 0 and m % b == 0
        assert m == a * b // math.gcd(a, b)

    def test_brute_force_small(self):
        for a in range(1, 13):
            for b in range(1, 13):
                m = 1
                while m % a or m % b:
                    m += 1
                assert product_spindle(a, b) == m


class TestFullCatalog:
    def test_every_family_matches_table(self, catalog6):
        assert len(catalog6) == 127
        for name, (family, space, report) in catalog6.items():
            assert report.lambda_ == closed_form_lambda(family), name
            assert report.method_exact == report.method_numeric, name
            assert isinstance(report.lambda_, int), name

    def test_aiii_rows_all_two(self, catalog6):
        rows = [r for f, s, r in catalog6.values() if f.tag == "AIII"]
        assert len(rows) == 6
        assert {r.lambda_ for r in rows} == {2}

    def test_bdi_split_alternation(self, catalog6):
        got = {
            f.n: r.lambda_ for f, s, r in catalog6.values() if f.tag == "BDI_split"
        }
        assert got == {2: 2, 3: 4, 4: 2, 5: 4, 6: 2}

    def test_all_reports_extrinsically_symmetric(self, catalog6):
        for name, (family, space, report) in catalog6.items():
            assert report.extrinsically_symmetric, name
            assert report.frequencies == (0.0, 1.0), name

    def test_all_checks_green(self, catalog6):
        for name, (family, space, report) in catalog6.items():
            for key, value in report.checks.items():
                assert value is None or value is True, f"{name}:{key}"
