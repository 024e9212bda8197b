import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindles import spaces
from spindles.errors import (
    MethodDisagreementError,
    NotCanonicalError,
    ParameterError,
)
from spindles.linalg import RationalAngle, exp_generic
from spindles.spaces import SpaceFamily, build_space, canonical_element
from spindles.spindle import (
    AdSpectrum,
    _rational_phases,
    _report_checks,
    adjoint_conjugation_flags,
    center_divisibility_check,
    closed_form_lambda,
    jacobi_norm_sq,
    method_exact,
    method_numeric,
    product_spindle,
    slice_dimension,
    spindle_number,
)
from spindles.verification import run_verification


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


def canonical_phases(family):
    """The rational eigenphases of xi at the canonical element, method_exact's input."""
    return _rational_phases(np.linalg.eigvalsh(-1j * canonical_element(family)))


class TestMethods:
    def test_exact_search_ai15(self):
        family = SpaceFamily.make("AI", 1, 5)
        assert method_exact(family, canonical_phases(family)) == 6

    def test_exact_includes_cover(self):
        grp_bd, grp_d = SpaceFamily.make("GRP_bd", 4), SpaceFamily.make("GRP_d", 2)
        assert method_exact(grp_bd, canonical_phases(grp_bd)) == 2
        assert method_exact(grp_d, canonical_phases(grp_d)) == 4

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
            assert method_numeric(space, xi) == method_exact(family, canonical_phases(family))

    def test_numeric_detects_shorter_return(self, monkeypatch):
        # a canonical element that is not conjugate to the catalog one: its
        # geodesic closes after one knot step, and both routes see it.
        family = SpaceFamily.make("AI", 1, 3)
        space = build_space(family)
        other = 1j * np.diag([0.0, 1.0, -1.0, 0.0])
        assert method_numeric(space, other) == 1
        assert method_exact(family, _rational_phases(np.linalg.eigvalsh(-1j * other))) == 1
        report = spindle_number(space, other)
        assert report.lambda_ == report.method_exact == report.method_numeric == 1
        # A predicate that refuses exp(pi*xi) moves the numeric return to 2,
        # and the cross-check trips.
        g1 = exp_generic(other, math.pi)
        spec = spaces._FAMILIES["AI"]

        def mutant(g, tol, p, q):
            return float(np.max(np.abs(g - g1))) > tol and spec.isotropy(g, tol, p, q)

        monkeypatch.setitem(spaces._FAMILIES, "AI", dataclasses.replace(spec, isotropy=mutant))
        assert method_numeric(space, other) == 2
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
        assert report.space.center_order == 3
        assert report.lambda_ == 2 * report.space.center_order
        assert report.spectrum.frequencies == (0.0, 1.0)
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
                assert dim == report.spectrum.orbit_dim


class TestAdjointChecks:
    def test_canonical_passes(self):
        family = SpaceFamily.make("AII", 1, 2)
        space = build_space(family)
        assert adjoint_conjugation_flags(space, canonical_element(family)) == (True, True)

    def test_half_element_fails_raw_flags(self):
        family = SpaceFamily.make("AI", 1, 2)
        space = build_space(family)
        xi = canonical_element(family)
        order_two, _ = adjoint_conjugation_flags(space, 0.5 * xi)
        assert not order_two


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


class TestVerificationEpsResolvedOnce:
    def test_default_eps_calls_per_battery(self, monkeypatch):
        from spindles import linalg

        calls = []
        real = linalg.default_eps

        def counting():
            calls.append(1)
            return real()

        monkeypatch.delenv("SPINDLE_EPS", raising=False)
        monkeypatch.setattr(linalg, "default_eps", counting)
        run_verification(cap=2)
        assert len(calls) == 1
        calls.clear()
        run_verification(cap=2, eps=1e-9)
        assert calls == []


class TestBadEps:
    """A tolerance that is not a finite number > 0 is refused by name, not
    blamed on the element."""

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_spindle_number(self, eps):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        with pytest.raises(ParameterError, match=f"^eps must be a finite number > 0, got {eps!r}$"):
            spindle_number(space, eps=eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0, -1])
    def test_run_verification(self, eps):
        with pytest.raises(ParameterError, match=f"^eps must be a finite number > 0, got {eps!r}$"):
            run_verification(cap=1, eps=eps)

    def test_environment(self, monkeypatch):
        monkeypatch.setenv("SPINDLE_EPS", "0")
        space = build_space(SpaceFamily.make("AI", 1, 2))
        with pytest.raises(ParameterError, match="^SPINDLE_EPS must be a finite number > 0, got '0'$"):
            spindle_number(space)


def scalar_grid_checks(spec, ext_sym, tol):
    """The grid checks of a report, one scalar helper call per grid point
    (the reference _report_checks must agree with)."""
    checks = {}
    comps = [1.0] * len(spec.positive_frequencies)
    lattice_ok = True
    for k in range(-240, 241):
        val = jacobi_norm_sq(spec, comps, k * math.pi / 60.0)
        if (val <= 1e-15) != (k % 60 == 0):
            lattice_ok = False
            break
    checks["jacobi_zero_iff_knot"] = lattice_ok

    dims = {k: slice_dimension(spec, k * math.pi / 60.0, tol) for k in range(-240, 241)}
    checks["slice_zero_iff_knot"] = all((dims[k] == 0) == (k % 60 == 0) for k in dims)
    if ext_sym:
        interior = {dims[k] for k in range(1, 60)}
        checks["slice_constant_between_knots"] = interior == {spec.orbit_dim}
    else:
        checks["slice_constant_between_knots"] = None

    knot_sym = True
    for center in range(-240, 241, 60):
        for off in range(0, 241):
            lo, hi = center - off, center + off
            if -240 <= lo and hi <= 240 and dims[lo] != dims[hi]:
                knot_sym = False
    checks["profile_symmetric_about_knots"] = knot_sym

    if ext_sym:
        cent_sym = True
        for center in range(-210, 241, 60):
            for off in range(0, 241):
                lo, hi = center - off, center + off
                if -240 <= lo and hi <= 240 and dims[lo] != dims[hi]:
                    cent_sym = False
        checks["profile_symmetric_about_centrioles"] = cent_sym
    else:
        checks["profile_symmetric_about_centrioles"] = None
    return checks


REPORT_CHECK_KEYS = [
    "canonical",
    "extrinsically_symmetric_type",
    "methods_agree",
    "adjoint_order_two",
    "adjoint_commutes_with_involution",
    "center_divides_double",
    "jacobi_zero_iff_knot",
    "slice_zero_iff_knot",
    "slice_constant_between_knots",
    "profile_symmetric_about_knots",
    "profile_symmetric_about_centrioles",
]

# (positive frequencies, positive mult_p, ext_sym). The first six are
# spectra the catalog never produces (two frequencies, so not
# extrinsically symmetric); a zero multiplicity lets a slice vanish off
# the knots. The rest pass ext_sym=True with spectra that make the
# symmetry and lattice checks come out False.
SYNTHETIC_SPECTRA = [
    ((1.0, 2.0), (3, 1), False),
    ((1.0, 2.0), (1, 4), False),
    ((1.0, 2.0), (2, 0), False),
    ((1.0, 3.0), (2, 5), False),
    ((1.0, 3.0), (1, 1), False),
    ((1.0, 3.0), (3, 0), False),
    ((1.0,), (4,), True),
    ((1.5,), (2,), True),
    ((1.0 / 3.0, 1.0), (1, 2), True),
    ((1.0, 2.0), (2, 3), True),
]


class TestReportChecksOracle:
    @pytest.mark.parametrize("tol", [1e-9, 0.1])
    def test_catalog_reports(self, catalog6, tol):
        for name, (_, space, report) in catalog6.items():
            spec = report.spectrum
            ext_sym = report.extrinsically_symmetric
            lam = report.lambda_
            g = exp_generic(canonical_element(space.family), math.pi)
            checks = _report_checks(space, g, spec, lam, ext_sym, lam, lam, tol)
            assert list(checks) == REPORT_CHECK_KEYS, name
            if tol == 1e-9:
                assert list(checks.items()) == list(report.checks.items()), name
            grid = {key: checks[key] for key in REPORT_CHECK_KEYS[6:]}
            assert grid == scalar_grid_checks(spec, ext_sym, tol), name
            assert all(type(v) is bool or v is None for v in checks.values()), name
            # sin(pi/60) ~ 0.052 < 0.1: the slice next to each knot is empty.
            assert checks["slice_zero_iff_knot"] is (tol < 0.05), name

    def test_synthetic_spectra(self):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        g = exp_generic(canonical_element(space.family), math.pi)
        seen = {key: set() for key in REPORT_CHECK_KEYS[6:]}
        for freqs, mult_p, ext_sym in SYNTHETIC_SPECTRA:
            spec = AdSpectrum((0.0, *freqs), (1, *mult_p), (1, *mult_p))
            for tol in (1e-9, 0.05, 0.06):
                checks = _report_checks(space, g, spec, 1, ext_sym, 1, 1, tol)
                assert list(checks) == REPORT_CHECK_KEYS
                grid = {key: checks[key] for key in REPORT_CHECK_KEYS[6:]}
                assert grid == scalar_grid_checks(spec, ext_sym, tol), (freqs, mult_p, tol)
                for key, value in grid.items():
                    assert type(value) is bool or value is None
                    seen[key].add(value)
        # Every grid check took both values, and the ext-sym-only ones None.
        for key, values in seen.items():
            assert {True, False} <= values, key
        assert None in seen["slice_constant_between_knots"]
        assert None in seen["profile_symmetric_about_centrioles"]


def _analysis_checks(xi=None, eps=None):
    """spindle_number(AI(1,2), xi, eps).checks."""
    return spindle_number(build_space(SpaceFamily.make("AI", 1, 2)), xi, eps).checks


def _crafted_checks(params=(1, 2), **changes):
    """_report_checks on the arguments spindle_number passes it for the
    canonical AI(*params), with changes applied."""
    space = build_space(SpaceFamily.make("AI", *params))
    report = spindle_number(space)
    args = {
        "space": space,
        "g": exp_generic(canonical_element(space.family), math.pi),
        "spec": report.spectrum,
        "lam": report.lambda_,
        "ext_sym": report.extrinsically_symmetric,
        "exact": report.lambda_,
        "numeric": report.lambda_,
        "tol": 1e-9,
    }
    args.update(changes)
    return _report_checks(**args)


# (checks the case turns False, how the case gets its checks).
REPORT_CHECK_FAILURES = [
    (
        {"extrinsically_symmetric_type"},
        lambda: _analysis_checks(xi=np.diag([-1j, 0.0, 1j])),
    ),
    (
        {"slice_zero_iff_knot", "slice_constant_between_knots"},
        lambda: _analysis_checks(eps=0.1),
    ),
    ({"methods_agree"}, lambda: _crafted_checks(exact=3, numeric=4)),
    (
        {"adjoint_order_two", "adjoint_commutes_with_involution"},
        lambda: _crafted_checks(
            g=exp_generic(canonical_element(SpaceFamily.make("AI", 1, 2)), math.pi / 2)
        ),
    ),
    ({"center_divides_double"}, lambda: _crafted_checks((1, 5), lam=4)),
    (
        {
            "jacobi_zero_iff_knot",
            "slice_zero_iff_knot",
            "profile_symmetric_about_knots",
            "profile_symmetric_about_centrioles",
        },
        lambda: _crafted_checks(spec=AdSpectrum((0.0, 1.0 / 3.0), (1, 1), (1, 1))),
    ),
]


class TestEveryReportCheckCanFail:
    """Every report check has an input that turns it False, or is named as
    unable to fail. Where one exists, the input is one spindle_number
    accepts; the other checks cannot fail on any element spindle_number
    accepts, so only a crafted _report_checks argument turns them False.

    | check                                | input that turns it False             |
    |--------------------------------------|---------------------------------------|
    | extrinsically_symmetric_type         | spindle_number: AI(1,2) at            |
    |                                      | i*diag(-1, 0, 1)                      |
    | slice_zero_iff_knot,                 | spindle_number: canonical AI(1,2) at  |
    | slice_constant_between_knots         | eps 0.1                               |
    | methods_agree                        | crafted: exact 3, numeric 4           |
    | adjoint_order_two,                   | crafted: g = exp(pi/2 * xi)           |
    | adjoint_commutes_with_involution     |                                       |
    | center_divides_double                | crafted: AI(1,5), center of order 3,  |
    |                                      | at lambda = 4                         |
    | jacobi_zero_iff_knot,                | crafted: an AdSpectrum whose only     |
    | profile_symmetric_about_knots,       | positive frequency is 1/3 (it turns   |
    | profile_symmetric_about_centrioles   | slice_zero_iff_knot False too)        |
    | canonical                            | none: it is the literal True          |

    Each case turns exactly the checks it names False."""

    @pytest.mark.parametrize(
        "names,checks", [pytest.param(*case, id=min(case[0])) for case in REPORT_CHECK_FAILURES]
    )
    def test_case_turns_its_checks_false(self, names, checks):
        got = checks()
        assert list(got) == REPORT_CHECK_KEYS
        assert {key for key, value in got.items() if value is False} == names

    def test_table_covers_every_check(self):
        covered = set().union(*(names for names, _ in REPORT_CHECK_FAILURES))
        assert covered == set(REPORT_CHECK_KEYS) - {"canonical"}

    def test_canonical_is_the_literal_true(self):
        for _, checks in REPORT_CHECK_FAILURES:
            assert checks()["canonical"] is True


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

    @pytest.mark.parametrize(
        "lam,z,bad", [(2.5, 5, "2.5"), (float("nan"), 2, "nan"), ("3", 3, "'3'"), (6, 1.5, "1.5")]
    )
    def test_refuses_non_integers(self, lam, z, bad):
        """int() would truncate 2.5 and 1.5, parse '3' and raise a bare
        ValueError on nan; each is refused by name instead."""
        with pytest.raises(ParameterError, match="lam and z must be integers") as err:
            center_divisibility_check(lam, z)
        assert bad in str(err.value)

    def test_accepts_integral_values(self):
        assert center_divisibility_check(3.0, 3)
        assert center_divisibility_check(np.int64(6), np.int32(3))
        assert not center_divisibility_check(4.0, 1.0)

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

    @pytest.mark.parametrize(
        "a,b,bad", [(2.5, 3, "2.5"), ("3", 2, "'3'"), (2, float("inf"), "inf"), (None, 2, "None")]
    )
    def test_refuses_non_integers(self, a, b, bad):
        """int() would truncate 2.5 and parse '3' into a product of 6;
        each non-integer is refused by name instead."""
        with pytest.raises(ParameterError, match="spindle numbers must be integers") as err:
            product_spindle(a, b)
        assert bad in str(err.value)

    def test_accepts_integral_values(self):
        assert product_spindle(3.0, 2) == 6
        assert product_spindle(np.int64(4), np.int32(6)) == 12

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
            f.params[0]: r.lambda_ for f, s, r in catalog6.values() if f.tag == "BDI_split"
        }
        assert got == {2: 2, 3: 4, 4: 2, 5: 4, 6: 2}

    def test_all_reports_extrinsically_symmetric(self, catalog6):
        for name, (family, space, report) in catalog6.items():
            assert report.extrinsically_symmetric, name
            assert report.spectrum.frequencies == (0.0, 1.0), name

    def test_all_checks_green(self, catalog6):
        for name, (family, space, report) in catalog6.items():
            for key, value in report.checks.items():
                assert value is None or value is True, f"{name}:{key}"
