"""One eigendecomposition of xi per analysis, and the per-call code it replaced.

spindle_number diagonalizes xi once and reads the spectrum, the return
scan and exp(pi*xi) from it; the pi/12 slice profile comes from the
integer frequencies through the slice lattice; normalize_canonical takes its
frequencies from root data; the verify scans check and rationalize the
closed form once per space and build each route's exponentials as one
(A, N, N) stack, each slice the per-angle matrix to the bit (the generic
route's against _exp_eigh); a verify pass diagonalizes sigma_coords once
per space, one small eigh per component of its nonzero pattern, for its
graded-closure check and its d x d spectrum alike.
The oracles below are the earlier code, kept verbatim apart from names:
the per-point slice_dimension profile, the d x d normalize_canonical and
the single-angle exp_structured.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from spindles import linalg, spindle, verification
from spindles.errors import (
    DegenerateElementError,
    FormIdentityError,
    IrrationalRatioError,
    NotAntiHermitianError,
    NotInTangentSpaceError,
)
from spindles.linalg import (
    CLOSED_FORMS,
    RationalAngle,
    _eigh_trusted,
    _exp_eigh,
    _exp_generic_many,
    _exp_structured_many,
    _is_anti_hermitian,
    ensure_square,
    exp_generic,
    exp_structured,
    rationalize,
    resolve_eps,
)
from spindles.spaces import FAMILY_TAGS, SpaceFamily, build_space, canonical_element, sweep_families
from spindles.spindle import (
    BUCKET_TOL,
    MAX_RATIO_DENOMINATOR,
    _rational_phases,
    ad_spectrum,
    closed_form_lambda,
    method_exact,
    method_numeric,
    normalize_canonical,
    slice_dimension,
    spindle_number,
)
from test_basis_free import tangency_probes
from test_golden import LARGE_FAMILIES
from test_spectrum import CAP6, k_element, small_family

EPS = 1e-9


def oracle_profile(spec, lam, tol):
    """The slice profile as spindle_number built it point by point."""
    return tuple(
        (RationalAngle(k, 12), slice_dimension(spec, RationalAngle(k, 12), tol))
        for k in range(12 * lam + 1)
    )


def dxd_normalize_canonical(space, xi, eps=None):
    """normalize_canonical on the d x d route (ad_spectrum)."""
    m = ensure_square(xi)
    spec = ad_spectrum(space, m, eps)
    positives = spec.positive_frequencies
    if not positives:
        raise DegenerateElementError(
            "ad(xi) has no nonzero frequency; no canonical normalization exists"
        )
    base = positives[0]
    try:
        ratios = [rationalize(nu / base, MAX_RATIO_DENOMINATOR, BUCKET_TOL) for nu in positives]
    except Exception as exc:
        raise IrrationalRatioError(
            f"frequency ratios of {positives} are not rational within {BUCKET_TOL}"
        ) from exc
    common = math.lcm(*(r.denominator for r in ratios))
    numerators = [int(r * common) for r in ratios]
    g = math.gcd(*numerators)
    targets = [v // g for v in numerators]
    c = targets[0] / base
    for nu, target in zip(positives, targets):
        if abs(c * nu - target) > BUCKET_TOL:
            raise IrrationalRatioError(
                f"frequencies {positives} admit no common integer rescaling "
                f"(residual at target {target})"
            )
    if c == 1.0:
        return m
    return c * m


def _phase_entry(theta):
    return complex(theta.cos(), theta.sin())


def oracle_exp_structured(xi, t, form, eps=None):
    """exp_structured as it was: the form check and rationalization per angle."""
    m = ensure_square(xi)
    tol = resolve_eps(eps)
    n = m.shape[0]
    eye = np.eye(n)

    if form == "diagonal-phase":
        off = m - np.diag(np.diagonal(m))
        if float(np.max(np.abs(off))) > tol:
            raise FormIdentityError("diagonal-phase form needs a diagonal matrix")
        d = np.diagonal(m)
        if float(np.max(np.abs(d.real))) > tol:
            raise FormIdentityError("diagonal-phase form needs purely imaginary diagonal")
        phases = [rationalize(v) for v in d.imag]
        entries = [
            _phase_entry(RationalAngle(t.num * f.numerator, t.den * f.denominator))
            for f in phases
        ]
        return np.diag(np.asarray(entries, dtype=complex))

    if form == "half-angle":
        if float(np.max(np.abs(m @ m + eye / 4))) > tol:
            raise FormIdentityError("half-angle form needs xi^2 = -I/4")
        h = RationalAngle(t.num, 2 * t.den)
        return h.cos() * eye + (2.0 * h.sin()) * m

    if form == "rotation-block":
        m2 = m @ m
        if float(np.max(np.abs(m2 @ m + m))) > tol:
            raise FormIdentityError("rotation-block form needs xi^3 = -xi")
        return eye + t.sin() * m + (1.0 - t.cos()) * m2

    raise FormIdentityError(f"unknown closed form {form!r}; expected one of {CLOSED_FORMS}")


@pytest.fixture
def eigen_calls(monkeypatch):
    """(name, shape) of every np.linalg.eigh/eigvalsh call, as the spindles
    modules see them."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneEigendecomposition:
    @pytest.mark.parametrize(
        "family",
        [small_family(tag) for tag in FAMILY_TAGS] + [SpaceFamily.make("AI", 100, 100)],
        ids=str,
    )
    def test_spindle_number_diagonalizes_xi_once(self, eigen_calls, family):
        space = build_space(family)
        n = space.ambient_dim
        report = spindle_number(space)
        assert eigen_calls == [("eigh", (n, n))]
        assert report.method_exact == report.method_numeric
        phases = _rational_phases(np.linalg.eigvalsh(-1j * canonical_element(family)))
        eigen_calls.clear()
        method_exact(family, phases)
        assert eigen_calls == []

    def test_one_exponential_per_divisor(self, monkeypatch):
        # AI(199,201) has lambda 400 and n_max 800: the scan tests the 17
        # divisors of 800 up to 400, and its n = 1 candidate is the report's
        # exp(pi*xi).
        calls = []
        real = spindle._exp_eigh

        def counted(w, v, t):
            calls.append(t)
            return real(w, v, t)

        monkeypatch.setattr(spindle, "_exp_eigh", counted)
        monkeypatch.setattr(linalg, "_exp_eigh", counted)
        report = spindle_number(build_space(SpaceFamily.make("AI", 199, 201)))
        assert report.lambda_ == 400
        divisors = (1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 80, 100, 160, 200, 400)
        assert calls == [n * math.pi for n in divisors]

    @pytest.mark.parametrize("tag", sorted(FAMILY_TAGS))
    def test_refuses_tangent_non_anti_hermitian(self, tag):
        # Off g by half the tangency bound along a Hermitian direction: the
        # tangency test passes, the anti-Hermitian test at eps does not.
        space = build_space(small_family(tag))
        xi = tangency_probes(space)["off g x0.5"]
        assert space.contains_tangent(xi, EPS)
        assert not _is_anti_hermitian(ensure_square(xi), EPS)
        with pytest.raises(NotAntiHermitianError, match="^spindle_number requires"):
            spindle_number(space, xi, EPS)

    def test_method_numeric_refuses_non_anti_hermitian(self):
        # eigh reads one triangle only: unchecked, the scan answered 3 for
        # the first matrix and 1 for the Hermitian second one.
        space = build_space(SpaceFamily.make("AI", 1, 2))
        skewed = canonical_element(space.family).copy()
        skewed[0, 1] = 0.3
        for xi in (skewed, np.diag([1.0, 2.0, 3.0]).astype(complex)):
            with pytest.raises(NotAntiHermitianError, match="^method_numeric requires"):
                method_numeric(space, xi)
            with pytest.raises(NotAntiHermitianError, match="^exp_generic requires"):
                exp_generic(xi)

    def test_method_numeric_refuses_element_outside_p(self):
        # The rotation E01 - E10 is anti-Hermitian but lies in k = so(3):
        # unchecked, the scan answered 1 for it.
        space = build_space(SpaceFamily.make("AI", 1, 2))
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1], x[1, 0] = 1.0, -1.0
        assert not space.contains_tangent(x, EPS)
        for route in (method_numeric, spindle_number):
            with pytest.raises(NotInTangentSpaceError, match=r"^AI\(1,2\): element is not in"):
                route(space, x, EPS)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_one_rationalization_per_analysis(self, monkeypatch, seed):
        # spindle_number rationalizes each phase cluster of xi once, for the
        # exact route and the scan's bound together: AI(2,3) and a seeded
        # K-conjugate in AI(19,21) each have two clusters.
        family = SpaceFamily.make("AI", 2, 3) if seed is None else SpaceFamily.make("AI", 19, 21)
        space = build_space(family)
        xi = canonical_element(family)
        if seed is not None:
            k = exp_generic(k_element(space, np.random.default_rng(seed)))
            xi = k @ xi @ k.conj().T
        calls = []
        real = Fraction.limit_denominator

        def counted(self, max_denominator=1000000):
            calls.append(self)
            return real(self, max_denominator)

        monkeypatch.setattr(Fraction, "limit_denominator", counted)
        report = spindle_number(space, xi, EPS)
        assert report.lambda_ == closed_form_lambda(family)
        assert len(calls) == 2


@pytest.fixture
def solver_calls(monkeypatch):
    """(name, shape, dtype kind) of every np.linalg.eigh/eigvalsh/svd call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a), np.asarray(a).dtype.kind))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneInvolutionEigensolve:
    @pytest.mark.parametrize("family", [small_family(tag) for tag in FAMILY_TAGS], ids=str)
    def test_family_checks_diagonalize_sigma_once(self, solver_calls, family):
        # The eigensolves of xi are complex N x N; the real ones act on g:
        # the eigh of sigma_coords that the graded-closure check and the
        # d x d spectrum share, one batched eigh per component size of its
        # nonzero pattern and no d x d one, and the SVD of ad(xi) from k to p.
        space = build_space(family)
        results, lam = verification._family_checks(family, EPS, None)
        assert all(r.ok for r in results) and lam == closed_form_lambda(family)
        n, d = space.ambient_dim, space.dim_g
        real = [(name, shape) for name, shape, kind in solver_calls if kind == "f"]
        eighs = [shape for name, shape in real[:-1]]
        assert real[-1] == ("svd", (space.p_dim, space.k_dim))
        assert all(name == "eigh" for name, _ in real[:-1])
        assert all(len(shape) == 3 and shape[1] == shape[2] < d for shape in eighs)
        assert len({shape[1] for shape in eighs}) == len(eighs)
        assert sum(count * size for count, size, _ in eighs) == d
        assert all(shape == (n, n) for _, shape, kind in solver_calls if kind != "f")


class TestProfileOracle:
    @pytest.mark.parametrize(
        "family",
        list(sweep_families(8)) + [SpaceFamily.make(*p) for p in LARGE_FAMILIES],
        ids=str,
    )
    def test_matches_per_point_profile(self, family):
        report = spindle_number(build_space(family), eps=EPS)
        want = oracle_profile(report.spectrum, report.lambda_, EPS)
        assert report.slice_profile == want
        assert all(type(dim) is int for _, dim in report.slice_profile)


class TestNormalizeRootRoute:
    @pytest.mark.parametrize("name", CAP6)
    def test_matches_dxd_route(self, catalog6, name):
        _, space, _ = catalog6[name]
        xi = canonical_element(space.family)
        k = exp_generic(k_element(space, np.random.default_rng(3)))
        moved = k @ xi @ k.conj().T
        elements = {f"x{scale}": scale * xi for scale in (2.0, 3.0, 0.5, 0.125, 7.0)}
        elements["K-conjugate"] = moved
        elements["K-conjugate x3"] = 3.0 * moved
        for label, x in elements.items():
            got = normalize_canonical(space, x, EPS)
            want = dxd_normalize_canonical(space, x, EPS)
            assert float(np.max(np.abs(got - want))) <= 1e-12, label

    def test_refusals_match_dxd_route(self):
        space = build_space(SpaceFamily.make("BDI_split", 2))
        a, c = (math.sqrt(2) + 1) / 2, (math.sqrt(2) - 1) / 2
        b = np.diag([a, c])
        flat = np.block([[np.zeros((2, 2)), b], [-b.T, np.zeros((2, 2))]]).astype(complex)
        zero = np.zeros((4, 4), dtype=complex)
        for x, error in ((flat, IrrationalRatioError), (zero, DegenerateElementError)):
            for route in (normalize_canonical, dxd_normalize_canonical):
                with pytest.raises(error):
                    route(space, x, EPS)

    def test_only_rationalization_failures_become_irrational(self, monkeypatch):
        def broken(*args):
            raise TypeError("a programming error")

        monkeypatch.setattr(spindle, "rationalize", broken)
        space = build_space(SpaceFamily.make("AI", 1, 2))
        with pytest.raises(TypeError, match="a programming error"):
            normalize_canonical(space, 3.0 * canonical_element(space.family), EPS)


ANGLES = [RationalAngle(k, 6) for k in range(49)]

FORM_FAILURES = {
    "diagonal-phase off-diagonal": (np.array([[0.5j, 0.1], [-0.1, -0.5j]]), "diagonal-phase"),
    "diagonal-phase real part": (np.diag([0.5 + 0.1j, -0.5j]), "diagonal-phase"),
    "half-angle": (1j * np.diag([0.5, -0.25]), "half-angle"),
    "rotation-block": (1j * np.diag([0.5, -0.5]), "rotation-block"),
    "unknown form": (1j * np.diag([0.5, -0.5]), "no-such-form"),
}


class TestStructuredMany:
    @pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
    def test_byte_equal_to_single_angle(self, family):
        xi = canonical_element(family)
        form = family.closed_form
        many = _exp_structured_many(xi, ANGLES, form, EPS)
        assert many.shape == (len(ANGLES),) + xi.shape
        for t, got in zip(ANGLES, many):
            want = oracle_exp_structured(xi, t, form, EPS)
            assert got.tobytes() == want.tobytes(), str(t)
            assert exp_structured(xi, t, form, EPS).tobytes() == want.tobytes(), str(t)

    @pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
    def test_generic_stack_byte_equal_to_single_angle(self, family):
        # The exp scan's 25 angles from one eigendecomposition, as one
        # (25, N, N) product: each slice is the per-angle _exp_eigh.
        xi = ensure_square(canonical_element(family))
        w, v = _eigh_trusted(xi, EPS, "test")
        times = [t.radians for t in ANGLES[:25]]
        many = _exp_generic_many(w, v, times)
        assert many.shape == (25,) + xi.shape
        for t, got in zip(times, many):
            assert got.tobytes() == _exp_eigh(w, v, t).tobytes(), t

    @pytest.mark.parametrize("case", sorted(FORM_FAILURES))
    def test_form_identity_failures_raise(self, case):
        xi, form = FORM_FAILURES[case]
        for call in (
            lambda: oracle_exp_structured(xi, RationalAngle(1), form),
            lambda: exp_structured(xi, RationalAngle(1), form),
            lambda: _exp_structured_many(xi, ANGLES, form),
        ):
            with pytest.raises(FormIdentityError):
                call()

    @pytest.mark.parametrize(
        "name", ["AI(1,1)", "AIII(1)", "GRP_d(2)", "BDI_rank1(1,2)", "GRP_bd(3)"]
    )
    def test_closed_forms_build_no_angle(self, constructions, name):
        # The closed forms read each sine and cosine from the integers of t
        # and the phase; the scan builds only its angles.
        family = {str(f): f for f in sweep_families(6)}[name]
        space = build_space(family)
        _exp_structured_many(canonical_element(family), ANGLES, family.closed_form, EPS)
        assert constructions == []
        verification._closed_form_scan(space, EPS)
        assert len(constructions) == 24 * space.cover_multiplier + 1

    def test_one_rationalization_per_space(self, monkeypatch):
        # Every rationalization, through whichever module binding, ends in
        # one Fraction.limit_denominator call.
        calls = []
        real = Fraction.limit_denominator

        def counted(self, max_denominator=1000000):
            calls.append(self)
            return real(self, max_denominator)

        monkeypatch.setattr(Fraction, "limit_denominator", counted)
        space = build_space(SpaceFamily.make("AI", 2, 3))
        assert verification.exp_agreement_check(space, EPS).ok
        assert verification.isotropy_scan_check(space, EPS).ok
        # Each check builds its own scan, whose closed form rationalizes
        # each of the 2 distinct diagonal values (-3/5 twice, 2/5 three
        # times) once; the isotropy check adds one of each of the 2 phase
        # clusters of the scan's eigenvalues for the exact rule.
        assert len(calls) == 2 * 2 + 2 == 6
