"""build_space without a basis.

dim g and dim k come from formulas, tangency from each algebra's N x N
orthogonal projector, and basis_tensor, basis_entries, basis_vecs,
sigma_entries, sigma_coords and sigma_eigh are built on first use, each
once. The tests here hold the formulas to the d x d data, the projector
to the basis route it replaced, and spindle_number and `analyze` to
running with no basis at all.
"""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from spindles import cli, spaces
from spindles.cli import main
from spindles.errors import DimensionMismatchError, SpindleError
from spindles.linalg import exp_generic
from spindles.spaces import (
    FAMILY_TAGS,
    SpaceFamily,
    SpaceInstance,
    build_space,
    canonical_element,
    sweep_families,
)
from spindles.spindle import ad_spectrum, closed_form_lambda, normalize_canonical, spindle_number
from test_golden import LARGE_FAMILIES
from test_spectrum import CAP6, k_element, p_element, small_family

EPS = 1e-9
BASIS_KEYS = {
    "basis_tensor", "basis_entries", "basis_vecs", "sigma_entries", "sigma_coords", "sigma_eigh"
}


def basis_residual(space, m) -> float:
    """The oracle: the basis round trip the residual used before the
    projector, the max-norm distance from m to from_coords(to_coords(m))."""
    return float(np.max(np.abs(m - space.from_coords(space.to_coords(m)))))


def basis_contains_tangent(space, m, tol) -> bool:
    """contains_tangent as it was on the basis route."""
    bound = tol * (1.0 + float(np.max(np.abs(m))))
    if basis_residual(space, m) > bound:
        return False
    return float(np.max(np.abs(space.apply_sigma(m) + m))) <= bound


def tangency_probes(space) -> dict:
    """Random complex and anti-Hermitian matrices, random elements of g, k
    and p, the canonical element, and that element moved off g (along a
    Hermitian direction, orthogonal to g) or in a random direction, by 0.5x
    and 2x the tangency tolerance."""
    rng = np.random.default_rng(11)
    n = space.ambient_dim
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xi = canonical_element(space.family)
    h = (z + z.conj().T) / 2.0
    bound = EPS * (1.0 + float(np.max(np.abs(xi))))
    probes = {
        "complex": z,
        "anti-Hermitian": (z - z.conj().T) / 2.0,
        "g": space.from_coords(rng.standard_normal(space.dim_g)),
        "k": k_element(space, rng),
        "p": p_element(space, rng),
        "canonical": xi,
    }
    for scale in (0.5, 2.0):
        probes[f"off g x{scale}"] = xi + scale * bound * h / np.max(np.abs(h))
        probes[f"random x{scale}"] = xi + scale * bound * z / np.max(np.abs(z))
    return probes


class TestFormulas:
    @pytest.mark.parametrize("family", list(sweep_families(8)), ids=str)
    def test_match_basis_and_trace(self, family):
        space = build_space(family)
        d = space.basis_tensor.shape[0]
        trace = float(np.trace(space.sigma_coords))
        assert space.dim_g == d
        assert abs((d + trace) / 2.0 - space.k_dim) <= 1e-6
        assert space.p_dim == d - space.k_dim


class TestLazyBasis:
    def test_built_once_on_first_use(self, monkeypatch):
        family = small_family("CII")
        spec = spaces._FAMILIES["CII"]
        calls = []

        def counted(n):
            calls.append(n)
            return spec.basis(n)

        monkeypatch.setitem(spaces._FAMILIES, "CII", replace(spec, basis=counted))
        built = []
        for key in BASIS_KEYS:
            func = vars(SpaceInstance)[key].func

            def recorded(self, func=func, key=key):
                built.append(key)
                return func(self)

            prop = cached_property(recorded)
            prop.__set_name__(SpaceInstance, key)
            monkeypatch.setattr(SpaceInstance, key, prop)
        space = build_space(family)
        assert not BASIS_KEYS & set(vars(space))
        assert calls == [] and built == []
        coords = space.to_coords(canonical_element(family))
        space.from_coords(space.sigma_coords @ coords)
        for key in BASIS_KEYS:
            assert getattr(space, key) is getattr(space, key)
        assert BASIS_KEYS <= set(vars(space))
        assert sorted(built) == sorted(BASIS_KEYS)
        assert calls == [space.ambient_dim]

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_trace_guard(self, tag):
        space = build_space(small_family(tag))
        wrong = replace(space, k_dim=space.k_dim + 1)
        with pytest.raises(SpindleError, match="involution trace"):
            wrong.sigma_coords
        assert "sigma_coords" not in vars(wrong)
        assert space.sigma_coords.shape == (space.dim_g, space.dim_g)


class TestWrongSize:
    @pytest.mark.parametrize(
        "call",
        [
            lambda space, x: space.contains_tangent(x),
            lambda space, x: space.to_coords(x),
            lambda space, x: spindle_number(space, x),
            lambda space, x: ad_spectrum(space, x),
        ],
        ids=["contains_tangent", "to_coords", "spindle_number", "ad_spectrum"],
    )
    def test_names_family_and_sizes(self, call):
        space = build_space(SpaceFamily.make("AI", 1, 2))
        xi = 1j * np.diag([-1.0, 0.0, 0.0, 1.0])  # an element of su(4), not su(3)
        with pytest.raises(DimensionMismatchError, match=r"AI\(1,2\): expected size 3, got 4"):
            call(space, xi)


class TestProjector:
    @pytest.mark.parametrize("name", CAP6)
    def test_matches_basis_route(self, catalog6, name):
        _, space, _ = catalog6[name]
        for label, m in tangency_probes(space).items():
            got = space._residual(m)
            assert abs(got - basis_residual(space, m)) <= 1e-12, label
            verdict = space.contains_tangent(m, EPS)
            assert verdict == basis_contains_tangent(space, m, EPS), label
            if label in ("g", "k", "p", "canonical"):
                assert got <= 1e-12, label
            if label in ("canonical", "p"):
                assert verdict, label
            bound = EPS * (1.0 + float(np.max(np.abs(m))))
            if label == "off g x0.5":
                assert got <= bound, label
            if label == "off g x2.0":
                assert got > bound and not verdict, label


@pytest.fixture
def no_basis(monkeypatch):
    """Every family's basis builder raises, so no caller can build a basis."""

    def refuse(n):
        raise AssertionError(f"a basis of size {n} was built")

    for tag, spec in spaces._FAMILIES.items():
        monkeypatch.setitem(spaces._FAMILIES, tag, replace(spec, basis=refuse))


class TestNoBasisAtScale:
    @pytest.mark.parametrize(
        "params", LARGE_FAMILIES + (("AI", 100, 100),), ids=lambda p: str(SpaceFamily.make(*p))
    )
    def test_spindle_number(self, no_basis, params):
        family = SpaceFamily.make(*params)
        space = build_space(family)
        xi = canonical_element(family)
        # A K-conjugate with no basis: the sigma-fixed part of a projection onto g.
        rng = np.random.default_rng(5)
        z = rng.standard_normal(xi.shape) + 1j * rng.standard_normal(xi.shape)
        y = family._spec.project(z)
        k = exp_generic((y + space.apply_sigma(y)) / 2.0)
        for x in (xi, k @ xi @ k.conj().T):
            report = spindle_number(space, x, EPS)
            assert report.lambda_ == closed_form_lambda(family)
            assert report.method_exact == report.method_numeric
        assert not BASIS_KEYS & set(vars(space))

    @pytest.mark.parametrize(
        "params", LARGE_FAMILIES + (("AI", 100, 100),), ids=lambda p: str(SpaceFamily.make(*p))
    )
    def test_normalize_canonical(self, no_basis, params):
        family = SpaceFamily.make(*params)
        space = build_space(family)
        xi = canonical_element(family)
        assert float(np.max(np.abs(normalize_canonical(space, 3.0 * xi, EPS) - xi))) <= 1e-12
        assert not BASIS_KEYS & set(vars(space))

    @pytest.mark.parametrize(
        "argv",
        [["table", "--cap", "3"], ["analyze", "AII", "2", "3"], ["profile", "CII", "2", "--step", "1/4"]],
        ids=lambda argv: argv[0],
    )
    def test_cli_builds_no_basis_data(self, monkeypatch, capsys, argv):
        built = []

        def recorded(family):
            built.append(build_space(family))
            return built[-1]

        monkeypatch.setattr(cli, "build_space", recorded)
        assert main(argv) == 0
        assert built
        assert not any(BASIS_KEYS & set(vars(space)) for space in built)

    def test_analyze_n200(self, no_basis, capsys):
        assert main(["analyze", "AI", "100", "100"]) == 0
        out = capsys.readouterr().out
        assert "dims      g=39999 k=19900 p=20099" in out
        assert "lambda    2 (exact 2, numeric 2)" in out
