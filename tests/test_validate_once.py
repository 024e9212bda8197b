"""One validation per analysis, and the report checks without loops or identities.

spindle_number coerces xi with ensure_square once and hands the array to
private helpers that check nothing again. The report checks compare the
mirror pairs of the slice grid in one gather, and the scalar and unitarity
residuals subtract c from the diagonal of a copy instead of c * np.eye(n).
The oracles below are the earlier expressions, kept verbatim; each
rewritten kernel must give the same booleans and the same floats, to the bit.
"""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spindles import (
    SpaceFamily,
    build_space,
    canonical_element,
    isotropy_contains,
    method_numeric,
    normalize_canonical,
    spindle_number,
    sweep_families,
)
from spindles import cli, linalg, spaces
from spindles.errors import (
    DimensionMismatchError,
    NotAntiHermitianError,
    NotInTangentSpaceError,
    NotUnitaryError,
)
from spindles.linalg import _is_unitary, _scalar_residual
from spindles.spaces import _squares_to_one
from spindles.spindle import (
    _CENTRIOLE_PAIRS,
    _GRID_K,
    _GRID_KNOT,
    _GRID_T,
    _KNOT_PAIRS,
    _is_scalar,
    _lattice_row,
    _twelfths,
    _symmetric_about,
)

EPS = 1e-9
KNOT_CENTERS = range(0, 481, 60)
CENTRIOLE_CENTERS = range(30, 481, 60)


# -- mirror pairs ---------------------------------------------------------


def window_symmetric(values, centers) -> bool:
    """The earlier _symmetric_about: one window per center."""
    for c in centers:
        r = min(c, len(values) - 1 - c)
        window = values[c - r : c + r + 1]
        if not np.array_equal(window, window[::-1]):
            return False
    return True


def report_dims(report, tol=EPS) -> np.ndarray:
    """The slice dimensions of a report on the checks' grid, as _report_checks computes them."""
    spec = report.spectrum
    sines = np.sin(np.array(spec.positive_frequencies) * _GRID_T)
    return (np.abs(sines) > tol) @ np.array(spec.positive_mult_p, dtype=int)


@pytest.mark.parametrize(
    "pairs, centers",
    [(_KNOT_PAIRS, KNOT_CENTERS), (_CENTRIOLE_PAIRS, CENTRIOLE_CENTERS)],
    ids=["knots", "centrioles"],
)
class TestMirrorPairs:
    def test_catalog_grids(self, catalog6, pairs, centers):
        for name, (_, _, report) in catalog6.items():
            dims = report_dims(report)
            assert _symmetric_about(dims, pairs) == window_symmetric(dims, centers), name

    def test_one_changed_mirror_entry(self, pairs, centers):
        # A seeded grid that is a function of the distance to the nearest
        # center, so symmetric about each; then one entry of one mirror pair
        # changed, which both tests must refuse.
        rng = np.random.default_rng(20)
        left, right = pairs
        phase = (np.arange(len(_GRID_K)) - centers[0]) % 60
        distance = np.minimum(phase, 60 - phase)
        for _ in range(200):
            sym = rng.integers(0, 9, size=31)[distance]
            assert window_symmetric(sym, centers)
            assert _symmetric_about(sym, pairs)
            changed = sym.copy()
            side = left if rng.integers(2) else right
            changed[side[rng.integers(len(side))]] += 1 + rng.integers(3)
            assert not window_symmetric(changed, centers)
            assert not _symmetric_about(changed, pairs)

    def test_random_grids(self, pairs, centers):
        rng = np.random.default_rng(21)
        for _ in range(200):
            values = rng.integers(0, 2, size=len(_GRID_K))
            assert _symmetric_about(values, pairs) == window_symmetric(values, centers)

    def test_pairs_cover_each_window(self, pairs, centers):
        want = sorted(
            (c - j, c + j)
            for c in centers
            for j in range(1, min(c, len(_GRID_K) - 1 - c) + 1)
        )
        assert sorted(zip(*(p.tolist() for p in pairs))) == want


def test_grid_constants_match_the_per_call_expressions():
    k = np.arange(-240, 241)
    assert _GRID_K.tobytes() == k.tobytes()
    assert _GRID_KNOT.tobytes() == (k % 60 == 0).tobytes()
    assert _GRID_T.tobytes() == (k[:, None] * math.pi / 60.0).tobytes()
    for nu in ([1.0], [1.0, 2.0], [1.0 / 3.0, 1.0, 7.0]):
        nu = np.array(nu)
        assert (nu * _GRID_T).tobytes() == (nu * (k[:, None] * math.pi / 60.0)).tobytes()


def test_twelfths_text():
    # The report's pi/12 profile: row k reads entry k mod 12 of one period.
    period = _twelfths((1, 2), (3, 1))
    for k in range(12 * 60 + 1):
        g, suffix, *_ = period[k % 12]
        assert f"{k // g}{suffix}" == str(Fraction(k, 12)), k


@pytest.mark.parametrize("den", [7, 10, 12, 997])
def test_lattice_text(den):
    # profile's rows: the text of t/pi from the unreduced k*num and den.
    for num in (1, 3, den - 1):
        for k in range(3 * den + 1):
            g, suffix, *_ = _lattice_row((1,), (1,), k * num, den)
            assert f"{k * num // g}{suffix}" == str(Fraction(k * num, den)), (num, k)


# -- identity-free residuals ----------------------------------------------


def random_matrices(seed: int):
    """Seeded complex matrices with N <= 24: generic, near unitary, near scalar."""
    rng = np.random.default_rng(seed)
    for n in range(1, 25):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        c = complex(rng.standard_normal(), rng.standard_normal())
        yield a
        yield q
        yield q + 1e-12 * a
        yield c * np.eye(n) + 1e-11 * a
        yield np.diag(np.exp(1j * rng.standard_normal(n)))


def test_scalar_residual_is_the_eye_expression_to_the_bit():
    for a in random_matrices(30):
        n = a.shape[0]
        c = np.trace(a) / n
        assert _scalar_residual(a, c) == float(np.max(np.abs(a - c * np.eye(n))))
        unit = a.conj().T @ a
        assert _scalar_residual(unit, 1.0) == float(np.max(np.abs(unit - np.eye(n))))
        square = a @ a
        assert _scalar_residual(square, 1.0) == float(np.max(np.abs(square - np.eye(n))))


def test_residual_tests_agree_with_the_eye_expressions():
    for a in random_matrices(31):
        n = a.shape[0]
        for tol in (1e-13, 1e-10, 1e-9, 1e-6):
            old_scalar = float(np.max(np.abs(a - np.trace(a) / n * np.eye(n)))) <= tol
            old_unitary = float(np.max(np.abs(a.conj().T @ a - np.eye(n)))) <= tol
            old_square = float(np.max(np.abs(a @ a - np.eye(n)))) <= tol
            assert _is_scalar(a, tol) == old_scalar
            assert _is_unitary(a, tol) == old_unitary
            assert _squares_to_one(a, tol) == old_square


def test_scalar_residual_leaves_its_input():
    a = np.arange(9.0).reshape(3, 3) + 0j
    before = a.copy()
    _scalar_residual(a, 4.0)
    assert np.array_equal(a, before)


# -- one validation per analysis ------------------------------------------


def count_calls(monkeypatch, original) -> list:
    """Replace every binding of original in a loaded spindles module with a
    counting wrapper."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "spindles" and m]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_ensure_square_at_most_twice_per_analysis(monkeypatch):
    families = list(sweep_families(6))
    calls = count_calls(monkeypatch, linalg.ensure_square)
    for family in families:
        before = len(calls)
        spindle_number(build_space(family)).to_json_dict()
        # At least once: spindle_number coerces xi itself.
        assert 1 <= len(calls) - before <= 2, family


# -- bad input: the same refusals as before -------------------------------

SPACE = build_space(SpaceFamily.make("AI", 1, 2))
XI = canonical_element(SPACE.family)


def _nan_bearing():
    m = XI.copy()
    m[0, 1] = np.nan
    return m


def _non_tangent():
    m = XI.copy()  # plus a real antisymmetric part: in k, not in p
    m[0, 1] += 0.5
    m[1, 0] -= 0.5
    return m


BAD = {
    "non_square": np.zeros((3, 4), dtype=complex),
    "wrong_size": canonical_element(SpaceFamily.make("AI", 2, 2)),
    "nan": _nan_bearing(),
    "non_tangent": _non_tangent(),
    "not_anti_hermitian": np.diag([1.0, 2.0, -3.0]).astype(complex),
}

SHAPE = {
    "non_square": (DimensionMismatchError, "expected a square matrix, got shape (3, 4)"),
    "wrong_size": (DimensionMismatchError, "AI(1,2): expected size 3, got 4"),
    "nan": (DimensionMismatchError, "matrix has non-finite entries"),
}
NOT_IN_P = (
    NotInTangentSpaceError,
    "AI(1,2): element is not in the (-1) eigenspace of the involution",
)
NOT_UNITARY = (NotUnitaryError, "AI(1,2): isotropy test requires a unitary matrix")

CALLERS = {
    "spindle_number": lambda m: spindle_number(SPACE, m, EPS),
    "normalize_canonical": lambda m: normalize_canonical(SPACE, m, EPS),
    "method_numeric": lambda m: method_numeric(SPACE, m, EPS),
    "isotropy_contains": lambda m: isotropy_contains(SPACE, m, EPS),
}

EXPECTED = {
    (caller, bad): SHAPE[bad]
    for caller in CALLERS
    for bad in SHAPE
}
EXPECTED.update(
    {
        ("spindle_number", "non_tangent"): NOT_IN_P,
        ("spindle_number", "not_anti_hermitian"): NOT_IN_P,
        ("normalize_canonical", "non_tangent"): NOT_IN_P,
        ("normalize_canonical", "not_anti_hermitian"): NOT_IN_P,
        ("method_numeric", "non_tangent"): NOT_IN_P,
        # method_numeric eigendecomposes first, so the anti-Hermitian test refuses.
        ("method_numeric", "not_anti_hermitian"): (
            NotAntiHermitianError,
            "method_numeric requires an anti-Hermitian matrix",
        ),
        ("isotropy_contains", "non_tangent"): NOT_UNITARY,
        ("isotropy_contains", "not_anti_hermitian"): NOT_UNITARY,
    }
)


@pytest.mark.parametrize("caller, bad", sorted(EXPECTED), ids="-".join)
def test_bad_input_refusal(caller, bad):
    error, message = EXPECTED[caller, bad]
    with pytest.raises(error) as info:
        CALLERS[caller](BAD[bad])
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("bad", sorted(BAD))
def test_analyze_exits_2_on_a_bad_canonical_element(bad, monkeypatch, capsys):
    spec = spaces._FAMILIES["AI"]
    monkeypatch.setitem(spaces._FAMILIES, "AI", replace(spec, canonical=lambda p, q: BAD[bad]))
    assert cli.main(["analyze", "AI", "1", "2"]) == 2
    out, err = capsys.readouterr()
    error, message = EXPECTED["spindle_number", bad]
    assert out == ""
    assert err == f"error: {message}\n"
