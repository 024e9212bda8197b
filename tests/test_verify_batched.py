"""The batched structural checks and the one-eigendecomposition exp scan
against the per-pair loops they replaced.

The oracles below are the earlier code of structural_checks and
exp_agreement_check, kept verbatim apart from names: one commutator, one
coordinate round trip and one sigma application per sampled pair, and
one exp_generic (one eigendecomposition) per angle. The graded check
follows structural_checks in what it reads: its eigenvectors are the
space's sigma_eigh, its factors are built by from_coords (above the
exhaustive sweep, as seeded random vectors of the eigenspaces), and
sigma_coords (also in the square of the involution check) and the
eigenvectors are applied over their nonzero entries (sparse_times), not
by a BLAS product. The batched code must print the
same CheckResult, digit for digit, on every cap-6 space and on every
cap-8 space whose pairs are drawn at random, and must fail the same
checks when the basis or the involution is corrupted. The involution is
corrupted in sigma_entries, the form every reader of it is derived from,
so the oracle's dense sigma_coords and the eigenvectors carry the fault too.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from spindles import SpaceFamily, build_space, canonical_element, sweep_families
from spindles.linalg import (
    RationalAngle,
    exp_generic,
    exp_structured,
    resolve_eps,
)
from spindles import linalg, verification
from spindles.verification import (
    EXHAUSTIVE_CLOSURE_DIM,
    RANDOM_CLOSURE_TRIALS,
    CheckResult,
    _family_checks,
    exp_agreement_check,
    rational_angle_bulk_check,
    structural_checks,
)
from test_entry_joins import dense_eigh
from test_linalg import commutator


def oracle_pairs(dim, seed=0):
    if dim <= EXHAUSTIVE_CLOSURE_DIM:
        return [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rng = random.Random(seed)
    pairs = []
    for _ in range(RANDOM_CLOSURE_TRIALS):
        i, j = rng.randrange(dim), rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        pairs.append((i, j))
    return pairs


def sparse_times(m, nonzero, x):
    """m @ x, summed over the nonzero entries (r, k) = nonzero of m in
    order, with no BLAS product, as structural_checks applies sigma_coords
    and its eigenvectors."""
    r, k = nonzero
    out = np.zeros(len(m))
    np.add.at(out, r, m[r, k] * x[k])
    return out


def oracle_structural_checks(space, eps=None):
    tol = resolve_eps(eps)
    name = str(space.family)
    results = []

    v = space.basis_vecs
    gram_dev = float(np.max(np.abs(v @ v.T - np.eye(space.dim_g))))
    results.append(
        CheckResult(f"{name}:basis_orthonormal", gram_dev <= tol, f"max dev {gram_dev:.2e}")
    )

    s = space.sigma_coords
    s_nonzero = np.nonzero(s)
    square = np.array([sparse_times(s.T, s_nonzero[::-1], row) for row in s])
    invol_dev = float(
        max(np.max(np.abs(square - np.eye(space.dim_g))), np.max(np.abs(s - s.T)))
    )
    results.append(
        CheckResult(
            f"{name}:involution_orthogonal_involutive",
            invol_dev <= tol,
            f"max dev {invol_dev:.2e}",
        )
    )

    results.append(
        CheckResult(
            f"{name}:dims_add_up",
            space.k_dim + space.p_dim == space.dim_g,
            f"{space.k_dim} + {space.p_dim} vs {space.dim_g}",
        )
    )

    xi = canonical_element(space.family)
    results.append(
        CheckResult(f"{name}:canonical_element_tangent", space.contains_tangent(xi, eps))
    )

    closure_dev = 0.0
    auto_dev = 0.0
    for i, j in oracle_pairs(space.dim_g):
        b = commutator(space.basis_tensor[i], space.basis_tensor[j])
        back = space.from_coords(space.to_coords(b))
        scale = 1.0 + float(np.max(np.abs(b)))
        closure_dev = max(closure_dev, float(np.max(np.abs(b - back))) / scale)
        sb = commutator(
            space.apply_sigma(space.basis_tensor[i]),
            space.apply_sigma(space.basis_tensor[j]),
        )
        auto_dev = max(auto_dev, float(np.max(np.abs(space.apply_sigma(b) - sb))) / scale)
    results.append(
        CheckResult(f"{name}:bracket_closure", closure_dev <= tol, f"max dev {closure_dev:.2e}")
    )
    results.append(
        CheckResult(
            f"{name}:involution_automorphism", auto_dev <= tol, f"max dev {auto_dev:.2e}"
        )
    )

    ew, ev = dense_eigh(space)
    signs = np.where(ew > 0.0, 1.0, -1.0)
    pairs = oracle_pairs(space.dim_g, seed=1)
    if space.dim_g <= EXHAUSTIVE_CLOSURE_DIM:
        factors = [(ev[:, i], ev[:, j]) for i, j in pairs]
    else:
        # Seeded random unit vectors of the eigenspaces of the sampled
        # eigenvectors, as structural_checks draws them.
        idx = np.array(pairs).T.ravel()
        weights = np.random.default_rng(1).standard_normal((len(idx), space.dim_g))
        weights *= signs == signs[idx, None]
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        coords = [sparse_times(ev, np.nonzero(ev), w) for w in weights]
        factors = list(zip(coords[: len(pairs)], coords[len(pairs) :]))
    brackets = [commutator(space.from_coords(a), space.from_coords(b)) for a, b in factors]
    graded_dev = 0.0
    for (i, j), b in zip(pairs, brackets):
        c = space.to_coords(b)
        image = sparse_times(s, s_nonzero, c)
        want = signs[i] * signs[j]
        wrong = (c - want * image) / 2.0
        scale = 1.0 + float(np.max(np.abs(b)))
        graded_dev = max(graded_dev, float(np.linalg.norm(wrong)) / scale)
    results.append(
        CheckResult(
            f"{name}:graded_bracket_closure", graded_dev <= tol, f"max dev {graded_dev:.2e}"
        )
    )
    return results


def oracle_exp_agreement_check(space, eps=None):
    xi = canonical_element(space.family)
    form = space.family.closed_form
    worst = 0.0
    for k in range(25):
        t = RationalAngle(k, 6)
        a = exp_structured(xi, t, form, eps)
        b = exp_generic(xi, t.radians, eps)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult(
        f"{space.family}:exp_closed_form_agrees", worst <= 1e-9, f"max dev {worst:.2e}"
    )


def fields(check):
    return (str(check), check.name, check.ok, check.detail)


CAP6 = list(sweep_families(6))
CAP6_NAMES = {str(f) for f in CAP6}
# Families with a parameter 7 or 8 whose algebra is past the exhaustive
# sweep, so their bracket pairs are the seeded random sample.
CAP8_RANDOM = [
    f
    for f in sweep_families(8)
    if str(f) not in CAP6_NAMES and build_space(f).dim_g > EXHAUSTIVE_CLOSURE_DIM
]


def test_family_lists():
    assert len(CAP6) == 127
    assert len(CAP8_RANDOM) > 0


@pytest.mark.parametrize("family", CAP6, ids=str)
def test_cap6_matches_oracle(family):
    space = build_space(family)
    got = structural_checks(space, 1e-9)
    want = oracle_structural_checks(space, 1e-9)
    assert [fields(c) for c in got] == [fields(c) for c in want]
    assert fields(exp_agreement_check(space, 1e-9)) == fields(
        oracle_exp_agreement_check(space, 1e-9)
    )


@pytest.mark.parametrize("family", CAP8_RANDOM, ids=str)
def test_cap8_random_pairs_match_oracle(family):
    space = build_space(family)
    assert space.dim_g > EXHAUSTIVE_CLOSURE_DIM
    got = structural_checks(space, 1e-9)
    want = oracle_structural_checks(space, 1e-9)
    assert [fields(c) for c in got] == [fields(c) for c in want]


def failed(checks):
    return {c.name.split(":", 1)[1] for c in checks if not c.ok}


def sigma_row(space):
    """sigma_entries and the mask of its entries in the row of the first
    basis element that the bracket pairs use."""
    rows, cols, values = space.sigma_entries
    return rows, cols, values, rows == oracle_pairs(space.dim_g)[0][0]


def flip_sigma_row(space):
    """sigma_entries with the sign of that row flipped."""
    rows, cols, values, row = sigma_row(space)
    vars(space)["sigma_entries"] = (rows, cols, np.where(row, -values, values))


def drop_sigma_entry(space):
    """sigma_entries with the first entry of that row left out."""
    rows, cols, values, row = sigma_row(space)
    keep = np.arange(len(rows)) != np.argmax(row)
    vars(space)["sigma_entries"] = (rows[keep], cols[keep], values[keep])


def scale_sigma_entry(space):
    """sigma_entries with the first entry of that row scaled by 1 + 1e-6."""
    rows, cols, values, row = sigma_row(space)
    first = np.arange(len(rows)) == np.argmax(row)
    vars(space)["sigma_entries"] = (rows, cols, np.where(first, values * (1.0 + 1e-6), values))


def scale_basis_element(space):
    """One basis element, the first one the bracket pairs use, scaled by
    1 + 1e-6 in basis_entries, from which every other basis form is
    derived; sigma_coords stays the one of the clean basis."""
    space.sigma_coords
    element, position, value = space.basis_entries
    scaled = np.where(element == oracle_pairs(space.dim_g)[0][0], value * (1.0 + 1e-6), value)
    vars(space)["basis_entries"] = (element, position, scaled)


@pytest.mark.parametrize(
    "params, mutate, expect",
    [
        (("AI", 2, 3), flip_sigma_row, {"graded_bracket_closure"}),
        (
            ("AII", 2, 2),
            flip_sigma_row,
            {"involution_orthogonal_involutive", "graded_bracket_closure"},
        ),
        (("AI", 4, 5), flip_sigma_row, {"graded_bracket_closure"}),
        (("AI", 2, 3), scale_basis_element, {"basis_orthonormal", "bracket_closure"}),
        (("AIII", 2), scale_basis_element, {"basis_orthonormal", "bracket_closure"}),
        (("AI", 4, 5), scale_basis_element, {"basis_orthonormal"}),
        *(
            (params, mutate, {"involution_orthogonal_involutive", "graded_bracket_closure"})
            for mutate in (drop_sigma_entry, scale_sigma_entry)
            for params in (("AI", 2, 3), ("AII", 2, 2), ("AI", 4, 5))
        ),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_corrupted_data_fails_the_same_checks(params, mutate, expect):
    space = build_space(SpaceFamily.make(*params))
    mutate(space)
    got = structural_checks(space, 1e-9)
    want = oracle_structural_checks(space, 1e-9)
    assert [fields(c) for c in got] == [fields(c) for c in want]
    assert failed(got) == expect


# tracemalloc peak of structural_checks on AII(6,6) (N = 24, dim g = 575),
# set by building the basis data: 27.8 MiB while sigma_coords was the dense
# product of the flattened basis and its sigma image, 19.0 MiB once it
# joined the basis entry table with sigma's permutation of positions,
# 11.5 MiB once no check read the (dim g, N, N) basis tensor or its
# flattenings (5.3 MiB each), and 4.5 MiB now that the Gram matrix, the
# involution's square and its asymmetry are sums over join keys and the
# involution and its eigenvectors are entry lists: the check builds no
# dim g x dim g array. The bound leaves 10% over that. A dense d x d
# array (2.5 MiB each) or stacks the size of the whole basis would raise
# the peak past it.
AII66_PEAK_MIB = 4.9


def test_structural_checks_peak_memory():
    space = build_space(SpaceFamily.make("AII", 6, 6))
    assert space.dim_g == 575
    tracemalloc.start()
    try:
        checks = structural_checks(space, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak <= AII66_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


# The largest tracemalloc peak of one family's battery at cap 6: 5.8 MiB at
# AII(6,6), whose ad(xi) (2.5 MiB) is the only dim g x dim g array the
# battery builds; 14.2 MiB while the involution and its eigenvectors were
# dense d x d matrices and the bracket checks' stacks lived through the
# graded check (7.8 MiB at BDI_rank1(3,6)). The verify process's peak RSS
# follows this peak.
FAMILY_PEAK_MIB = 8.0


def test_family_checks_peak_memory():
    peaks = {}
    for family in CAP6:
        tracemalloc.start()
        try:
            _, lam = _family_checks(family, 1e-9, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lam is not None, family
        peaks[str(family)] = peak / 2**20
    worst = max(peaks, key=peaks.get)
    assert peaks[worst] <= FAMILY_PEAK_MIB, f"{worst}: peak {peaks[worst]:.2f} MiB"


# The angle audit's box, in the order it is checked.
ANGLE_BOX = [(num, den) for num in range(-600, 601) for den in range(1, 49)]


def test_bulk_check_enumerates_box_once(monkeypatch):
    """The audit checks every (num, den) of its box exactly once, in
    ascending (num, den) order: 1,201 numerators times 48 denominators."""
    calls = []

    def record(num, den):
        calls.append((num, den))
        return True

    monkeypatch.setattr(verification, "_rational_angle_exact", record)
    result = rational_angle_bulk_check()
    assert result == CheckResult("rational_angle_exactness", True, "57648 angles")
    assert len(calls) == len(set(calls)) == 57_648
    assert calls == ANGLE_BOX


def test_bulk_check_counts_every_failing_angle(monkeypatch):
    """A failing angle does not stop the audit: each pair is still checked
    once, every failure is counted and the first one is named."""
    calls = []

    def fails_on_sevenths(num, den):
        calls.append((num, den))
        return den != 7

    monkeypatch.setattr(verification, "_rational_angle_exact", fails_on_sevenths)
    result = rational_angle_bulk_check()
    assert not result.ok
    assert result.detail == "57648 angles, 1201 bad, first -600/7"
    assert calls == ANGLE_BOX


def _without_exact_branch(real, exact_at):
    """real (_sin_pi or _cos_pi) with the branch that returns the exact
    value at the angles exact_at(num, den) replaced by the libm formula
    that the other angles take."""
    trig = math.sin if real is linalg._sin_pi else math.cos

    def mutant(num, den):
        if exact_at(num, den):
            return trig(math.pi * ((num % (2 * den)) / den))
        return real(num, den)

    return mutant


def _detail_for(bad):
    return f"57648 angles, {len(bad)} bad, first {bad[0][0]}/{bad[0][1]}"


def test_bulk_check_catches_sin_without_exact_zero(monkeypatch):
    """With _sin_pi's exact-zero branch gone, sin at an odd multiple of pi
    is libm's 1.2e-16, not 0.0 (at even multiples libm's sin(0) is exact),
    and the audit names the first such angle of its box. _sin_pi's +-1
    branch is not guarded this way: math.sin is already exactly +-1.0 at
    pi/2 and 3*pi/2. The branch stays so that exactness does not rest on libm."""
    mutant = _without_exact_branch(linalg._sin_pi, lambda num, den: num % den == 0)
    monkeypatch.setattr(linalg, "_sin_pi", mutant)
    bad = [(num, den) for num, den in ANGLE_BOX if num % den == 0 and num // den % 2]
    result = rational_angle_bulk_check()
    assert not result.ok
    assert result.detail == _detail_for(bad) == "57648 angles, 2680 bad, first -600/8"


def test_bulk_check_catches_cos_without_exact_zero(monkeypatch):
    """With _cos_pi's exact-zero branch gone, cos at a half-integer multiple
    of pi is libm's 6.1e-17 or -1.8e-16, not 0.0, and the audit names the
    first such angle of its box."""
    mutant = _without_exact_branch(
        linalg._cos_pi, lambda num, den: num % den and 2 * num % den == 0
    )
    monkeypatch.setattr(linalg, "_cos_pi", mutant)
    bad = [(num, den) for num, den in ANGLE_BOX if den // math.gcd(num, den) == 2]
    result = rational_angle_bulk_check()
    assert not result.ok
    assert result.detail == _detail_for(bad) == "57648 angles, 2268 bad, first -600/16"
