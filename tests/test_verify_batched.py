"""The batched structural checks and the one-eigendecomposition exp scan
against the per-pair loops they replaced.

The oracles below are the earlier code of structural_checks and
exp_agreement_check, kept verbatim apart from names: one commutator, one
coordinate round trip and one sigma application per sampled pair, and
one exp_generic (one eigendecomposition) per angle. The batched code must
print the same CheckResult, digit for digit, on every cap-6 space and on
every cap-8 space whose pairs are drawn at random, and must fail the same
checks when the basis or the involution is corrupted.
"""

import random
import tracemalloc

import numpy as np
import pytest

from spindles import SpaceFamily, build_space, canonical_element, sweep_families
from spindles.linalg import (
    RationalAngle,
    commutator,
    exp_generic,
    exp_structured,
    mat_to_vec,
    resolve_eps,
)
from spindles import verification
from spindles.verification import (
    EXHAUSTIVE_CLOSURE_DIM,
    RANDOM_CLOSURE_TRIALS,
    CheckResult,
    exp_agreement_check,
    rational_angle_bulk_check,
    structural_checks,
)


def oracle_pairs(dim, seed=0):
    if dim <= EXHAUSTIVE_CLOSURE_DIM:
        return [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rng = random.Random(seed)
    return [
        (rng.randrange(dim), rng.randrange(dim)) for _ in range(RANDOM_CLOSURE_TRIALS)
    ]


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
    invol_dev = float(
        max(np.max(np.abs(s @ s - np.eye(space.dim_g))), np.max(np.abs(s - s.T)))
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

    ew, ev = np.linalg.eigh((s + s.T) / 2.0)
    signs = np.where(ew > 0.0, 1.0, -1.0)
    mats = np.tensordot(ev.T, space.basis_tensor, axes=1)
    graded_dev = 0.0
    for i, j in oracle_pairs(space.dim_g, seed=1):
        b = commutator(mats[i], mats[j])
        c = space.to_coords(b)
        want = signs[i] * signs[j]
        wrong = (c - want * (s @ c)) / 2.0
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


def flip_sigma_row(space):
    """sigma_coords with the sign of one row flipped: the row of the first
    basis element that the bracket pairs use."""
    s = space.sigma_coords.copy()
    s[oracle_pairs(space.dim_g)[0][0]] *= -1.0
    vars(space)["sigma_coords"] = s


def scale_basis_element(space):
    """One basis element, the first one the bracket pairs use, scaled by
    1 + 1e-6; sigma_coords stays the one of the clean basis."""
    space.sigma_coords
    tensor = space.basis_tensor.copy()
    tensor[oracle_pairs(space.dim_g)[0][0]] *= 1.0 + 1e-6
    vars(space)["basis_tensor"] = tensor
    vars(space)["basis_vecs"] = mat_to_vec(tensor)


@pytest.mark.parametrize(
    "params, mutate, expect",
    [
        (("AI", 2, 3), flip_sigma_row, {"graded_bracket_closure"}),
        (("AII", 2, 2), flip_sigma_row, {"involution_orthogonal_involutive"}),
        (("AI", 4, 5), flip_sigma_row, {"graded_bracket_closure"}),
        (("AI", 2, 3), scale_basis_element, {"basis_orthonormal", "bracket_closure"}),
        (("AIII", 2), scale_basis_element, {"basis_orthonormal", "bracket_closure"}),
        (("AI", 4, 5), scale_basis_element, {"basis_orthonormal"}),
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
# set by building the basis data: 27.8 MiB with the per-pair loops, 25.3
# MiB now that sigma_coords frees its conjugated copy of the basis early.
# The bound is the per-pair value. Stacks the size of the whole basis
# (sigma of every basis element and every graded matrix, 5.3 MiB each)
# would raise the peak past it.
AII66_PEAK_MIB = 28.5


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


def test_bulk_check_counts_every_failing_draw(monkeypatch):
    """Each distinct (num, den) draw is checked once, but a failing pair
    counts once per draw and the first failing draw is named."""
    calls = []

    def fails_on_sevenths(num, den):
        calls.append((num, den))
        return den != 7

    monkeypatch.setattr(verification, "_rational_angle_exact", fails_on_sevenths)
    rng = random.Random(20240229)
    draws = [(rng.randint(-600, 600), rng.randint(1, 48)) for _ in range(5000)]
    failing = [(num, den) for num, den in draws if den == 7]
    result = rational_angle_bulk_check(5000)
    assert not result.ok
    num, den = failing[0]
    assert result.detail == f"5000 samples, {len(failing)} bad, first {num}/{den}"
    assert sorted(calls) == sorted(set(draws))
