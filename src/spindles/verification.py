"""Self-verification battery.

Every quantitative statement the package makes about a catalog family is
re-derived here by an independent route and compared:

  * structural: the basis is orthonormal, the involution is an isometric
    involutive automorphism, dimensions add up, the canonical element is
    tangent;
  * exponentials: the closed form agrees with the eigendecomposition
    route on a grid of rational angles;
  * membership: the isotropy predicate agrees with the published
    membership condition along the canonical geodesic;
  * spindle: the exact and numeric methods agree with each other and
    with the closed-form table value, and the per-report geometric
    checks (variation-field zeros, slice profile, symmetries, adjoint
    and center criteria) all hold;
  * products: the product rule matches a brute-force common-multiple
    search;
  * angles: the exact trig predicates agree with integer arithmetic on
    random rationals.

run_verification() is the engine behind the `verify` CLI command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateElementError
from .linalg import (
    RationalAngle,
    _exp_generic_many,
    _exp_structured_many,
    mat_to_vec,
    resolve_eps,
)
from .spaces import (
    SpaceInstance,
    build_space,
    canonical_element,
    isotropy_contains,
    stated_membership,
    sweep_families,
)
from .spindle import (
    ad_spectrum,
    closed_form_lambda,
    is_canonical,
    normalize_canonical,
    product_spindle,
    spindle_number,
)

# Above this algebra dimension the O(d^2) bracket pair checks switch to a
# seeded random sample; the full sweep stays fast at the default cap.
EXHAUSTIVE_CLOSURE_DIM = 36
RANDOM_CLOSURE_TRIALS = 24


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{status:4s} {self.name}{suffix}"


def _pairs(dim: int, seed: int = 0) -> tuple:
    """Index arrays (i, j) of the bracket pairs checked in an algebra of
    this dimension: every i < j up to EXHAUSTIVE_CLOSURE_DIM, above it
    RANDOM_CLOSURE_TRIALS seeded draws."""
    if dim <= EXHAUSTIVE_CLOSURE_DIM:
        return np.triu_indices(dim, k=1)
    rng = random.Random(seed)
    pairs = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(RANDOM_CLOSURE_TRIALS)]
    return tuple(np.array(pairs).T)


def _brackets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutators of two (P, N, N) stacks, pair by pair."""
    return a @ b - b @ a


def _max_dev(residual: np.ndarray, scale: np.ndarray) -> float:
    """max over pairs of max|residual| / scale."""
    return float(np.max(np.max(np.abs(residual), axis=(1, 2)) / scale))


def structural_checks(space: SpaceInstance, eps: float | None = None) -> list:
    """Basis/involution/bracket invariants for one space.

    Besides the basis data of the space (basis_tensor, basis_vecs,
    sigma_coords), each bracket check builds (P, N, N) stacks for its P
    sampled pairs only: the two factors, their brackets and what the check
    compares them with (the coordinate round trip, the brackets of the
    sigma images). The graded check takes its factors from the sigma
    eigenvectors that the pairs index, not from all dim_g of them."""
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

    basis = space.basis_tensor
    i, j = _pairs(space.dim_g)
    a, b = basis[i], basis[j]
    br = _brackets(a, b)
    scale = 1.0 + np.max(np.abs(br), axis=(1, 2))
    back = np.tensordot(mat_to_vec(br) @ v.T, basis, axes=1)
    closure_dev = _max_dev(br - back, scale)
    sa, sb = space._sigma(a), space._sigma(b)
    auto_dev = _max_dev(space._sigma(br) - _brackets(sa, sb), scale)
    results.append(
        CheckResult(f"{name}:bracket_closure", closure_dev <= tol, f"max dev {closure_dev:.2e}")
    )
    results.append(
        CheckResult(
            f"{name}:involution_automorphism", auto_dev <= tol, f"max dev {auto_dev:.2e}"
        )
    )

    # Graded closure: brackets of sigma eigenvectors land in the right
    # eigenspace ([k,k] and [p,p] in k, [k,p] in p).
    ew, ev = np.linalg.eigh((s + s.T) / 2.0)
    signs = np.where(ew > 0.0, 1.0, -1.0)
    i, j = _pairs(space.dim_g, seed=1)
    br = _brackets(
        np.tensordot(ev.T[i], basis, axes=1), np.tensordot(ev.T[j], basis, axes=1)
    )
    c = mat_to_vec(br) @ v.T
    want = (signs[i] * signs[j])[:, None]
    wrong = (c - want * (c @ s.T)) / 2.0
    scale = 1.0 + np.max(np.abs(br), axis=(1, 2))
    graded_dev = float(np.max(np.linalg.norm(wrong, axis=1) / scale))
    results.append(
        CheckResult(
            f"{name}:graded_bracket_closure", graded_dev <= tol, f"max dev {graded_dev:.2e}"
        )
    )
    return results


def exp_agreement_check(space: SpaceInstance, eps: float | None = None) -> CheckResult:
    """Closed-form exp(t*xi) vs the eigendecomposition route on t = k*pi/6,
    with one form check and one eigendecomposition of xi for all 25 angles."""
    xi = canonical_element(space.family)
    form = space.family.closed_form
    angles = [RationalAngle(k, 6) for k in range(25)]
    closed = _exp_structured_many(xi, angles, form, eps)
    generic = _exp_generic_many(xi, [t.radians for t in angles], eps)
    worst = 0.0
    for a, b in zip(closed, generic):
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult(
        f"{space.family}:exp_closed_form_agrees", worst <= 1e-9, f"max dev {worst:.2e}"
    )


def isotropy_scan_check(space: SpaceInstance, eps: float | None = None) -> CheckResult:
    """isotropy predicate vs published membership condition on t = k*pi/6,
    with one closed-form check of xi for all angles."""
    xi = canonical_element(space.family)
    angles = [RationalAngle(k, 6) for k in range(0, 24 * space.cover_multiplier + 1)]
    exps = _exp_structured_many(xi, angles, space.family.closed_form, eps)
    mismatches = []
    for k, (t, g) in enumerate(zip(angles, exps)):
        got = isotropy_contains(space, g, eps)
        want = stated_membership(space.family, t)
        if got != want:
            mismatches.append((k, got, want))
    return CheckResult(
        f"{space.family}:isotropy_matches_membership",
        not mismatches,
        "" if not mismatches else f"first mismatch at k={mismatches[0][0]}/6",
    )


def normalize_recovery_check(space: SpaceInstance, eps: float | None = None) -> CheckResult:
    """normalize_canonical undoes an integer rescaling of xi."""
    xi = canonical_element(space.family)
    back = normalize_canonical(space, 3.0 * xi, eps)
    dev = float(np.max(np.abs(back - xi)))
    return CheckResult(
        f"{space.family}:normalize_recovers", dev <= resolve_eps(eps), f"max dev {dev:.2e}"
    )


def rational_angle_bulk_check(trials: int, seed: int = 20240229) -> CheckResult:
    """Exact trig predicates vs integer arithmetic on random rationals.

    The draws repeat pairs (100,000 of them hold about 47,500 distinct
    ones), so each pair is checked once and its verdict reused: verdicts[i]
    for i = (num + 600) * 48 + den - 1 is 0 unchecked, 1 passed, 2 failed."""
    rng = random.Random(seed)
    verdicts = bytearray(1201 * 48)
    bad = 0
    first = ""
    for _ in range(trials):
        num = rng.randint(-600, 600)
        den = rng.randint(1, 48)
        slot = (num + 600) * 48 + den - 1
        if not verdicts[slot]:
            verdicts[slot] = 1 if _rational_angle_exact(num, den) else 2
        if verdicts[slot] == 2:
            bad += 1
            if not first:
                first = f"{num}/{den}"
    return CheckResult(
        "rational_angle_exactness",
        bad == 0,
        f"{trials} samples" + ("" if not bad else f", {bad} bad, first {first}"),
    )


def _rational_angle_exact(num: int, den: int) -> bool:
    """RationalAngle(num, den)'s lattice predicates and exact values agree
    with integer arithmetic and its sin/cos with math.sin/math.cos."""
    angle = RationalAngle(num, den)
    f = Fraction(num, den)
    want_sin_zero = f.denominator == 1
    want_cos_one = f % 2 == 0
    want_cos_minus_one = f.denominator == 1 and f.numerator % 2 == 1
    want_half = f.denominator == 2
    got = (
        angle.sin_is_zero == want_sin_zero
        and angle.cos_is_one == want_cos_one
        and angle.cos_is_minus_one == want_cos_minus_one
        and angle.is_half_integer == want_half
    )
    s, c = angle.sin(), angle.cos()
    ref_s, ref_c = math.sin(angle.radians), math.cos(angle.radians)
    got = got and abs(s - ref_s) <= 1e-12 and abs(c - ref_c) <= 1e-12
    if want_sin_zero:
        got = got and s == 0.0
    if want_cos_one:
        got = got and c == 1.0
    if want_cos_minus_one:
        got = got and c == -1.0
    if want_half:
        got = got and c == 0.0 and abs(s) == 1.0
    return got


def _brute_common_multiple(a: int, b: int) -> int:
    m = 1
    while m % a != 0 or m % b != 0:
        m += 1
    return m


def product_pair_checks(lambdas: dict) -> list:
    """product_spindle vs a brute-force search, on every pair of distinct
    spindle values <= 12 occurring in the swept catalog (one representative
    family per value)."""
    by_value: dict = {}
    for name, lam in sorted(lambdas.items()):
        if lam <= 12:
            by_value.setdefault(lam, name)
    results = []
    values = sorted(by_value)
    for idx, la in enumerate(values):
        for lb in values[idx:]:
            got = product_spindle(la, lb)
            want = _brute_common_multiple(la, lb)
            results.append(
                CheckResult(
                    f"product:{by_value[la]}({la})*{by_value[lb]}({lb})",
                    got == want,
                    f"lcm {got}",
                )
            )
    return results


def _family_checks(family, eps: float, debug_scale: float | None) -> tuple:
    """(results, lambda or None) of the battery for one family. The space
    is local here, so its basis is freed before the next family's is built;
    the basis and sigma_coords of the largest space, built on first use by
    structural_checks, set the battery's peak memory. The other arrays of
    the battery are smaller: the (P, N, N) pair stacks of the bracket
    checks (P <= 630, N <= 9 when sweeping all pairs, P = 24 above), the
    25 N x N exponentials of the exp scan, the 25 or 49 of the isotropy
    scan and the dim_g x dim_g ad(xi)."""
    space = build_space(family)
    name = str(family)
    results = structural_checks(space, eps)
    results.append(exp_agreement_check(space, eps))
    results.append(isotropy_scan_check(space, eps))
    results.append(normalize_recovery_check(space, eps))

    xi = canonical_element(family)
    if debug_scale is not None:
        xi = float(debug_scale) * xi
    spec = ad_spectrum(space, xi, eps)
    try:
        canonical_ok = is_canonical(spec)
    except DegenerateElementError:
        canonical_ok = False
    results.append(
        CheckResult(
            f"{name}:canonical",
            canonical_ok,
            f"frequencies {tuple(round(f, 9) for f in spec.frequencies)}",
        )
    )
    if not canonical_ok:
        return results, None

    report = spindle_number(space, xi, eps)
    for key, value in report.checks.items():
        if key == "canonical" or value is None:
            continue
        results.append(CheckResult(f"{name}:{key}", bool(value)))
    results.append(
        CheckResult(
            f"{name}:lambda_matches_table",
            report.lambda_ == closed_form_lambda(family),
            f"computed {report.lambda_}, table {closed_form_lambda(family)}",
        )
    )
    return results, report.lambda_


def run_verification(
    cap: int = 6,
    eps: float | None = None,
    debug_scale: float | None = None,
    angle_trials: int = 100_000,
) -> tuple:
    """The full battery over all families with parameters <= cap.

    debug_scale rescales every canonical element before the spindle
    analysis; anything but 1 breaks canonicality on purpose, so the
    failure path can be exercised end to end. eps is resolved once here
    (None reads SPINDLE_EPS) and every stage gets the float.

    Returns (results, all_ok).
    """
    tol = resolve_eps(eps)
    results: list = []
    lambdas: dict = {}
    for family in sweep_families(cap):
        checks, lam = _family_checks(family, tol, debug_scale)
        results.extend(checks)
        if lam is not None:
            lambdas[str(family)] = lam

    results.extend(product_pair_checks(lambdas))
    results.append(rational_angle_bulk_check(angle_trials))
    return results, all(r.ok for r in results)
