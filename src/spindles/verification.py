"""Self-verification battery.

Every quantitative statement the package makes about a catalog family is
re-derived here by an independent route and compared:

  * structural: the basis is orthonormal, the involution is an isometric
    involutive automorphism, dimensions add up, the canonical element is
    tangent; the basis facts (orthonormality, bracket closure) are
    checked once per basis table, which the algebra's basis rule and N
    determine, and printed for each family on it;
  * exponentials: the closed form agrees with the eigendecomposition
    route on a grid of rational angles, each route's grid one (A, N, N)
    stack from one form check or one eigendecomposition of xi;
  * membership: the isotropy predicate, asked once for the whole stack of
    closed forms, agrees with the exact membership rule, read from the
    eigenphases of xi, along the canonical geodesic;
  * spindle: the exact and numeric methods agree with each other and
    with the closed-form table value, and the per-report geometric
    checks (variation-field zeros, slice profile, symmetries, adjoint
    and center criteria) all hold;
  * products: the product rule matches a brute-force common-multiple
    search;
  * angles: the exact trig predicates agree with integer arithmetic on
    every rational angle (num/den)*pi with |num| <= 600 and den <= 48.

run_verification() is the engine behind the `verify` CLI command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElementError
from .linalg import (
    RationalAngle,
    _eigh_trusted,
    _exp_generic_many,
    _exp_structured_many,
    ensure_square,
    resolve_eps,
)
from .spaces import (
    SpaceInstance,
    _isotropy,
    _join,
    _key_sums,
    _times_sparse,
    build_space,
    canonical_element,
    stated_membership,
    sweep_families,
)
from .spindle import (
    _rational_phases,
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
    RANDOM_CLOSURE_TRIALS seeded draws with i != j."""
    if dim <= EXHAUSTIVE_CLOSURE_DIM:
        return np.triu_indices(dim, k=1)
    rng = random.Random(seed)
    pairs = []
    for _ in range(RANDOM_CLOSURE_TRIALS):
        i, j = rng.randrange(dim), rng.randrange(dim)
        while j == i:  # a self-pair has a zero bracket: redraw its second index
            j = rng.randrange(dim)
        pairs.append((i, j))
    return tuple(np.array(pairs).T)


def _identity_dev(key: np.ndarray, terms: np.ndarray, d: int) -> float:
    """max |m - I| for the (d, d) matrix m whose entry (e, f) is the sum of
    the terms at key e*d + f, in order: the identity's -1 is the last term
    of each diagonal key, so each entry of m - I is the float that a dense
    m minus np.eye(d) gives, and no (d, d) array is built."""
    diagonal = np.arange(d) * (d + 1)
    _, sums = _key_sums(np.r_[key, diagonal], np.r_[terms, np.full(d, -1.0)])
    return float(np.max(np.abs(sums), initial=0.0))


def _involution_dev(s: tuple, d: int) -> float:
    """max(|s s - I|, |s - s^T|) for the sigma_entries s of a (d, d)
    matrix. s s joins each entry (a, b) with the entries (b, c) of row b,
    keyed a*d + c; s - s^T sums each entry at its key and its negative at
    the transposed key."""
    r, k, v = s
    left, right = _join(k, r, d)
    square = _identity_dev(r[left] * d + k[right], v[left] * v[right], d)
    _, asym = _key_sums(np.r_[r * d + k, k * d + r], np.r_[v, -v])
    return float(max(square, np.max(np.abs(asym), initial=0.0)))


def _graded_factors(ev: tuple, signs: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple:
    """The graded check's factors of the pairs (i, j) of sigma eigenvector
    indices, as (coordinate rows, row of each left factor, row of each
    right factor): the eigenvectors themselves while every pair is
    checked, above EXHAUSTIVE_CLOSURE_DIM seeded random unit vectors, each
    of the whole eigenspace of its eigenvector. ev holds sigma_eigh's
    eigenvectors as entries; each lies in one component of the involution,
    a few basis elements, so a sample of them would miss a fault in the
    elements outside it; a random vector of an eigenspace touches all of
    them."""
    rows, cols, values = ev
    d = len(signs)
    if d <= EXHAUSTIVE_CLOSURE_DIM:
        vectors = np.zeros((d, d))
        vectors[cols, rows] = values
        return vectors, i, j
    idx = np.concatenate((i, j))
    weights = np.random.default_rng(1).standard_normal((len(idx), d))
    weights *= signs == signs[idx, None]
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    return _times_sparse(weights, ev, d), np.arange(len(i)), np.arange(len(i), len(idx))


def _brackets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutators of two (P, N, N) stacks, pair by pair."""
    out = a @ b
    out -= b @ a
    return out


def _max_dev(residual: np.ndarray, scale: np.ndarray) -> float:
    """max over pairs of max|residual| / scale."""
    return float(np.max(np.max(np.abs(residual), axis=(1, 2)) / scale))


def _once(shared: dict | None, key: str, compute):
    """compute(), computed once per basis table: shared holds what the
    first family on the table computed, and a standalone call (shared
    None) computes its own."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _closure_facts(space: SpaceInstance) -> tuple:
    """(pair, elements, br, scale, closure_dev): the facts of the sampled
    bracket pairs that read the basis table alone. elements is the
    (U, N, N) stack of the U distinct basis elements that the pairs use,
    scattered once, and pair the (2, P) rows of each pair's factors in it;
    br is the (P, N, N) stack of their brackets, scale 1 + max|br| per
    pair, and closure_dev the worst relative residual of br's coordinate
    round trip (_gather then _scatter)."""
    i, j = _pairs(space.dim_g)
    used, inv = np.unique(np.r_[i, j], return_inverse=True)
    elements = space._elements(used)
    pair = inv.reshape(2, -1)
    br = _brackets(elements[pair[0]], elements[pair[1]])
    scale = 1.0 + np.max(np.abs(br), axis=(1, 2))
    closure_dev = _max_dev(br - space._scatter(space._gather(br)), scale)
    return pair, elements, br, scale, closure_dev


def _bracket_checks(space: SpaceInstance, name: str, tol: float, shared: dict | None) -> list:
    """bracket_closure and involution_automorphism on the sampled pairs of
    basis elements: _closure_facts, once per basis table (_once), then
    sigma(br) less the brackets of the sigma images of the pair factors,
    sigma applied once to the stack of distinct elements. A standalone
    call drops br once sigma(br) is taken."""
    pair, elements, br, scale, closure_dev = _once(
        shared, "closure", lambda: _closure_facts(space)
    )
    image = space._sigma(br)
    del br
    images = space._sigma(elements)
    image -= _brackets(images[pair[0]], images[pair[1]])
    auto_dev = _max_dev(image, scale)
    return [
        CheckResult(f"{name}:bracket_closure", closure_dev <= tol, f"max dev {closure_dev:.2e}"),
        CheckResult(
            f"{name}:involution_automorphism", auto_dev <= tol, f"max dev {auto_dev:.2e}"
        ),
    ]


def _graded_check(space: SpaceInstance, name: str, tol: float) -> CheckResult:
    """Graded closure: brackets of sigma eigenvectors (or of vectors of
    their eigenspaces) land in the right eigenspace ([k,k] and [p,p] in k,
    [k,p] in p). The factor rows are scattered once, as one stack that the
    pairs index. The brackets' coordinates c should satisfy s c = +-c; the
    check reads the norm of the part of c in the wrong eigenspace."""
    ew, ev = space.sigma_eigh
    signs = np.where(ew > 0.0, 1.0, -1.0)
    i, j = _pairs(space.dim_g, seed=1)
    rows, left, right = _graded_factors(ev, signs, i, j)
    factors = space._scatter(rows)
    br = _brackets(factors[left], factors[right])
    del factors
    c = space._gather(br)
    scale = 1.0 + np.max(np.abs(br), axis=(1, 2))
    want = (signs[i] * signs[j])[:, None]
    wrong = (c - want * _times_sparse(c, space.sigma_entries, space.dim_g)) / 2.0
    graded_dev = float(np.max(np.linalg.norm(wrong, axis=1) / scale))
    return CheckResult(
        f"{name}:graded_bracket_closure", graded_dev <= tol, f"max dev {graded_dev:.2e}"
    )


def structural_checks(
    space: SpaceInstance, eps: float | None = None, shared: dict | None = None
) -> list:
    """Basis/involution/bracket invariants for one space.

    Every basis read goes through the basis entry table, and no dim_g x
    dim_g array is built: the Gram matrix less the identity is summed over
    the keys of the table's join with itself on positions
    (SpaceInstance._gram_terms), and the involution's square less the
    identity and its asymmetry over the keys of joins of sigma_entries
    (_involution_dev). Each bracket check (_bracket_checks, _graded_check)
    builds (P, N, N) stacks for its P sampled pairs only: the two
    factors, indexed from one stack of the distinct factors the pairs use
    (the basis elements, scattered from the table; for the graded check,
    the coordinates _graded_factors gives from sigma_eigh's eigenvector
    entries), their brackets, and what the check compares them with (the
    coordinate round trip _gather then _scatter, the brackets of the sigma
    images); sigma_entries is applied to the graded brackets' coordinates
    by _times_sparse, over its entries.

    The Gram residual and the bracket pairs' closure facts (_closure_facts)
    read nothing but the basis table, whose one input is the algebra's
    basis rule and N (_basis_key). run_verification passes one shared dict
    to the families on one table, and the first of them fills it; called
    without one, structural_checks computes both itself."""
    tol = resolve_eps(eps)
    name = str(space.family)
    d = space.dim_g
    results = []

    gram_dev = _once(shared, "gram_dev", lambda: _identity_dev(*space._gram_terms(), d))
    results.append(
        CheckResult(f"{name}:basis_orthonormal", gram_dev <= tol, f"max dev {gram_dev:.2e}")
    )

    invol_dev = _involution_dev(space.sigma_entries, d)
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
    results.extend(_bracket_checks(space, name, tol, shared))
    results.append(_graded_check(space, name, tol))
    return results


def _closed_form_scan(space: SpaceInstance, eps: float | None = None) -> tuple:
    """(angles, closed, w, v): t = k*pi/6 for 0 <= k <= 24*cover, the
    (A, N, N) stack of the closed-form exp(t*xi) at each, with one form
    check of xi for all of them, and the one eigendecomposition
    xi = i v diag(w) v* of the two scans. The first 25 angles are the exp
    scan's; all of them are the isotropy scan's."""
    angles = [RationalAngle(k, 6) for k in range(24 * space.cover_multiplier + 1)]
    xi = ensure_square(canonical_element(space.family))
    closed = _exp_structured_many(xi, angles, space.family.closed_form, eps)
    w, v = _eigh_trusted(xi, resolve_eps(eps), "exp_generic")
    return angles, closed, w, v


def exp_agreement_check(
    space: SpaceInstance, eps: float | None = None, scan: tuple | None = None
) -> CheckResult:
    """Closed-form exp(t*xi) vs the eigendecomposition route on t = k*pi/6,
    k <= 24, both as (25, N, N) stacks: the closed forms are the first 25
    of scan (_closed_form_scan when None), the generic route its one
    eigendecomposition at all 25 angles."""
    angles, closed, w, v = scan or _closed_form_scan(space, eps)
    generic = _exp_generic_many(w, v, [t.radians for t in angles[:25]])
    worst = float(np.max(np.abs(closed[:25] - generic)))
    return CheckResult(
        f"{space.family}:exp_closed_form_agrees", worst <= 1e-9, f"max dev {worst:.2e}"
    )


def isotropy_scan_check(
    space: SpaceInstance, eps: float | None = None, scan: tuple | None = None
) -> CheckResult:
    """isotropy predicate vs the exact membership rule (from the phases of
    xi, rationalized from scan's eigenvalues) on the angles and closed
    forms of scan (_closed_form_scan when None): one unitarity test and
    one predicate call on the whole stack, then the rule angle by angle."""
    family = space.family
    angles, closed, w, _ = scan or _closed_form_scan(space, eps)
    got = _isotropy(space, closed, resolve_eps(eps))
    phases = _rational_phases(w)
    mismatches = [
        k for k, t in enumerate(angles) if got[k] != stated_membership(family, phases, t)
    ]
    return CheckResult(
        f"{family}:isotropy_matches_membership",
        not mismatches,
        "" if not mismatches else f"first mismatch at k={mismatches[0]}/6",
    )


def normalize_recovery_check(space: SpaceInstance, eps: float | None = None) -> CheckResult:
    """normalize_canonical undoes an integer rescaling of xi."""
    xi = canonical_element(space.family)
    back = normalize_canonical(space, 3.0 * xi, eps)
    dev = float(np.max(np.abs(back - xi)))
    return CheckResult(
        f"{space.family}:normalize_recovers", dev <= resolve_eps(eps), f"max dev {dev:.2e}"
    )


def rational_angle_bulk_check() -> CheckResult:
    """Exact trig predicates vs integer arithmetic on every angle
    (num/den)*pi with -600 <= num <= 600 and 1 <= den <= 48, in ascending
    (num, den) order: 57,648 angles, each den at every residue of num
    modulo 2*den."""
    nums, dens = range(-600, 601), range(1, 49)
    bad = [f"{n}/{d}" for n in nums for d in dens if not _rational_angle_exact(n, d)]
    detail = f"{len(nums) * len(dens)} angles"
    if bad:
        detail += f", {len(bad)} bad, first {bad[0]}"
    return CheckResult("rational_angle_exactness", not bad, detail)


def _rational_angle_exact(num: int, den: int) -> bool:
    """RationalAngle(num, den)'s lattice predicates and exact values agree
    with integer arithmetic and its sin/cos with math.sin/math.cos. For
    den >= 1 and g = gcd(num, den), num/den in lowest terms has
    denominator den/g, and num/den is even iff 2*den divides num."""
    angle = RationalAngle(num, den)
    g = math.gcd(num, den)
    want_sin_zero = den == g
    want_cos_one = num % (2 * den) == 0
    want_cos_minus_one = want_sin_zero and not want_cos_one
    want_half = den == 2 * g
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


def _family_checks(
    family, eps: float, debug_scale: float | None, shared: dict | None = None
) -> tuple:
    """(results, lambda or None) of the battery for one family, with
    structural_checks reading and filling shared (see there). The space
    is local here, so its basis data is freed before the next family's is
    built; the facts of its basis table that shared holds live as long as
    run_verification's group of families on that table. No (dim_g, N, N)
    array is built: the basis is its entry table, the involution its entry
    list sigma_entries (sigma_coords, the dense matrix, is never built),
    and the eigenvectors of sigma_eigh (one small eigh per component of the
    involution) are entries too. The one dim_g x dim_g array is ad(xi)
    (2.5 MiB at AII(6,6), 8 MiB at AII(8,8)), which ad_spectrum reduces to
    the p_dim x k_dim block of its SVD, without singular vectors, through a
    dim_g x k_dim product. The other arrays are smaller: the join pairs and
    key sums of the Gram matrix and the involution, the (P, N, N) pair
    stacks of the bracket checks (P <= 630, N <= 9 when sweeping all
    pairs, P = 24 above; standalone, each dropped once its residual is
    taken) and the scans' (A, N, N) stacks: the one stack of A = 25 or 49
    closed-form exponentials and the one eigendecomposition of xi that the
    exp scan (its first 25) and the isotropy scan (all) share, and the exp
    scan's (25, N, N) generic stack. Under tracemalloc the largest cap-6
    peak is 5.8 MiB (AII(6,6))."""
    space = build_space(family)
    name = str(family)
    results = structural_checks(space, eps, shared)
    scan = _closed_form_scan(space, eps)
    results.append(exp_agreement_check(space, eps, scan))
    results.append(isotropy_scan_check(space, eps, scan))
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


def _basis_key(family) -> tuple:
    """The one input of SpaceInstance.basis_entries: the algebra's basis
    rule and N. Families with one key share one basis table."""
    return family._spec.basis, family.ambient_dim


def run_verification(
    cap: int = 6,
    eps: float | None = None,
    debug_scale: float | None = None,
) -> tuple:
    """The full battery over all families with parameters <= cap.

    debug_scale C rescales every canonical element before the spindle
    analysis; any |C| != 1 breaks canonicality on purpose, so the failure
    path can be exercised end to end (C = -1 keeps the frequencies, and
    passes). eps is resolved once here (None reads SPINDLE_EPS) and every
    stage gets the float. The families are checked group by group, one
    group per basis table (_basis_key: 39 tables for the 127 families at
    cap 6, 53 for 203 at cap 8), each group in sweep order with one shared
    dict of its table's facts, dropped when the group ends; a family alone
    on its table runs standalone, freeing each stack once it is read. The
    results are listed in sweep order. After the families come the product
    rule and the angle audit over its whole box (rational_angle_bulk_check).

    Returns (results, all_ok).
    """
    tol = resolve_eps(eps)
    families = list(sweep_families(cap))
    groups: dict = {}
    for k, family in enumerate(families):
        groups.setdefault(_basis_key(family), []).append(k)
    checked: list = [None] * len(families)
    for members in groups.values():
        shared = {} if len(members) > 1 else None
        for k in members:
            checked[k] = _family_checks(families[k], tol, debug_scale, shared)

    results: list = []
    lambdas: dict = {}
    for family, (checks, lam) in zip(families, checked):
        results.extend(checks)
        if lam is not None:
            lambdas[str(family)] = lam

    results.extend(product_pair_checks(lambdas))
    results.append(rational_angle_bulk_check())
    return results, all(r.ok for r in results)
