"""Acceptance battery.

One test per acceptance criterion, each asserting the full quantitative
claim at its stated tolerance and printing a single PASS line (visible
with -s or in captured output). The catalog6 fixture computes every
report once per session; criterion 1 re-times a fresh sweep.
"""

import math
import time

import numpy as np

from spindles.linalg import RationalAngle
from spindles.spaces import build_space, canonical_element, sweep_families
from spindles.spindle import (
    ad_matrix,
    ad_spectrum,
    adjoint_conjugation_flags,
    center_divisibility_check,
    classify_time,
    jacobi_norm_sq,
    product_spindle,
    slice_dimension,
    spindle_number,
)
from spindles.verification import structural_checks

GRID = range(-240, 241)


def _expected_lambda(family):
    if family.tag in ("AI", "AII", "GRP_a"):
        p, q = family.params
        return (p + q) // math.gcd(p, q)
    if family.tag == "BDI_split":
        return 2 if family.params[0] % 2 == 0 else 4
    if family.tag == "GRP_d":
        return 4
    return 2


def test_criterion_1_table_reproduction_cap6_under_60s():
    start = time.perf_counter()
    rows = 0
    for family in sweep_families(6):
        report = spindle_number(build_space(family))
        assert report.lambda_ == _expected_lambda(family), str(family)
        assert isinstance(report.lambda_, int)
        rows += 1
    elapsed = time.perf_counter() - start
    assert rows == 127
    assert elapsed < 60.0, f"table sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: {rows} rows integer-exact in {elapsed:.2f}s")


def test_criterion_2_extremal_example_ai15(catalog6):
    family, space, report = catalog6["AI(1,5)"]
    assert report.lambda_ == 6
    assert space.center_order == 3
    assert center_divisibility_check(report.lambda_, space.center_order)
    assert report.lambda_ == 2 * space.center_order  # equality witness
    print("PASS criterion 2: AI(1,5) lambda 6 = 2 * center order 3")


def test_criterion_3_method_cross_validation(catalog6):
    from spindles.verification import exp_agreement_check

    for name, (family, space, report) in catalog6.items():
        assert report.method_exact == report.method_numeric == report.lambda_, name
        check = exp_agreement_check(space)
        assert check.ok, f"{name}: {check.detail}"
    print(f"PASS criterion 3: methods agree and exponentials match <= 1e-9 on {len(catalog6)} rows")


def test_criterion_4_extrinsically_symmetric_type(catalog6):
    for name, (family, space, report) in catalog6.items():
        xi = canonical_element(family)
        a = ad_matrix(space, xi)
        residual = float(np.max(np.abs(a @ a @ a + a)))
        assert residual <= 1e-6, f"{name}: residual {residual}"
        spec = ad_spectrum(space, xi)
        assert spec.frequencies == (0.0, 1.0), name
    print("PASS criterion 4: ad(xi)^3 = -ad(xi) <= 1e-6 and frequencies {0,1} on all rows")


def test_criterion_5_jacobi_knot_structure(catalog6):
    for name, (family, space, report) in catalog6.items():
        spec = ad_spectrum(space, canonical_element(family))
        comps = [1.0] * len(spec.positive_frequencies)
        for k in GRID:
            t = RationalAngle(k, 60)
            value = jacobi_norm_sq(spec, comps, t)
            if k % 60 == 0:
                assert value <= 1e-15, f"{name}: jacobi {value} at knot k={k}"
            else:
                assert value > 1e-15, f"{name}: jacobi {value} off-knot k={k}"
            assert abs(value - math.sin(t.radians) ** 2) <= 1e-9, name
            dim = slice_dimension(spec, t)
            assert (dim == 0) == (k % 60 == 0), f"{name}: slice {dim} at k={k}"
            expected_kind = (
                "knot" if k % 60 == 0 else "centriole" if k % 60 == 30 else "regular"
            )
            assert classify_time(t) == expected_kind, f"{name}: k={k}"
        interior = {slice_dimension(spec, RationalAngle(k, 60)) for k in range(1, 60)}
        assert interior == {report.spectrum.orbit_dim}, name
    print("PASS criterion 5: jacobi zeros, sin^2 profile, slice constancy, centriole flags")


def test_criterion_6_symmetry_divisibility_products(catalog6):
    lambdas = set()
    for name, (family, space, report) in catalog6.items():
        order_two, commutes = adjoint_conjugation_flags(space, canonical_element(family))
        assert order_two, name
        assert commutes, name
        if space.center_order is not None:
            assert center_divisibility_check(report.lambda_, space.center_order), name
        lambdas.add(report.lambda_)

        spec = ad_spectrum(space, canonical_element(family))
        dims = {k: slice_dimension(spec, RationalAngle(k, 60)) for k in GRID}
        for center in range(-240, 241, 30):
            for off in range(241):
                lo, hi = center - off, center + off
                if -240 <= lo and hi <= 240:
                    assert dims[lo] == dims[hi], f"{name}: asymmetric about {center}/60"

    small = sorted(lam for lam in lambdas if lam <= 12)
    assert small, "no table values <= 12"
    for la in small:
        for lb in small:
            m = 1
            while m % la or m % lb:
                m += 1
            assert product_spindle(la, lb) == m
    print(f"PASS criterion 6: adjoint/center checks, symmetry, products over {small}")


def test_criterion_7_structural_invariants_cap8():
    families = 0
    for family in sweep_families(8):
        space = build_space(family)
        for check in structural_checks(space, eps=1e-9):
            assert check.ok, f"{check.name}: {check.detail}"
        families += 1
    assert families == 203
    print(f"PASS criterion 7: structural invariants <= 1e-9 on {families} spaces")
