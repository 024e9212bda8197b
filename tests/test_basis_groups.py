"""run_verification checks each basis table once.

The basis of g is a fact of the algebra and N, not of the involution that
picks the family: SpaceInstance.basis_entries reads nothing but the
family's basis rule and its ambient size (verification._basis_key). The
sweep runs group by group, one group per key, and the Gram residual and
the bracket pairs' closure facts are computed by the first family of a
group and read by the rest. The tests below show that the key determines
the table, that the grouped battery prints what each family's standalone
battery prints, in sweep order, that a fault in one table fails the
families on it and no other, and how often the shared facts are computed.
"""

from dataclasses import replace

import numpy as np
import pytest

from spindles import SpaceInstance, spaces, verification
from spindles.errors import CatalogInconsistencyError
from spindles.spaces import SpaceFamily, build_space, sweep_families
from spindles.verification import (
    _basis_key,
    _family_checks,
    product_pair_checks,
    rational_angle_bulk_check,
    run_verification,
)

TOL = 1e-9
# Families and distinct basis tables (keys) of the sweep at each cap.
SIZES = {6: (127, 39), 8: (203, 53)}


def standalone_battery(cap):
    """The battery as each family's standalone _family_checks, in sweep
    order, then the product checks and the angle audit."""
    results, lambdas = [], {}
    for family in sweep_families(cap):
        checks, lam = _family_checks(family, TOL, None)
        results.extend(checks)
        if lam is not None:
            lambdas[str(family)] = lam
    return results + product_pair_checks(lambdas) + [rational_angle_bulk_check()]


@pytest.fixture
def computed(monkeypatch):
    """Counts of the Gram residuals (SpaceInstance._gram_terms) and of the
    closure facts (_closure_facts) computed."""
    counts = {"gram": 0, "closure": 0}
    gram_terms, closure_facts = SpaceInstance._gram_terms, verification._closure_facts

    def counting_gram(self):
        counts["gram"] += 1
        return gram_terms(self)

    def counting_closure(space):
        counts["closure"] += 1
        return closure_facts(space)

    monkeypatch.setattr(SpaceInstance, "_gram_terms", counting_gram)
    monkeypatch.setattr(verification, "_closure_facts", counting_closure)
    return counts


def test_key_determines_the_table():
    first = {}
    for family in sweep_families(8):
        table = [a.tobytes() for a in build_space(family).basis_entries]
        assert first.setdefault(_basis_key(family), table) == table, family
    assert len(first) == SIZES[8][1]
    assert len({_basis_key(f) for f in sweep_families(6)}) == SIZES[6][1]


@pytest.mark.parametrize("cap", sorted(SIZES))
def test_grouped_battery_equals_standalone(cap, computed):
    """Line for line the standalone batteries' output, with the shared
    facts computed once per key, where the standalone calls compute them
    once per family."""
    families, keys = SIZES[cap]
    results, ok = run_verification(cap=cap)
    assert ok
    assert computed == {"gram": keys, "closure": keys}
    assert results == standalone_battery(cap)
    assert computed == {"gram": keys + families, "closure": keys + families}


def test_table_fault_fails_only_its_families(monkeypatch):
    """The so(5) rule with the sign of its first entry flipped: the flipped
    element is symmetric, so it is still orthonormal to the rest but
    outside so(5), and bracket_closure fails on each of the three families
    on that table, with the line each one's standalone battery prints; no
    other family fails a check."""
    so_basis = spaces._so_basis

    def flipped(m):
        element, position, value = so_basis(m)
        if m == 5:
            value = np.r_[-value[:1], value[1:]]
        return element, position, value

    for tag, spec in list(spaces._FAMILIES.items()):
        if spec.basis is so_basis:
            monkeypatch.setitem(spaces._FAMILIES, tag, replace(spec, basis=flipped))
    results, ok = run_verification(cap=6)
    assert not ok
    assert results == standalone_battery(6)
    failed = {(r.name.split(":")[0], r.name.split(":", 1)[1]) for r in results if not r.ok}
    assert failed == {
        (name, "bracket_closure") for name in ("BDI_rank1(1,4)", "BDI_rank1(2,3)", "GRP_bd(5)")
    }


def test_trace_fault_raises_as_standalone(monkeypatch):
    """One family with a wrong k_dim, the second on its table (so the
    table's facts are already shared when it runs): the sweep raises the
    error its standalone battery raises, trace guard and message alike."""
    wrong = SpaceFamily.make("GRP_a", 1, 2)
    assert [f for f in sweep_families(3) if _basis_key(f) == _basis_key(wrong)] == [
        SpaceFamily.make("AI", 1, 2),
        wrong,
    ]

    def corrupt(family):
        space = build_space(family)
        return replace(space, k_dim=space.k_dim + 1) if family == wrong else space

    monkeypatch.setattr(verification, "build_space", corrupt)
    with pytest.raises(CatalogInconsistencyError) as standalone:
        _family_checks(wrong, TOL, None)
    assert str(standalone.value).startswith("GRP_a(1,2): involution trace ")
    with pytest.raises(CatalogInconsistencyError) as swept:
        run_verification(cap=3)
    assert str(swept.value) == str(standalone.value)
