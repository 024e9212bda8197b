import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindles.errors import RationalizationError
from spindles.linalg import RationalAngle, _cos_pi, _sin_pi
from spindles.spindle import _sin_at

nums = st.integers(min_value=-720, max_value=720)
dens = st.integers(min_value=1, max_value=96)


class TestExactPredicates:
    @given(nums, dens)
    def test_predicates_match_fraction_arithmetic(self, num, den):
        angle = RationalAngle(num, den)
        f = Fraction(num, den)
        assert angle.sin_is_zero == (f.denominator == 1)
        assert angle.cos_is_one == (f % 2 == 0)
        assert angle.cos_is_minus_one == (f.denominator == 1 and f.numerator % 2 == 1)
        assert angle.is_half_integer == (f.denominator == 2)

    @given(nums, dens)
    def test_trig_values_match_math(self, num, den):
        angle = RationalAngle(num, den)
        assert angle.sin() == pytest.approx(math.sin(angle.radians), abs=1e-12)
        assert angle.cos() == pytest.approx(math.cos(angle.radians), abs=1e-12)

    @given(nums, dens)
    def test_lattice_values_are_exact(self, num, den):
        angle = RationalAngle(num, den)
        if angle.sin_is_zero:
            assert angle.sin() == 0.0
            assert abs(angle.cos()) == 1.0
        if angle.is_half_integer:
            assert angle.cos() == 0.0
            assert abs(angle.sin()) == 1.0

    def test_lattice_values_do_not_come_from_libm(self, monkeypatch):
        # At the multiples of pi/2, _sin_pi and _cos_pi answer from integer
        # branches, so they stay exact whatever libm returns: here math.sin
        # and math.cos are one ulp off everywhere. Comparing with the real
        # libm could not show this, since math.sin is itself exactly +-1.0
        # at pi/2 and 3*pi/2.
        sin, cos = math.sin, math.cos
        monkeypatch.setattr(math, "sin", lambda x: sin(x) * (1 + 2**-52) + 2**-60)
        monkeypatch.setattr(math, "cos", lambda x: cos(x) * (1 + 2**-52) + 2**-60)
        assert math.sin(math.pi / 2) != 1.0 and math.sin(0.0) != 0.0
        for den in (1, 2, 3, 4, 6, 12):
            for num in range(-4 * den, 4 * den + 1):
                if 2 * num % den:
                    continue
                quarter = 2 * num // den % 4  # t = quarter * pi/2 mod 2*pi
                assert _sin_pi(num, den) == (0.0, 1.0, 0.0, -1.0)[quarter], (num, den)
                assert _cos_pi(num, den) == (1.0, 0.0, -1.0, 0.0)[quarter], (num, den)

    def test_bulk_million_random_rationals(self):
        # Volume check of the exactness contract: predicates must agree
        # with integer arithmetic on 10**6 random rationals. For den >= 1
        # and g = gcd(num, den), num/den in lowest terms has denominator
        # den/g, and num/den is even iff 2*den divides num.
        pairs = _randint_pairs(987654321, 1_000_000)
        head = list(itertools.islice(pairs, 10_000))
        guard = random.Random(987654321)
        assert head == [
            (guard.randint(-10_000, 10_000), guard.randint(1, 360)) for _ in range(10_000)
        ]
        for num, den in itertools.chain(head, pairs):
            angle = RationalAngle(num, den)
            g = math.gcd(num, den)
            assert Fraction(angle.num, angle.den) == Fraction(num, den)
            assert angle.sin_is_zero == (den == g)
            assert angle.cos_is_one == (num % (2 * den) == 0)
            assert angle.cos_is_minus_one == (den == g and num % (2 * den) != 0)
            assert angle.is_half_integer == (den == 2 * g)

    @given(nums, dens, st.integers(min_value=1, max_value=12))
    def test_sine_from_unreduced_integers(self, num, den, k):
        # _sin_pi reads num/den reduced or not, so the sine at an integer
        # frequency k needs no reduced product angle; both equal, to the
        # bit, the sine as RationalAngle computed it from lowest terms.
        angle = RationalAngle(num * k, den)
        if angle.den == 1:
            want = 0.0
        elif angle.den == 2:
            want = 1.0 if angle.num % 4 == 1 else -1.0
        else:
            want = math.sin(math.pi * ((angle.num % (2 * angle.den)) / angle.den))
        assert _sin_pi(num * k, den) == want
        assert _sin_at(float(k), RationalAngle(num, den)) == want

    def test_cos_from_unreduced_integers(self):
        # _cos_pi reads num/den reduced or not: (num*k)/(den*k) and the angle
        # give, to the bit, the cosine computed from lowest terms.
        for den in (1, 2, 3, 4, 6, 7, 12, 97):
            for num in range(-3 * den - 2, 3 * den + 3):
                angle = RationalAngle(num, den)
                want = _lowest_terms_cos(angle)
                assert angle.cos() == want, (num, den)
                for k in (1, 2, 3, 5, 12, 60, 97, 299, 300):
                    assert _cos_pi(num * k, den * k) == want, (num, den, k)


def _lowest_terms_cos(angle):
    """RationalAngle.cos as it was, on the lowest terms the constructor keeps."""
    if angle.den == 1:
        return 1.0 if angle.num % 2 == 0 else -1.0
    if angle.den == 2:
        return 0.0
    return math.cos(math.pi * ((angle.num % (2 * angle.den)) / angle.den))


def _randint_pairs(seed, count):
    """count pairs (randint(-10_000, 10_000), randint(1, 360)) of
    random.Random(seed). randint(a, b) is a + _randbelow(b - a + 1), which
    redraws getrandbits(n.bit_length()) until it is below n: 15 bits below
    20,001, then 9 bits below 360. The same calls, inlined."""
    getrandbits = random.Random(seed).getrandbits
    for _ in range(count):
        num = getrandbits(15)
        while num >= 20_001:
            num = getrandbits(15)
        den = getrandbits(9)
        while den >= 360:
            den = getrandbits(9)
        yield num - 10_000, den + 1


class TestArithmetic:
    def test_normalization(self):
        assert RationalAngle(2, 4) == RationalAngle(1, 2)
        assert RationalAngle(-3, -6) == RationalAngle(1, 2)
        assert RationalAngle(0, 7) == RationalAngle(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalAngle(1, 0)


class TestParseAndFormat:
    def test_parse_forms(self):
        assert RationalAngle.parse("3/4") == RationalAngle(3, 4)
        assert RationalAngle.parse("2") == RationalAngle(2)
        assert RationalAngle.parse(" -5/10 ") == RationalAngle(-1, 2)

    def test_parse_garbage(self):
        with pytest.raises(RationalizationError):
            RationalAngle.parse("x/y")
        with pytest.raises(RationalizationError):
            RationalAngle.parse("1/0")

    def test_str_roundtrip(self):
        a = RationalAngle(7, 6)
        assert str(a) == "7/6 pi"
        assert RationalAngle.parse(str(a).removesuffix(" pi")) == a

    def test_radians(self):
        assert RationalAngle(1, 2).radians == pytest.approx(math.pi / 2)
        assert RationalAngle(-3).radians == pytest.approx(-3 * math.pi)
