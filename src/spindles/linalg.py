"""Matrix and exact-angle arithmetic underneath the symmetric-space catalog.

Matrices are plain numpy complex arrays. Lie-algebra elements are
anti-Hermitian, group elements are unitary, and the ambient inner product
is <X, Y> = -Re tr(XY), which on anti-Hermitian matrices is the real
Frobenius pairing. One absolute tolerance drives every yes/no decision;
it defaults to 1e-9 and can be overridden with the SPINDLE_EPS
environment variable.

Angles that must be decided exactly (is sin zero, is cos +-1) are rational
multiples (num/den)*pi: _sin_pi and _cos_pi decide the exact values on the
two integers, and RationalAngle is the time value that carries them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormIdentityError,
    NotAntiHermitianError,
    ParameterError,
    RationalizationError,
)

DEFAULT_EPS = 1e-9

# Cap for rational reconstruction of eigenphases. Catalog denominators
# are at most p+q <= a few dozen; anything near this cap is rejected as
# unidentified rather than trusted.
MAX_PHASE_DENOMINATOR = 4096
# How far a float may lie from the rational that rationalize returns.
PHASE_TOL = 1e-6

CLOSED_FORMS = ("diagonal-phase", "half-angle", "rotation-block")


def check_eps(value, name: str = "eps") -> float:
    """value as a float if it is a finite number > 0, else ParameterError
    naming it. A tolerance of 0, below 0, inf or nan would make the checks
    refuse or accept everything and blame the element tested."""
    try:
        eps = float(value)
    except (TypeError, ValueError):
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"{name} must be a finite number > 0, got {value!r}")
    return eps


def check_integers(values: tuple, name: str) -> tuple:
    """values as a tuple of ints if each one equals its int (an int, a
    numpy integer or an integral float such as 3.0), else ParameterError
    naming them: int() alone would truncate 2.5, parse "3" and leave a
    nan to raise its own ValueError."""
    try:
        ints = tuple(int(v) for v in values)
        integral = all(i == v for i, v in zip(ints, values))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ParameterError(f"{name} must be integers, got {values!r}")
    return ints


def default_eps() -> float:
    """Global absolute tolerance; SPINDLE_EPS overrides the 1e-9 default."""
    return check_eps(os.environ.get("SPINDLE_EPS", DEFAULT_EPS), "SPINDLE_EPS")


def resolve_eps(eps: float | None) -> float:
    """eps, or default_eps() when None; checked by check_eps."""
    return default_eps() if eps is None else check_eps(eps)


def ensure_square(a) -> np.ndarray:
    """Coerce to a finite square complex matrix or raise."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatchError("matrix has non-finite entries")
    return m


# The matrix tests below take a matrix that ensure_square has passed and a
# resolved tolerance; the public entry points that call them validate first.


def _is_anti_hermitian(m: np.ndarray, tol: float) -> bool:
    return float(np.max(np.abs(m + m.conj().T))) <= tol


# _is_unitary, _is_real and _scalar_residual take a (..., N, N) stack and
# reduce over its last two axes: one result per matrix, a numpy scalar for
# one matrix.


def _is_unitary(m: np.ndarray, tol: float) -> np.ndarray:
    return _scalar_residual(m.conj().mT @ m, 1.0) <= tol


def _is_real(m: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(m.imag).max(axis=(-2, -1)) <= tol


def _scalar_residual(a: np.ndarray, c) -> np.ndarray:
    """max |a - c*I| over the entries of each square matrix of a, with c
    subtracted from the diagonals of a copy and no identity built. Each
    entry is the float a - c*np.eye(n) holds (x - 0 off the diagonal), so
    each maximum is the same to the bit."""
    n = a.shape[-1]
    shifted = a.copy()
    shifted.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] -= c
    return np.abs(shifted).max(axis=(-2, -1))


def mat_to_vec(a) -> np.ndarray:
    """Flatten a complex matrix to a real vector (real parts then
    imaginary parts); a (d, N, N) stack gives one such row per matrix.
    For anti-Hermitian X, Y the euclidean dot product of these vectors
    equals <X, Y> = -Re tr(XY)."""
    m = np.asarray(a, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def rationalize(x: float, max_den: int = MAX_PHASE_DENOMINATOR, tol: float = PHASE_TOL) -> Fraction:
    """Identify a float with a small-denominator rational, or raise."""
    f = Fraction(float(x)).limit_denominator(max_den)
    if abs(float(f) - float(x)) > tol:
        raise RationalizationError(
            f"{x!r} is not within {tol} of a rational with denominator <= {max_den}"
        )
    return f


def _sin_pi(num: int, den: int) -> float:
    """sin((num/den)*pi), den >= 1, reduced or not: exact 0.0 where den | num,
    +-1.0 where den | 2*num only, else the sine of pi times (num mod 2*den)/den,
    an int / int that rounds correctly, as float(Fraction(num, den) % 2) does."""
    if num % den == 0:
        return 0.0
    if 2 * num % den == 0:
        return 1.0 if 2 * num // den % 4 == 1 else -1.0
    return math.sin(math.pi * ((num % (2 * den)) / den))


def _cos_pi(num: int, den: int) -> float:
    """cos((num/den)*pi), den >= 1, reduced or not: exact +-1.0 where den | num,
    0.0 where den | 2*num only, else the cosine of pi times (num mod 2*den)/den,
    the same correctly rounded int / int as _sin_pi."""
    if num % den == 0:
        return 1.0 if num // den % 2 == 0 else -1.0
    if 2 * num % den == 0:
        return 0.0
    return math.cos(math.pi * ((num % (2 * den)) / den))


@dataclass(frozen=True, slots=True)
class RationalAngle:
    """The time (num/den) * pi, a plain value stored in lowest terms with
    den >= 1.

    Keeping the multiple of pi as an exact fraction makes the lattice
    questions integer arithmetic:

        sin == 0       iff den == 1
        cos == +1      iff den == 1 and num even
        cos == -1      iff den == 1 and num odd
        half-integer   iff den == 2  (sin = +-1, cos = 0)

    sin()/cos() are _sin_pi/_cos_pi on (num, den): exact 0.0 / +-1.0 in
    those cases and ordinary floating point values otherwise. The class has
    no arithmetic; a caller that needs k*t or t/2 passes the integers
    (k*num, den) or (num, 2*den) to _sin_pi/_cos_pi.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            raise ZeroDivisionError(f"RationalAngle({num}, 0)")
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def parse(cls, text: str) -> "RationalAngle":
        """Parse 'a/b' or 'a' (multiples of pi)."""
        try:
            f = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalizationError(f"cannot parse angle {text!r}: {exc}") from exc
        return cls(f.numerator, f.denominator)

    @property
    def radians(self) -> float:
        return self.num / self.den * math.pi

    # Exact lattice predicates.
    @property
    def sin_is_zero(self) -> bool:
        return self.den == 1

    @property
    def cos_is_one(self) -> bool:
        return self.den == 1 and self.num % 2 == 0

    @property
    def cos_is_minus_one(self) -> bool:
        return self.den == 1 and self.num % 2 == 1

    @property
    def is_half_integer(self) -> bool:
        return self.den == 2

    def sin(self) -> float:
        return _sin_pi(self.num, self.den)

    def cos(self) -> float:
        return _cos_pi(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den} pi"


def exp_generic(a, t: float = 1.0, eps: float | None = None) -> np.ndarray:
    """exp(t*a) for anti-Hermitian a, via eigendecomposition of -i*a.

    Exact up to eigensolver roundoff and unitary to machine precision;
    the closed forms are cross-checked against this.
    """
    w, v = _eigh_trusted(ensure_square(a), resolve_eps(eps), "exp_generic")
    return _exp_eigh(w, v, t)


def _eigh_trusted(m: np.ndarray, tol: float, caller: str) -> tuple:
    """(w, v) with m = i v diag(w) v*, for a matrix that ensure_square has
    passed. eigh reads one triangle only, so m must pass the anti-Hermitian
    test first; the refusal names the caller."""
    if not _is_anti_hermitian(m, tol):
        raise NotAntiHermitianError(f"{caller} requires an anti-Hermitian matrix")
    return np.linalg.eigh(-1j * m)


def _exp_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t*a) = v diag(exp(i t w)) v* for a = i v diag(w) v*."""
    return (v * np.exp(1j * float(t) * w)) @ v.conj().T


def _exp_generic_many(w: np.ndarray, v: np.ndarray, times) -> np.ndarray:
    """The (A, N, N) stack of _exp_eigh(w, v, t) for the A floats t of
    times, each slice the same to the bit, in one product."""
    t = np.asarray(times, dtype=float)
    return (v * np.exp((1j * t)[:, None] * w)[:, None, :]) @ v.conj().T


def exp_structured(xi, t: RationalAngle, form: str, eps: float | None = None) -> np.ndarray:
    """Closed-form exp(t*xi) for the three algebraic shapes in the catalog.

    form == "diagonal-phase": xi = i*diag(d) with rational d; entries are
        unit phases exp(i t d_k).
    form == "half-angle": xi^2 = -I/4; exp(t xi) = cos(t/2) I + 2 sin(t/2) xi.
    form == "rotation-block": xi^3 = -xi;
        exp(t xi) = I + sin(t) xi + (1 - cos t) xi^2.

    The identity behind the requested form is verified first and a
    FormIdentityError is raised if it fails. Each sine and cosine is
    _sin_pi/_cos_pi on integers: (num*a, den*b) for t*d_k with d_k = a/b,
    (num, 2*den) for t/2 and (num, den) for t. Values that are exactly 0
    or +-1 come out exact; everything else is floating point.
    """
    return _exp_structured_many(xi, (t,), form, eps)[0]


def _exp_structured_many(xi, angles, form: str, eps: float | None = None) -> np.ndarray:
    """The (A, N, N) stack of exp_structured(xi, t, form, eps) for the A
    angles t, with the form's identity checked once. The trig values are
    read from the integers of each angle and phase, so no RationalAngle
    is built, and broadcast over the stack; a diagonal phase rationalizes
    each distinct diagonal value of xi once and takes one entry per angle
    and distinct value."""
    m = ensure_square(xi)
    tol = resolve_eps(eps)
    eye = np.eye(m.shape[0])

    if form == "diagonal-phase":
        off = m - np.diag(np.diagonal(m))
        if float(np.max(np.abs(off))) > tol:
            raise FormIdentityError("diagonal-phase form needs a diagonal matrix")
        d = np.diagonal(m)
        if float(np.max(np.abs(d.real))) > tol:
            raise FormIdentityError("diagonal-phase form needs purely imaginary diagonal")
        values, slots = np.unique(d.imag, return_inverse=True)
        phases = [rationalize(v) for v in values.tolist()]
        scaled = ([(t.num * f.numerator, t.den * f.denominator) for f in phases] for t in angles)
        rows = np.array([[complex(_cos_pi(*q), _sin_pi(*q)) for q in row] for row in scaled])
        out = np.zeros((len(angles),) + m.shape, dtype=complex)
        diagonal = np.arange(m.shape[0])
        out[:, diagonal, diagonal] = rows[:, slots]
        return out

    if form == "half-angle":
        if float(np.max(np.abs(m @ m + eye / 4))) > tol:
            raise FormIdentityError("half-angle form needs xi^2 = -I/4")
        halves = [(t.num, 2 * t.den) for t in angles]
        c = np.array([_cos_pi(*h) for h in halves])
        s = np.array([2.0 * _sin_pi(*h) for h in halves])
        return c[:, None, None] * eye + s[:, None, None] * m

    if form == "rotation-block":
        m2 = m @ m
        if float(np.max(np.abs(m2 @ m + m))) > tol:
            raise FormIdentityError("rotation-block form needs xi^3 = -xi")
        s = np.array([t.sin() for t in angles])
        c = np.array([1.0 - t.cos() for t in angles])
        return eye + s[:, None, None] * m + c[:, None, None] * m2

    raise FormIdentityError(f"unknown closed form {form!r}; expected one of {CLOSED_FORMS}")
