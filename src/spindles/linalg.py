"""Matrix and exact-angle arithmetic underneath the symmetric-space catalog.

Matrices are plain numpy complex arrays. Lie-algebra elements are
anti-Hermitian, group elements are unitary, and the ambient inner product
is <X, Y> = -Re tr(XY), which on anti-Hermitian matrices is the real
Frobenius pairing. One absolute tolerance drives every yes/no decision;
it defaults to 1e-9 and can be overridden with the SPINDLE_EPS
environment variable.

Angles that must be decided exactly (is sin zero, is cos +-1) are carried
as rational multiples of pi, see RationalAngle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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


def is_anti_hermitian(a, eps: float | None = None) -> bool:
    m = ensure_square(a)
    return float(np.max(np.abs(m + m.conj().T))) <= resolve_eps(eps)


def is_unitary(a, eps: float | None = None) -> bool:
    m = ensure_square(a)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= resolve_eps(eps)


def is_real_matrix(a, eps: float | None = None) -> bool:
    m = ensure_square(a)
    return float(np.max(np.abs(m.imag))) <= resolve_eps(eps)


def commutator(a, b) -> np.ndarray:
    """Matrix commutator ab - ba."""
    ma, mb = ensure_square(a), ensure_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"commutator of shapes {ma.shape} and {mb.shape}")
    return ma @ mb - mb @ ma


def trace_inner(x, y) -> float:
    """<X, Y> = -Re tr(XY), the invariant inner product on anti-Hermitian
    matrices (positive definite there)."""
    return float(-np.trace(np.asarray(x) @ np.asarray(y)).real)


def mat_to_vec(a) -> np.ndarray:
    """Flatten a complex matrix to a real vector (real parts then
    imaginary parts); a (d, N, N) stack gives one such row per matrix.
    For anti-Hermitian X, Y the euclidean dot product of these vectors
    equals trace_inner(X, Y)."""
    m = np.asarray(a, dtype=complex)
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def subspace_rank(mats: Iterable, eps: float | None = None) -> int:
    """Real dimension of the span of the given matrices.

    Matrices are flattened to real vectors and the rank is the number of
    singular values above eps.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return 0
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise DimensionMismatchError(
                f"subspace_rank over mixed shapes {shape} and {m.shape}"
            )
    rows = np.stack([mat_to_vec(m) for m in mats])
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > resolve_eps(eps)))


def rationalize(x: float, max_den: int = MAX_PHASE_DENOMINATOR, tol: float = PHASE_TOL) -> Fraction:
    """Identify a float with a small-denominator rational, or raise."""
    f = Fraction(float(x)).limit_denominator(max_den)
    if abs(float(f) - float(x)) > tol:
        raise RationalizationError(
            f"{x!r} is not within {tol} of a rational with denominator <= {max_den}"
        )
    return f


@dataclass(frozen=True, slots=True)
class RationalAngle:
    """The angle (num/den) * pi, stored in lowest terms with den >= 1.

    Keeping the multiple of pi as an an exact fraction makes the lattice
    questions integer arithmetic:

        sin == 0       iff den == 1
        cos == +1      iff den == 1 and num even
        cos == -1      iff den == 1 and num odd
        half-integer   iff den == 2  (sin = +-1, cos = 0)

    sin()/cos() return exact 0.0 / +-1.0 in those cases and ordinary
    floating point values otherwise.
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
    def from_fraction(cls, f: Fraction) -> "RationalAngle":
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> "RationalAngle":
        """Parse 'a/b' or 'a' (multiples of pi)."""
        try:
            return cls.from_fraction(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalizationError(f"cannot parse angle {text!r}: {exc}") from exc

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def over_pi_text(self) -> str:
        """The angle over pi as str(Fraction) writes it: 'num/den', or 'num'
        when den is 1."""
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

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

    def _mod2(self) -> float:
        """The angle over pi reduced to [0, 2). In lowest terms, the integer
        remainder over den is the same rational as Fraction(num, den) % 2,
        and int / int rounds it correctly, as float(Fraction) does."""
        return (self.num % (2 * self.den)) / self.den

    def sin(self) -> float:
        if self.den == 1:
            return 0.0
        if self.den == 2:
            return 1.0 if self.num % 4 == 1 else -1.0
        return math.sin(math.pi * self._mod2())

    def cos(self) -> float:
        if self.den == 1:
            return 1.0 if self.num % 2 == 0 else -1.0
        if self.den == 2:
            return 0.0
        return math.cos(math.pi * self._mod2())

    # Exact arithmetic. Multiplication is by exact scalars only.
    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle.from_fraction(self.fraction + other.fraction)

    def __sub__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle.from_fraction(self.fraction - other.fraction)

    def __neg__(self) -> "RationalAngle":
        return RationalAngle(-self.num, self.den)

    def __mul__(self, other: Union[int, Fraction]) -> "RationalAngle":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RationalAngle.from_fraction(self.fraction * other)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[int, Fraction]) -> "RationalAngle":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RationalAngle.from_fraction(self.fraction / other)

    def __str__(self) -> str:
        return f"{self.num}/{self.den} pi"


def exp_generic(a, t: float = 1.0, eps: float | None = None) -> np.ndarray:
    """exp(t*a) for anti-Hermitian a, via eigendecomposition of -i*a.

    Exact up to eigensolver roundoff and unitary to machine precision;
    the closed forms are cross-checked against this.
    """
    return _exp_generic_many(a, (t,), eps)[0]


def _exp_generic_many(a, times, eps: float | None = None) -> list:
    """[exp(t*a) for t in times] from one eigendecomposition of -i*a."""
    w, v = _eigh_anti_hermitian(a, eps, "exp_generic")
    return [_exp_eigh(w, v, t) for t in times]


def _eigh_anti_hermitian(a, eps: float | None, caller: str) -> tuple:
    """(w, v) with a = i v diag(w) v*. eigh reads one triangle only, so a
    must pass the anti-Hermitian test first; the refusal names the caller."""
    m = ensure_square(a)
    if not is_anti_hermitian(m, eps):
        raise NotAntiHermitianError(f"{caller} requires an anti-Hermitian matrix")
    return np.linalg.eigh(-1j * m)


def _exp_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t*a) = v diag(exp(i t w)) v* for a = i v diag(w) v*."""
    return (v * np.exp(1j * float(t) * w)) @ v.conj().T


def _phase_entry(theta: RationalAngle) -> complex:
    return complex(theta.cos(), theta.sin())


def exp_structured(xi, t: RationalAngle, form: str, eps: float | None = None) -> np.ndarray:
    """Closed-form exp(t*xi) for the three algebraic shapes in the catalog.

    form == "diagonal-phase": xi = i*diag(d) with rational d; entries are
        unit phases exp(i t d_k).
    form == "half-angle": xi^2 = -I/4; exp(t xi) = cos(t/2) I + 2 sin(t/2) xi.
    form == "rotation-block": xi^3 = -xi;
        exp(t xi) = I + sin(t) xi + (1 - cos t) xi^2.

    The identity behind the requested form is verified first and a
    FormIdentityError is raised if it fails. Trigonometric values that
    are exactly 0 or +-1 come from the integer tests on the rational
    angle; everything else is floating point.
    """
    return _exp_structured_many(xi, (t,), form, eps)[0]


def _exp_structured_many(xi, angles, form: str, eps: float | None = None) -> list:
    """[exp_structured(xi, t, form, eps) for t in angles], with the form's
    identity checked and the diagonal of xi rationalized once."""
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
        phases = [rationalize(v) for v in d.imag]
        return [np.diag([_phase_entry(t * f) for f in phases]) for t in angles]

    if form == "half-angle":
        if float(np.max(np.abs(m @ m + eye / 4))) > tol:
            raise FormIdentityError("half-angle form needs xi^2 = -I/4")
        halves = [t * Fraction(1, 2) for t in angles]
        return [h.cos() * eye + (2.0 * h.sin()) * m for h in halves]

    if form == "rotation-block":
        m2 = m @ m
        if float(np.max(np.abs(m2 @ m + m))) > tol:
            raise FormIdentityError("rotation-block form needs xi^3 = -xi")
        return [eye + t.sin() * m + (1.0 - t.cos()) * m2 for t in angles]

    raise FormIdentityError(f"unknown closed form {form!r}; expected one of {CLOSED_FORMS}")
