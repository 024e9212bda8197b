"""Spindle-number mathematics on top of the space catalog.

Given a space and a tangent element xi, this module computes the
frequency decomposition of ad(xi), decides canonicality and
extrinsically symmetric type, splits k and p into eigenspaces, evaluates
variation-field norms along the distinguished geodesic, classifies
slices into knots/centrioles/regular levels, and computes the spindle
number by two independent methods that are asserted to agree:

  * exact: from the eigenphases of xi alone, as rationals with least
    common denominator D, stated_membership asked once at t = D*pi;
  * numeric: eigendecompose xi, scan g = exp(n*pi*xi) against the
    isotropy predicate over the divisors of a termination bound derived
    from the rational eigenphases of xi.

A third pure-arithmetic route (closed_form_lambda) gives the published
table value directly.

The spectrum of ad(xi) also has two routes. spindle_number and
normalize_canonical read it off the N eigenvalues of xi through the
family's root rule, in O(N^3), and build no dim g x dim g matrix and no
basis; spindle_number's one eigendecomposition of xi also serves its
numeric scan and exp(pi*xi). ad_matrix, ad_spectrum, cartan_split and
is_extrinsically_symmetric_type work on the matrix of ad(xi) on g
instead; they are the independent second route. ad_matrix joins the
space's basis entry table with itself on rows and on columns, so it
builds no (dim g, N, N) array. ad_spectrum and cartan_split take bases
of k and p from the eigenvector entries of the space's sigma_eigh, which
verify's graded-closure check shares; one SVD of ad(xi) from k to p
gives the frequencies, and its singular vectors, which only cartan_split
computes, the pieces k_nu and p_nu. On ad_spectrum's path ad(xi) is the
only dim g x dim g array.

A slice at a rational time is integer arithmetic: _lattice_row is the one
rule that profile's rows (SpindleReport.profile_rows) and the report's
pi/12 profile read, with no RationalAngle per row.

Public functions validate their input; private helpers trust it. A public
entry point coerces xi once with ensure_square, checks its size and
tangency, and hands the array down; the helpers below it (_return_scan,
_adjoint_flags, _report_checks, the isotropy predicates) check nothing
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateElementError,
    DimensionMismatchError,
    IrrationalRatioError,
    MembershipSearchError,
    MethodDisagreementError,
    NotCanonicalError,
    NotInTangentSpaceError,
    NotUnitaryError,
    ParameterError,
    RationalizationError,
    SpectrumBucketingError,
)
from .linalg import (
    PHASE_TOL,
    RationalAngle,
    _eigh_trusted,
    _exp_eigh,
    _is_unitary,
    _scalar_residual,
    _sin_pi,
    check_integers,
    ensure_square,
    exp_generic,
    rationalize,
    resolve_eps,
)
from .spaces import (
    SpaceFamily,
    SpaceInstance,
    _join,
    _shared_json,
    _times_sparse,
    canonical_element,
    stated_membership,
)

# ad_matrix joins this many basis entries at a time with the whole table,
# so its join temporaries stay a few hundred KiB.
AD_JOIN_CHUNK = 128

# Frequencies are singular values or root-rule images of eigenvalues, with
# no square root between. At the 203 cap-8 canonical elements the SVD's zero
# cluster reaches 7.2e-16 and its positive values lie within 8.9e-16 of
# integers (tests/test_shifted_spectrum.py::test_svd_margins).
BUCKET_TOL = 1e-6
ZERO_FREQ_TOL = 1e-5

# Denominator cap when identifying frequency ratios as rationals. Catalog
# ratios are tiny; a sqrt(2) ratio must NOT sneak through as 99/70.
MAX_RATIO_DENOMINATOR = 64

# Eigenphases of xi within PHASE_CLUSTER_TOL of each other share one
# rational identification.
PHASE_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class AdSpectrum:
    """Distinct frequencies nu_0 = 0 < nu_1 < ... of ad(xi) with the
    dimension each eigenspace contributes to k and to p; views are cached."""

    frequencies: tuple
    mult_k: tuple
    mult_p: tuple

    def __post_init__(self):
        if not (len(self.frequencies) == len(self.mult_k) == len(self.mult_p)):
            raise DimensionMismatchError("spectrum fields must have equal length")

    @cached_property
    def positive_frequencies(self) -> tuple:
        return tuple(nu for nu in self.frequencies if nu > 0)

    @cached_property
    def positive_mult_p(self) -> tuple:
        return tuple(m for nu, m in zip(self.frequencies, self.mult_p) if nu > 0)

    @property
    def dim_k(self) -> int:
        return int(sum(self.mult_k))

    @property
    def dim_p(self) -> int:
        return int(sum(self.mult_p))

    @cached_property
    def orbit_dim(self) -> int:
        """dim p_minus, the tangent dimension of the isotropy orbit."""
        return int(sum(self.positive_mult_p))


@dataclass(frozen=True, eq=False)
class CartanSplit:
    """The spectrum of ad(xi) with orthonormal bases of k_plus, p_plus and
    the pieces k_nu, p_nu, one per positive frequency of spectrum;
    matrices are stacked along the first axis."""

    spectrum: AdSpectrum
    k_plus: np.ndarray
    p_plus: np.ndarray
    k_nu: tuple
    p_nu: tuple


def _require_tangent(space: SpaceInstance, m: np.ndarray, eps: float | None) -> None:
    """Refuse m, a matrix that ensure_square has passed, unless it has the
    ambient size and lies in p."""
    tol = resolve_eps(eps)
    if not space._tangent(space._sized(m), tol):
        raise NotInTangentSpaceError(
            f"{space.family}: element is not in the (-1) eigenspace of the involution"
        )


def ad_matrix(space: SpaceInstance, xi, eps: float | None = None) -> np.ndarray:
    """Real matrix of ad(xi) on g in the orthonormal basis (antisymmetric
    for xi in g). Requires xi in p.

    Entry (e, f) is <B_e, xi B_f> - <B_e, B_f xi>, two joins of the basis
    entry table with itself. (xi B_f)[r, c] sums xi[r, r'] B_f[r', c], so
    the first pairs each entry of B_e with the entries of B_f in its column,
    at the factor xi[r, r']; (B_f xi)[r, c] sums B_f[r, c'] xi[c', c], so
    the second pairs it with those in its row, at xi^T[c, c']. Each join is
    summed into entry e*dim_g + f by np.add.at or np.subtract.at, taken
    AD_JOIN_CHUNK entries of B_e at a time in table order, so every sum
    keeps its terms and their order while the join's temporaries stay
    small; no (dim g, N, N) bracket stack is built."""
    m = ensure_square(xi)
    _require_tangent(space, m, eps)
    element, position, value = space.basis_entries
    n, d = space.ambient_dim, space.dim_g
    row, col = np.divmod(position, n)
    out = np.zeros(d * d)
    for shared, other, factor, add in ((col, row, m, np.add), (row, col, m.T, np.subtract)):
        order = np.argsort(shared, kind="stable")
        for lo in range(0, len(shared), AD_JOIN_CHUNK):
            a, b = _join(shared[lo : lo + AD_JOIN_CHUNK], shared, n, order)
            a += lo
            terms = value[a].conj()
            terms *= factor[other[a], other[b]]
            terms *= value[b]
            add.at(out, element[a] * d + element[b], terms.real)
    return out.reshape(d, d)


def _bucket(values: np.ndarray, tol: float) -> list:
    """Group ascending values into clusters separated by gaps > tol."""
    if len(values) == 0:
        return []
    cuts = (np.flatnonzero(np.diff(values) > tol) + 1).tolist()
    bounds = [0, *cuts, len(values)]
    return list(zip(bounds[:-1], bounds[1:]))


def _frequency_clusters(space: SpaceInstance, nu: np.ndarray) -> tuple:
    """(frequencies, column groups) of the ascending frequencies nu: first the
    zero cluster (nu <= ZERO_FREQ_TOL, at 0.0), then clusters split at gaps
    > BUCKET_TOL, each at its mean, snapped to a near integer. Each group
    holds the indices of its cluster in nu."""
    zero_count = int(np.sum(nu <= ZERO_FREQ_TOL))
    frequencies = [0.0]
    column_groups = [np.arange(zero_count)]
    positives = nu[zero_count:]
    for a, b in _bucket(positives, BUCKET_TOL):
        chunk = positives[a:b]
        if chunk[-1] - chunk[0] > BUCKET_TOL:
            raise SpectrumBucketingError(
                f"{space.family}: frequency cluster [{chunk[0]}, {chunk[-1]}] wider than {BUCKET_TOL}"
            )
        center = float(np.mean(chunk))
        snapped = float(round(center))
        if abs(center - snapped) <= BUCKET_TOL and snapped > 0:
            center = snapped
        if center <= ZERO_FREQ_TOL:
            raise SpectrumBucketingError(
                f"{space.family}: positive frequency {center} below the zero threshold"
            )
        frequencies.append(center)
        column_groups.append(np.arange(zero_count + a, zero_count + b))
    return frequencies, column_groups


def _eigenvector_rows(ev: tuple, keep: np.ndarray) -> tuple:
    """The eigenvectors where keep holds, of the sigma_eigh entries ev
    (rows, cols, values) of the matrix whose columns they are, as the
    entries of the matrix whose rows they are, numbered in order."""
    rows, cols, values = ev
    at = keep[cols]
    return (np.cumsum(keep) - 1)[cols[at]], rows[at], values[at]


def _dense_columns(entries: tuple, d: int, m: int) -> np.ndarray:
    """The (d, m) matrix whose columns are the rows of the (m, d) matrix
    with the entries (rows, cols, values)."""
    rows, cols, values = entries
    out = np.zeros((d, m))
    out[cols, rows] = values
    return out


def _spectrum_from_ad(space: SpaceInstance, admat: np.ndarray, vectors: bool = False) -> tuple:
    """(spectrum, blocks): the AdSpectrum of ad(xi) from its matrix and, if
    vectors, per frequency cluster as _frequency_clusters groups them, the
    block (uk, up) of orthonormal coordinate columns spanning its k part
    and its p part (else blocks is None).

    The eigenvectors uk of the involution (space.sigma_eigh) with
    eigenvalue +1 span k, those up with -1 span p. For xi in p, ad(xi) maps
    k_nu onto p_nu and back, so the block up^T ad(xi) uk has the
    frequencies as singular values, and its right and left singular
    vectors span the k_nu and the p_nu. The block is two products over the
    eigenvector entries (_times_sparse): ad(xi) uk, d x k, then up^T times
    that, p x k; only cartan_split, which needs the vectors, scatters uk
    and up into dense columns. The zero cluster takes the rest:
    mult_k(0) = k_dim - rank and mult_p(0) = p_dim - rank. An eigenvalue
    of the involution farther than 1/2 from +-1 is refused: it is no
    orthogonal involution."""
    ew, ev = space.sigma_eigh
    off = np.abs(np.abs(ew) - 1.0)
    if np.any(off > 0.5):
        raise SpectrumBucketingError(
            f"{space.family}: the involution has the eigenvalue {ew[np.argmax(off)]}, "
            "farther than 1/2 from +-1; it is not an orthogonal involution"
        )
    uk, up = _eigenvector_rows(ev, ew > 0), _eigenvector_rows(ev, ew < 0)
    n_k, n_p = int(np.count_nonzero(ew > 0)), int(np.count_nonzero(ew < 0))
    block = _times_sparse(_times_sparse(admat, uk, n_k).T, up, n_p).T
    if vectors:
        y, sv, zt = np.linalg.svd(block)
    else:
        sv = np.linalg.svd(block, compute_uv=False)
    # sv descends: ascending position i is index n - 1 - i, zeros at the tail.
    n = len(sv)
    frequencies, column_groups = _frequency_clusters(space, sv[::-1])
    rank = n - len(column_groups[0])
    sizes = [len(cols) for cols in column_groups[1:]]
    spec = AdSpectrum(tuple(frequencies), (n_k - rank, *sizes), (n_p - rank, *sizes))
    if spec.dim_k != space.k_dim or spec.dim_p != space.p_dim:
        raise SpectrumBucketingError(
            f"{space.family}: multiplicities sum to ({spec.dim_k}, {spec.dim_p}), "
            f"expected ({space.k_dim}, {space.p_dim})"
        )
    if not vectors:
        return spec, None
    uk, up = _dense_columns(uk, space.dim_g, n_k), _dense_columns(up, space.dim_g, n_p)
    blocks = [(uk @ zt[rank:].T, up @ y[:, rank:])]
    blocks += [(uk @ zt[n - 1 - cols].T, up @ y[:, n - 1 - cols]) for cols in column_groups[1:]]
    return spec, blocks


def _root_spectrum(space: SpaceInstance, w: np.ndarray, tol: float) -> tuple:
    """(spectrum, extrinsically symmetric) of ad(xi) from root data: the
    eigenvalues w of -i*xi for a tangent xi, and no dim g x dim g matrix.

    The family's root rule turns w into the frequencies of ad(xi), one per
    real dimension of g, bucketed as in ad_spectrum. For
    nu > 0, ad(xi) maps k_nu onto p_nu and back (xi is in p), so such a
    cluster splits evenly; the zero cluster takes what is left of k_dim
    and p_dim. ad(xi) is normal with eigenvalues +-i*r, so ad^3 + ad has
    eigenvalues of modulus |r^3 - r|, and max |r^3 - r| <= tol bounds every
    entry of the d x d cube test as well.
    """
    nu = np.sort(space.family._spec.roots(w))
    frequencies, groups = _frequency_clusters(space, nu)
    halves = []
    for freq, cols in zip(frequencies[1:], groups[1:]):
        if len(cols) % 2:
            raise SpectrumBucketingError(
                f"{space.family}: frequency {freq} has odd multiplicity {len(cols)}, "
                "so ad(xi) cannot swap its k and p parts"
            )
        halves.append(len(cols) // 2)
    k0 = space.k_dim - sum(halves)
    p0 = space.p_dim - sum(halves)
    if k0 < 0 or p0 < 0:
        raise SpectrumBucketingError(
            f"{space.family}: the positive frequencies take {sum(halves)} dimensions "
            f"of k and of p, more than ({space.k_dim}, {space.p_dim})"
        )
    spec = AdSpectrum(tuple(frequencies), (k0, *halves), (p0, *halves))
    return spec, float(np.max(np.abs(nu**3 - nu))) <= tol


def ad_spectrum(space: SpaceInstance, xi, eps: float | None = None) -> AdSpectrum:
    """Frequencies of ad(xi) with k/p multiplicities.

    The nu of the eigenvalues +-i*nu of ad(xi) are its singular values
    from k to p (see _spectrum_from_ad; the first call on a space builds
    its basis table and sigma_eigh), bucketed with BUCKET_TOL, near integer
    bucket means snapped, and each bucket's size counted in k and in p.
    The SVD computes no singular vectors.
    """
    return _spectrum_from_ad(space, ad_matrix(space, xi, eps))[0]


def _integer(freq: float) -> int | None:
    """freq as an integer >= 1 if it lies within BUCKET_TOL of one, else None."""
    k = round(freq)
    return k if k >= 1 and abs(freq - k) <= BUCKET_TOL else None


def _positive_frequencies(spec: AdSpectrum) -> tuple:
    """spec.positive_frequencies, refusing a spectrum with none: such an
    element has no canonical normalization."""
    positives = spec.positive_frequencies
    if not positives:
        raise DegenerateElementError(
            "ad(xi) has no nonzero frequency; no canonical normalization exists"
        )
    return positives


def is_canonical(spec: AdSpectrum) -> bool:
    """True iff every positive frequency is within BUCKET_TOL of an integer
    >= 1 and those integers are relatively prime; DegenerateElementError
    if there is no positive frequency."""
    ints = [_integer(nu) for nu in _positive_frequencies(spec)]
    return None not in ints and math.gcd(*ints) == 1


def _require_canonical(space: SpaceInstance, spec: AdSpectrum, caller: str) -> None:
    if not is_canonical(spec):
        raise NotCanonicalError(
            f"{space.family}: {caller} requires a canonical element, "
            f"got frequencies {spec.frequencies}"
        )


def integer_frequencies(spec: AdSpectrum) -> tuple:
    """The positive frequencies as exact integers, as is_canonical reads
    them; NotCanonicalError unless the spectrum is canonical."""
    if not is_canonical(spec):
        raise NotCanonicalError(f"spectrum {spec.frequencies} is not canonical")
    return tuple(_integer(nu) for nu in spec.positive_frequencies)


def normalize_canonical(space: SpaceInstance, xi, eps: float | None = None) -> np.ndarray:
    """Rescale xi by c > 0 so that the frequencies become relatively
    prime integers; returns xi unchanged if it already is canonical.

    Raises IrrationalRatioError when the frequency ratios are not
    identifiable as small rationals: no rescaling makes them integers.
    """
    m = ensure_square(xi)
    _require_tangent(space, m, eps)
    spec, _ = _root_spectrum(space, np.linalg.eigvalsh(-1j * m), resolve_eps(eps))
    positives = _positive_frequencies(spec)
    base = positives[0]
    try:
        ratios = [rationalize(nu / base, MAX_RATIO_DENOMINATOR, BUCKET_TOL) for nu in positives]
    except RationalizationError as exc:
        raise IrrationalRatioError(
            f"frequency ratios of {positives} are not rational within {BUCKET_TOL}"
        ) from exc
    common = math.lcm(*(r.denominator for r in ratios))
    numerators = [int(r * common) for r in ratios]
    g = math.gcd(*numerators)
    targets = [v // g for v in numerators]
    c = targets[0] / base
    for nu, target in zip(positives, targets):
        if abs(c * nu - target) > BUCKET_TOL:
            raise IrrationalRatioError(
                f"frequencies {positives} admit no common integer rescaling "
                f"(residual at target {target})"
            )
    if c == 1.0:
        return m
    return c * m


def _is_ext_sym(a: np.ndarray, eps: float | None) -> bool:
    """The extrinsically symmetric test ad^3 = -ad on the matrix a of ad(xi)."""
    return float(np.max(np.abs(a @ a @ a + a))) <= resolve_eps(eps)


def is_extrinsically_symmetric_type(space: SpaceInstance, xi, eps: float | None = None) -> bool:
    """True iff ad(xi)^3 = -ad(xi) as operators on g, i.e. the only
    frequencies are 0 and 1."""
    return _is_ext_sym(ad_matrix(space, xi, eps), eps)


def cartan_split(space: SpaceInstance, xi, eps: float | None = None) -> CartanSplit:
    """Orthonormal bases of k_plus, p_plus, k_nu, p_nu.

    Works inside coordinates, built as for ad_spectrum: the singular
    vectors of _spectrum_from_ad already lie in k or in p, so each cluster's
    k and p coefficient columns are scattered into matrices over the basis
    entry table as they are; an empty piece is a (0, N, N) stack.
    """
    spec, blocks = _spectrum_from_ad(space, ad_matrix(space, xi, eps), vectors=True)
    _require_canonical(space, spec, "cartan_split")
    (k_plus, p_plus), *pieces = (tuple(space._scatter(cols.T) for cols in block) for block in blocks)
    return CartanSplit(
        spectrum=spec,
        k_plus=k_plus,
        p_plus=p_plus,
        k_nu=tuple(k for k, _ in pieces),
        p_nu=tuple(p for _, p in pieces),
    )


def jacobi_norm_sq(spec: AdSpectrum, components: Sequence, t) -> float:
    """Squared norm of the variation field with the given per-frequency
    component norms |X_nu|^2 at parameter t:

        sum_j sin(nu_j t)^2 / nu_j^2 * |X_nu_j|^2

    (cross terms vanish: parallel transport keeps the components
    orthogonal). t may be a float or a RationalAngle; with a rational t
    and integer frequencies the sines at lattice points are exact."""
    freqs = spec.positive_frequencies
    comps = [float(c) for c in components]
    if len(comps) != len(freqs):
        raise DimensionMismatchError(
            f"expected {len(freqs)} components (one per positive frequency), got {len(comps)}"
        )
    if not all(math.isfinite(c) for c in comps):
        raise ParameterError(f"component norms must be finite, got {comps}")
    if any(c < 0 for c in comps):
        raise ParameterError("component norms must be non-negative")
    if not any(c > 0 for c in comps):
        raise ParameterError("at least one component norm must be positive")
    t = _finite_time(t)
    total = 0.0
    for freq, comp in zip(freqs, comps):
        if comp == 0.0:
            continue
        s = _sin_at(freq, t)
        total += (s * s) / (freq * freq) * comp
    return total


def _finite_time(t):
    """t itself if it is a RationalAngle, else float(t), which must be finite."""
    if isinstance(t, RationalAngle):
        return t
    value = float(t)
    if not math.isfinite(value):
        raise ParameterError(f"t must be a finite number, got {t!r}")
    return value


def _sin_at(freq: float, t) -> float:
    """sin(freq*t) for t as _finite_time gives it, exact at rational t and an
    integer frequency k, from the integers t.num*k and t.den."""
    if not isinstance(t, RationalAngle):
        return math.sin(freq * t)
    k = _integer(freq)
    return math.sin(freq * t.radians) if k is None else _sin_pi(t.num * k, t.den)


def slice_dimension(spec: AdSpectrum, t, eps: float | None = None) -> int:
    """Dimension of the slice at parameter t: the sum of dim p_nu over
    frequencies with sin(nu t) != 0; t may be a float or a RationalAngle.
    At t = (num/den)*pi and an integer frequency k this is exact: den does
    not divide num*k. Otherwise |sin(nu t)| > eps decides. A CartanSplit
    passes its spectrum."""
    t = _finite_time(t)
    tol = resolve_eps(eps)
    rational = isinstance(t, RationalAngle)
    total = 0
    for freq, mult in zip(spec.positive_frequencies, spec.positive_mult_p):
        k = _integer(freq) if rational else None
        if k is not None:
            total += mult if (t.num * k) % t.den else 0
        elif abs(math.sin(freq * (t.radians if rational else t))) > tol:
            total += mult
    return int(total)


def classify_time(t, eps: float | None = None) -> str:
    """knot / centriole / regular for the slice at parameter t (knots at
    integer multiples of pi, centrioles halfway between)."""
    t = _finite_time(t)
    if isinstance(t, RationalAngle):
        if t.sin_is_zero:
            return "knot"
        if t.is_half_integer:
            return "centriole"
        return "regular"
    tol = resolve_eps(eps)
    ratio = float(t) / math.pi
    if abs(ratio - round(ratio)) <= tol:
        return "knot"
    if abs(ratio - math.floor(ratio) - 0.5) <= tol:
        return "centriole"
    return "regular"


def closed_form_lambda(family: SpaceFamily) -> int:
    """The published table value, as pure integer arithmetic."""
    return family._spec.table_lambda(*family.params)


def method_exact(family: SpaceFamily, phases) -> int:
    """lambda, times the cover, from the eigenphases of xi alone, given as
    _rational_phases gives them: n*w is integral iff D divides n, D the
    lcm of the phase denominators, and stated_membership adds at most a
    parity that 2*D meets."""
    d = _phase_lcm(phases)
    n = d if stated_membership(family, phases, RationalAngle(d)) else 2 * d
    return n * family.cover_multiplier


def method_numeric(space: SpaceInstance, xi, eps: float | None = None) -> int:
    """Least n >= 1 with exp(n*pi*xi) accepted by the isotropy predicate,
    times the covering multiplier.

    With D the least common denominator of the rational eigenphases of xi,
    exp(2*D*pi*xi) = I, so n_max = 2*D is a return. g = exp(pi*xi)
    generates a cyclic group and K is a group, so {n : g^n in K} is a
    subgroup lambda*Z of Z; it contains n_max, so lambda divides n_max.
    The same holds for the group families' predicate g^(2n) = I. The scan
    therefore tests only the divisors of n_max, in ascending order, each
    by its exponential and the isotropy predicate. xi must lie in p."""
    tol = resolve_eps(eps)
    m = ensure_square(xi)
    w, v = _eigh_trusted(m, tol, "method_numeric")
    _require_tangent(space, m, tol)
    return _return_scan(space, w, v, _exp_eigh(w, v, math.pi), _rational_phases(w), tol)


def _divisors(n: int) -> list:
    """The positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_phases(w: np.ndarray) -> list:
    """[fraction, size] of each cluster of the eigenphases w, identified with
    a rational by rationalize. Values within PHASE_CLUSTER_TOL of a cluster's
    first value share its fraction, so each cluster is rationalized once;
    every other member must lie within PHASE_TOL of that fraction. Distinct
    admissible phases are at least 1/(4096*4095) ~ 6e-8 apart, so a cluster
    never spans two. eigh returns w ascending, so clusters are contiguous."""
    clusters = []
    for val in w.tolist():
        if not clusters or abs(val - first) > PHASE_CLUSTER_TOL:
            first, frac = val, rationalize(val)
            value = float(frac)
            clusters.append([frac, 1])
        elif abs(value - val) > PHASE_TOL:
            raise RationalizationError(
                f"{val!r} is not within {PHASE_TOL} of {frac}, the phase of its cluster"
            )
        else:
            clusters[-1][1] += 1
    return clusters


def _phase_lcm(phases) -> int:
    """Least common denominator of phases, as _rational_phases gives them."""
    return math.lcm(*(f.denominator for f, _ in phases))


def _return_scan(space: SpaceInstance, w, v, g, phases, tol: float) -> int:
    """method_numeric's divisor scan, from the eigendecomposition
    xi = i v diag(w) v*, its candidate n = 1, g = exp(pi*xi), and the
    rational eigenphases of w, which give n_max. Each candidate is unitary
    if v is, so v is tested once and the family's predicate is asked
    directly."""
    family = space.family
    n_max = 2 * _phase_lcm(phases)
    if not _is_unitary(v, tol):
        raise NotUnitaryError(f"{family}: the return scan requires a unitary eigenbasis")
    for n in _divisors(n_max):
        candidate = g if n == 1 else _exp_eigh(w, v, n * math.pi)
        if family._spec.isotropy(candidate, tol, *family.params):
            return n * space.cover_multiplier
    raise MembershipSearchError(
        f"{family}: no return to the isotropy group within n_max = {n_max} "
        f"(predicate inconsistent with the element) at eps {tol:g}"
    )


def product_spindle(lambda1: int, lambda2: int) -> int:
    """Spindle number of a product with component values lambda1, lambda2."""
    l1, l2 = check_integers((lambda1, lambda2), "spindle numbers")
    if l1 < 1 or l2 < 1:
        raise ParameterError(f"spindle numbers are >= 1, got {lambda1}, {lambda2}")
    return math.lcm(l1, l2)


def center_divisibility_check(lam: int, z: int) -> bool:
    """True iff lam divides 2z, and additionally divides z when odd."""
    l, order = check_integers((lam, z), "lam and z")
    if l < 1 or order < 1:
        raise ParameterError(f"need positive integers, got lam={lam}, z={z}")
    if (2 * order) % l != 0:
        return False
    if l % 2 == 1 and order % l != 0:
        return False
    return True


def _is_scalar(a: np.ndarray, tol: float) -> bool:
    """True iff a is within tol of c*I, c the mean of its diagonal."""
    return _scalar_residual(a, np.trace(a) / a.shape[0]) <= tol


def adjoint_conjugation_flags(space: SpaceInstance, xi, eps: float | None = None) -> tuple:
    """(order_two, commutes_with_involution) for conjugation Ad(g) by
    g = exp(pi*xi) acting on g.

    Both together certify that the corresponding element acts as an
    involution compatible with the symmetric structure, which forces
    spindle number 1 on the adjoint quotient of the same algebra.

    Both are N x N tests. Every catalog algebra (su(N), so(N) with N >= 3,
    sp(n)) acts irreducibly on C^N, so by Schur's lemma Ad(h) is the
    identity on g iff h is scalar. Hence Ad(g)^2 = id iff g^2 is scalar,
    and sigma Ad(g) = Ad(g) sigma, that is Ad(sigma(g)) = Ad(g), iff
    g* sigma(g) is scalar. For xi in p, sigma(g) = exp(-pi*xi) = g^-1, so
    g* sigma(g) = g^-2 and the two flags are the same condition; both are
    still computed, each from its own definition."""
    tol = resolve_eps(eps)
    return _adjoint_flags(space, space._sized(exp_generic(xi, math.pi, tol)), tol)


def _adjoint_flags(space: SpaceInstance, g: np.ndarray, tol: float) -> tuple:
    """adjoint_conjugation_flags for the given g = exp(pi*xi) of the ambient size."""
    order_two = _is_scalar(g @ g, tol)
    commutes = _is_scalar(g.conj().T @ space._sigma(g), tol)
    return order_two, commutes


# A slice's classification by the lowest-terms denominator of t/pi.
_LATTICE_KINDS = {1: "knot", 2: "centriole"}


def _lattice_row(nus: Sequence, mults: Sequence, kn: int, den: int) -> tuple:
    """(g, suffix, dim, classification, jacobi) of the slice at t =
    (kn/den)*pi, kn an integer and den >= 1, for the integer frequencies nus
    and their dim p_nu, in Python ints. g = gcd(kn, den): t/pi in lowest
    terms is f"{kn // g}{suffix}", suffix '' where den/g = 1, else
    f"/{den // g}"; a knot where den/g = 1, a centriole where it is 2. dim
    sums dim p_nu over the nu with den not dividing kn*nu, and jacobi (unit
    components) sums _sin_pi(kn*nu, den)^2 / nu^2 over them in ascending nu;
    the other nu add sin = 0."""
    g = math.gcd(kn, den)
    reduced = den // g
    dim = 0
    jacobi = 0.0
    for nu, mult in zip(nus, mults):
        if kn * nu % den:
            dim += mult
            s = _sin_pi(kn * nu, den)
            jacobi += s * s / (nu * nu)
    suffix = "" if reduced == 1 else f"/{reduced}"
    return g, suffix, dim, _LATTICE_KINDS.get(reduced, "regular"), jacobi


@lru_cache(maxsize=256)
def _twelfths(nus: tuple, mults: tuple) -> tuple:
    """_lattice_row at t = r*pi/12, 0 <= r < 12: row k of a pi/12 profile
    is entry k mod 12. A sweep's reports share a few spectra, so each is kept."""
    return tuple(_lattice_row(nus, mults, r, 12) for r in range(12))


@dataclass(frozen=True, eq=False)
class SpindleReport:
    """Everything the analysis of one (space, xi) decides. The dimensions,
    center and cover are read from space, the frequencies and their k/p
    multiplicities from spectrum. The knots, centrioles, slice profile and
    length follow from lambda_ and spectrum, and are computed when read.

    The report keeps its space alive. spindle_number builds no basis, so
    that costs O(1) memory unless the caller has built the space's basis."""

    space: SpaceInstance
    spectrum: AdSpectrum
    lambda_: int
    method_exact: int
    method_numeric: int
    extrinsically_symmetric: bool
    checks: Mapping

    @property
    def knot_times(self) -> tuple:
        """The knots n*pi, 0 <= n < lambda."""
        return tuple(RationalAngle(n) for n in range(self.lambda_))

    @property
    def centriole_times(self) -> tuple:
        """The centrioles (2n+1)*pi/2, halfway between the knots."""
        return tuple(RationalAngle(2 * n + 1, 2) for n in range(self.lambda_))

    @property
    def slice_profile(self) -> tuple:
        """(t, slice dimension) at t = k*pi/12 for 0 <= k <= 12*lambda."""
        period = _twelfths(integer_frequencies(self.spectrum), self.spectrum.positive_mult_p)
        return tuple(
            (RationalAngle(k, 12), period[k % 12][2]) for k in range(12 * self.lambda_ + 1)
        )

    @property
    def geodesic_length_over_norm(self) -> RationalAngle:
        """Length of the closed geodesic over |xi|: lambda*pi."""
        return RationalAngle(self.lambda_)

    def profile_rows(self, step: RationalAngle, count: int) -> Iterator[tuple]:
        """(t/pi text in lowest terms, jacobi_norm_sq with unit components,
        slice dimension, classification) at t = k*step for 0 <= k < count,
        each row from the integers k*step.num and step.den by _lattice_row,
        with no RationalAngle per row."""
        nus, mults = integer_frequencies(self.spectrum), self.spectrum.positive_mult_p
        num, den = step.num, step.den
        for k in range(count):
            kn = k * num
            g, suffix, dim, kind, jacobi = _lattice_row(nus, mults, kn, den)
            yield f"{kn // g}{suffix}", jacobi, dim, kind

    def to_json_dict(self) -> dict:
        lam, space, spec = self.lambda_, self.space, self.spectrum
        period = _twelfths(integer_frequencies(spec), spec.positive_mult_p)
        return {
            **_shared_json(space),
            "lambda": lam,
            "method_exact": self.method_exact,
            "method_numeric": self.method_numeric,
            "frequencies": [float(nu) for nu in spec.frequencies],
            "mult_k": [int(v) for v in spec.mult_k],
            "mult_p": [int(v) for v in spec.mult_p],
            "dims": {"g": space.dim_g, "k": space.k_dim, "p": space.p_dim, "orbit": spec.orbit_dim},
            "extrinsically_symmetric": self.extrinsically_symmetric,
            "knot_times": [f"{n}/1 pi" for n in range(lam)],
            "centriole_times": [f"{2 * n + 1}/2 pi" for n in range(lam)],
            "slice_profile": [
                {"t_over_pi": f"{k // g}{suffix}", "dim": dim}
                for k, (g, suffix, dim, _, _) in zip(range(12 * lam + 1), cycle(period))
            ],
            "geodesic_length_over_norm": f"{lam}/1 pi",
            "checks": dict(self.checks),
        }


# The report checks' grid: sixtieths of pi over +-4 periods, index i is
# t = (i - 240)*pi/60; knots at the multiples of 60, centrioles halfway.
_GRID_K = np.arange(-240, 241)
_GRID_KNOT = _GRID_K % 60 == 0
_GRID_T = _GRID_K[:, None] * math.pi / 60.0


def _mirror_pairs(centers) -> tuple:
    """(left, right): the grid indices c - j and c + j, j >= 1, about each
    center c, as far as the grid reaches on both sides of it."""
    last = len(_GRID_K) - 1
    left, right = zip(*((c - j, c + j) for c in centers for j in range(1, min(c, last - c) + 1)))
    return np.array(left), np.array(right)


_KNOT_PAIRS = _mirror_pairs(range(0, 481, 60))
_CENTRIOLE_PAIRS = _mirror_pairs(range(30, 481, 60))


def _symmetric_about(values: np.ndarray, pairs: tuple) -> bool:
    """True iff values are mirror-symmetric about each center of pairs
    (_KNOT_PAIRS or _CENTRIOLE_PAIRS), as far as the grid reaches."""
    left, right = pairs
    return bool(np.array_equal(values[left], values[right]))


def _report_checks(space, g, spec, lam, ext_sym, exact, numeric, tol: float) -> dict:
    """The per-row verification flags of a report at tolerance tol; g = exp(pi*xi)."""
    checks: dict = {}
    checks["canonical"] = True
    checks["extrinsically_symmetric_type"] = ext_sym
    checks["methods_agree"] = exact == numeric

    order_two, commutes = _adjoint_flags(space, g, tol)
    checks["adjoint_order_two"] = order_two
    checks["adjoint_commutes_with_involution"] = commutes

    if space.center_order is None:
        checks["center_divides_double"] = None
    else:
        checks["center_divides_double"] = center_divisibility_check(lam, space.center_order)

    # Knot lattice and slice profile on the _GRID_T grid. With unit
    # components the variation norm vanishes exactly on pi*Z; a slice counts
    # dim p_nu for each frequency with |sin(nu t)| > tol.
    nu = np.array(spec.positive_frequencies)
    sines = np.sin(nu * _GRID_T)
    jacobi = (sines * sines / (nu * nu)).sum(axis=1)
    dims = (np.abs(sines) > tol) @ np.array(spec.positive_mult_p, dtype=int)
    checks["jacobi_zero_iff_knot"] = bool(np.array_equal(jacobi <= 1e-15, _GRID_KNOT))
    checks["slice_zero_iff_knot"] = bool(np.array_equal(dims == 0, _GRID_KNOT))
    checks["slice_constant_between_knots"] = (
        bool(np.all(dims[241:300] == spec.orbit_dim)) if ext_sym else None
    )
    checks["profile_symmetric_about_knots"] = _symmetric_about(dims, _KNOT_PAIRS)
    checks["profile_symmetric_about_centrioles"] = (
        _symmetric_about(dims, _CENTRIOLE_PAIRS) if ext_sym else None
    )
    return checks


def spindle_number(space: SpaceInstance, xi=None, eps: float | None = None) -> SpindleReport:
    """Full spindle analysis of (space, xi); xi defaults to the family's
    canonical element. The exact and numeric methods must agree.

    eps is resolved once here (None reads SPINDLE_EPS) and passed down as
    a float; xi is coerced by ensure_square once, its size and tangency
    checked, and the array passed down. One eigendecomposition
    xi = i v diag(w) v* gives the spectrum (from root data), the rational
    eigenphases (each cluster of w rationalized once), which the exact
    route and the return scan's bound share, the return scan and
    g = exp(pi*xi), so the analysis is O(N^3) after build_space."""
    tol = resolve_eps(eps)
    if xi is None:
        xi = canonical_element(space.family)
    m = ensure_square(xi)
    _require_tangent(space, m, tol)
    w, v = _eigh_trusted(m, tol, "spindle_number")

    spec, ext_sym = _root_spectrum(space, w, tol)
    _require_canonical(space, spec, "spindle_number")

    phases = _rational_phases(w)
    exact = method_exact(space.family, phases)
    g = _exp_eigh(w, v, math.pi)
    numeric = _return_scan(space, w, v, g, phases, tol)
    if exact != numeric:
        raise MethodDisagreementError(
            f"{space.family}: exact method gives {exact}, numeric scan gives {numeric} "
            f"at eps {tol:g}"
        )
    lam = exact

    checks = _report_checks(space, g, spec, lam, ext_sym, exact, numeric, tol)
    return SpindleReport(
        space=space,
        spectrum=spec,
        lambda_=lam,
        method_exact=exact,
        method_numeric=numeric,
        extrinsically_symmetric=ext_sym,
        checks=checks,
    )
