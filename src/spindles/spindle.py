"""Spindle-number mathematics on top of the space catalog.

Given a space and a tangent element xi, this module computes the
frequency decomposition of ad(xi), decides canonicality and
extrinsically symmetric type, splits k and p into eigenspaces, evaluates
variation-field norms along the distinguished geodesic, classifies
slices into knots/centrioles/regular levels, and computes the spindle
number by two independent methods that are asserted to agree:

  * exact: the published membership condition at t = n*pi, evaluated in
    integer arithmetic and searched for the least n;
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
is_extrinsically_symmetric_type diagonalize the matrix of ad(xi) on g
instead; they are the independent second route, and the first call of
one on a space builds its basis and sigma_coords (O(dim g^2 N^2) time
and memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateElementError,
    DimensionMismatchError,
    IrrationalRatioError,
    MembershipSearchError,
    MethodDisagreementError,
    NotCanonicalError,
    NotInTangentSpaceError,
    ParameterError,
    RationalizationError,
    SpectrumBucketingError,
)
from .linalg import (
    PHASE_TOL,
    RationalAngle,
    _eigh_anti_hermitian,
    _exp_eigh,
    ensure_square,
    exp_generic,
    mat_to_vec,
    rationalize,
    resolve_eps,
)
from .spaces import (
    SpaceFamily,
    SpaceInstance,
    _shared_json,
    canonical_element,
    isotropy_contains,
    stated_membership,
)

# Frequencies are eigenvalues of a symmetric matrix of desk-scale size;
# bucketing is looser than the global eps because eigensolver error grows
# with dim g. Zero detection is looser still: near-zero eigenvalues of
# ad(xi)^2 pass through a square root that amplifies roundoff.
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
    dimension each eigenspace contributes to k and to p."""

    frequencies: tuple
    mult_k: tuple
    mult_p: tuple

    def __post_init__(self):
        if not (len(self.frequencies) == len(self.mult_k) == len(self.mult_p)):
            raise DimensionMismatchError("spectrum fields must have equal length")

    @property
    def positive_frequencies(self) -> tuple:
        return tuple(nu for nu in self.frequencies if nu > 0)

    @property
    def positive_mult_p(self) -> tuple:
        return tuple(m for nu, m in zip(self.frequencies, self.mult_p) if nu > 0)

    @property
    def dim_k(self) -> int:
        return int(sum(self.mult_k))

    @property
    def dim_p(self) -> int:
        return int(sum(self.mult_p))

    @property
    def orbit_dim(self) -> int:
        """dim p_minus, the tangent dimension of the isotropy orbit."""
        return int(sum(self.positive_mult_p))


@dataclass(frozen=True, eq=False)
class CartanSplit:
    """Orthonormal bases of k_plus, p_plus and the per-frequency pieces
    k_nu, p_nu; matrices are stacked along the first axis."""

    frequencies: tuple
    k_plus: np.ndarray
    p_plus: np.ndarray
    k_nu: tuple
    p_nu: tuple

    @property
    def positive_frequencies(self) -> tuple:
        return tuple(self.frequencies[1:])

    @property
    def positive_mult_p(self) -> tuple:
        return tuple(b.shape[0] for b in self.p_nu)


def _require_tangent(space: SpaceInstance, m: np.ndarray, eps: float | None) -> None:
    if not space.contains_tangent(m, eps):
        raise NotInTangentSpaceError(
            f"{space.family}: element is not in the (-1) eigenspace of the involution"
        )


def ad_matrix(space: SpaceInstance, xi, eps: float | None = None) -> np.ndarray:
    """Real matrix of ad(xi) on g in the orthonormal basis (antisymmetric
    for xi in g). Requires xi in p."""
    m = ensure_square(xi)
    _require_tangent(space, m, eps)
    brackets = m[None, :, :] @ space.basis_tensor - space.basis_tensor @ m[None, :, :]
    return space.basis_vecs @ mat_to_vec(brackets).T


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


def _spectrum_from_ad(space: SpaceInstance, admat: np.ndarray) -> tuple:
    """(spectrum, column groups, u): the AdSpectrum of ad(xi) from its
    matrix, with the eigenvectors u of -ad(xi)^2 and, per frequency, the
    indices of its columns in u (as _frequency_clusters groups them)."""
    sq = -(admat @ admat)
    w, u = np.linalg.eigh((sq + sq.T) / 2.0)
    nu = np.sqrt(np.clip(w, 0.0, None))
    frequencies, column_groups = _frequency_clusters(space, nu)

    mult_k = []
    mult_p = []
    s = space.sigma_coords
    for cols in column_groups:
        size = len(cols)
        if size == 0:
            mult_k.append(0)
            mult_p.append(0)
            continue
        ub = u[:, cols]
        t = ub.T @ s @ ub
        k_f = (size + float(np.trace(t))) / 2.0
        k_count = int(round(k_f))
        if abs(k_f - k_count) > 1e-6:
            raise SpectrumBucketingError(
                f"{space.family}: involution does not split a frequency cluster integrally "
                f"(got k-multiplicity {k_f})"
            )
        mult_k.append(k_count)
        mult_p.append(size - k_count)

    spec = AdSpectrum(tuple(frequencies), tuple(mult_k), tuple(mult_p))
    if spec.dim_k != space.k_dim or spec.dim_p != space.p_dim:
        raise SpectrumBucketingError(
            f"{space.family}: multiplicities sum to ({spec.dim_k}, {spec.dim_p}), "
            f"expected ({space.k_dim}, {space.p_dim})"
        )
    return spec, column_groups, u


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

    Eigenvalues of ad(xi) come in pairs +-i*nu; the computation
    diagonalizes -ad(xi)^2, buckets the square roots with BUCKET_TOL,
    snaps near-integer bucket means, and splits each eigenspace between
    k and p by the trace of the conjugated involution.
    """
    return _spectrum_from_ad(space, ad_matrix(space, xi, eps))[0]


def is_canonical(spec: AdSpectrum, tol: float = BUCKET_TOL) -> bool:
    """True iff every frequency is within tol of an integer and the
    nonzero integers are relatively prime."""
    positives = spec.positive_frequencies
    if not positives:
        raise DegenerateElementError(
            "ad(xi) has no nonzero frequency; no canonical normalization exists"
        )
    ints = []
    for nu in positives:
        k = round(nu)
        if abs(nu - k) > tol or k < 1:
            return False
        ints.append(int(k))
    return math.gcd(*ints) == 1


def integer_frequencies(spec: AdSpectrum, tol: float = BUCKET_TOL) -> tuple:
    """Positive frequencies as exact integers; requires a canonical spectrum."""
    if not is_canonical(spec, tol):
        raise NotCanonicalError(f"spectrum {spec.frequencies} is not canonical")
    return tuple(int(round(nu)) for nu in spec.positive_frequencies)


def normalize_canonical(space: SpaceInstance, xi, eps: float | None = None) -> np.ndarray:
    """Rescale xi by c > 0 so that the frequencies become relatively
    prime integers; returns xi unchanged if it already is canonical.

    Raises IrrationalRatioError when the frequency ratios are not
    identifiable as small rationals: no rescaling makes them integers.
    """
    m = ensure_square(xi)
    _require_tangent(space, m, eps)
    spec, _ = _root_spectrum(space, np.linalg.eigvalsh(-1j * m), resolve_eps(eps))
    positives = spec.positive_frequencies
    if not positives:
        raise DegenerateElementError(
            "ad(xi) has no nonzero frequency; no canonical normalization exists"
        )
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

    Works inside coordinates: each frequency cluster of -ad(xi)^2 is
    intersected with the +-1 eigenspaces of the involution, then mapped
    back to matrices.
    """
    spec, column_groups, u = _spectrum_from_ad(space, ad_matrix(space, xi, eps))
    if not is_canonical(spec):
        raise NotCanonicalError(
            f"{space.family}: cartan_split requires a canonical element, "
            f"got frequencies {spec.frequencies}"
        )
    s = space.sigma_coords

    def split_cluster(cols: np.ndarray) -> tuple:
        ub = u[:, cols]
        t = ub.T @ s @ ub
        tw, tv = np.linalg.eigh((t + t.T) / 2.0)
        k_cols = ub @ tv[:, tw > 0.0]
        p_cols = ub @ tv[:, tw <= 0.0]
        return k_cols, p_cols

    def to_matrices(coord_cols: np.ndarray) -> np.ndarray:
        if coord_cols.shape[1] == 0:
            return np.zeros((0, space.ambient_dim, space.ambient_dim), dtype=complex)
        return np.tensordot(coord_cols.T, space.basis_tensor, axes=1)

    k0, p0 = split_cluster(column_groups[0])
    k_nu = []
    p_nu = []
    for cols in column_groups[1:]:
        kc, pc = split_cluster(cols)
        k_nu.append(to_matrices(kc))
        p_nu.append(to_matrices(pc))

    return CartanSplit(
        frequencies=spec.frequencies,
        k_plus=to_matrices(k0),
        p_plus=to_matrices(p0),
        k_nu=tuple(k_nu),
        p_nu=tuple(p_nu),
    )


def _positive_data(source) -> tuple:
    """(positive frequencies, positive p-multiplicities) from either an
    AdSpectrum or a CartanSplit."""
    return tuple(source.positive_frequencies), tuple(source.positive_mult_p)


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
    if any(c < 0 for c in comps):
        raise ParameterError("component norms must be non-negative")
    if not any(c > 0 for c in comps):
        raise ParameterError("at least one component norm must be positive")

    total = 0.0
    for freq, comp in zip(freqs, comps):
        if comp == 0.0:
            continue
        s = _sin_at(freq, t)
        total += (s * s) / (freq * freq) * comp
    return total


def _sin_at(freq: float, t) -> float:
    if isinstance(t, RationalAngle):
        k = round(freq)
        if abs(freq - k) <= BUCKET_TOL and k >= 1:
            return (t * int(k)).sin()
        return math.sin(freq * t.radians)
    return math.sin(freq * float(t))


def slice_dimension(source, t, eps: float | None = None) -> int:
    """Dimension of the slice at parameter t: the sum of dim p_nu over
    frequencies with sin(nu t) != 0. Accepts an AdSpectrum or a
    CartanSplit; t may be a float or a RationalAngle."""
    freqs, mults = _positive_data(source)
    tol = resolve_eps(eps)
    total = 0
    for freq, mult in zip(freqs, mults):
        if isinstance(t, RationalAngle):
            k = round(freq)
            if abs(freq - k) <= BUCKET_TOL and k >= 1:
                if not (t * int(k)).sin_is_zero:
                    total += mult
                continue
        if abs(math.sin(freq * (t.radians if isinstance(t, RationalAngle) else float(t)))) > tol:
            total += mult
    return int(total)


def classify_time(t, eps: float | None = None) -> str:
    """knot / centriole / regular for the slice at parameter t (knots at
    integer multiples of pi, centrioles halfway between)."""
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


def method_exact(family: SpaceFamily) -> int:
    """Least n >= 1 with the published membership condition at t = n*pi,
    found by exact search, times the covering multiplier."""
    bound = 4 * sum(family.params) + 8
    for n in range(1, bound + 1):
        if stated_membership(family, RationalAngle(n)):
            return n * family.cover_multiplier
    raise MembershipSearchError(
        f"{family}: no membership at t = n*pi for n <= {bound}"
    )


def method_numeric(space: SpaceInstance, xi, eps: float | None = None) -> int:
    """Least n >= 1 with exp(n*pi*xi) accepted by the isotropy predicate,
    times the covering multiplier.

    With D the least common denominator of the rational eigenphases of xi,
    exp(2*D*pi*xi) = I, so n_max = 2*D is a return. g = exp(pi*xi)
    generates a cyclic group and K is a group, so {n : g^n in K} is a
    subgroup lambda*Z of Z; it contains n_max, so lambda divides n_max.
    The same holds for the group families' predicate g^(2n) = I. The scan
    therefore tests only the divisors of n_max, in ascending order, each
    by its exponential and the isotropy predicate."""
    return _return_scan(space, *_eigh_anti_hermitian(xi, eps, "method_numeric"), eps)


def _divisors(n: int) -> list:
    """The positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _phase_lcm(w: np.ndarray) -> int:
    """Least common denominator of the eigenphases w, each identified with
    a rational by rationalize.

    Values within PHASE_CLUSTER_TOL of a cluster's first value share its
    fraction, so each cluster is rationalized once; every other member must
    lie within rationalize's tolerance of that fraction. Two distinct
    admissible phases are at least 1/(4096*4095) ~ 6e-8 apart, so one
    cluster never spans two of them. eigh returns w ascending, which keeps
    the clusters contiguous."""
    denominators = set()
    first = None
    for val in w.tolist():
        if first is None or abs(val - first) > PHASE_CLUSTER_TOL:
            first = val
            frac = rationalize(val)
            value = float(frac)
            denominators.add(frac.denominator)
        elif abs(value - val) > PHASE_TOL:
            raise RationalizationError(
                f"{val!r} is not within {PHASE_TOL} of {frac}, the phase of its cluster"
            )
    return math.lcm(*denominators)


def _return_scan(space: SpaceInstance, w: np.ndarray, v: np.ndarray, eps: float | None) -> int:
    """method_numeric's scan, from the eigendecomposition xi = i v diag(w) v*.

    {n : exp(n*pi*xi) in K} is a subgroup of Z that contains n_max = 2*D
    (D the least common denominator of the phases w), so its least
    positive element divides n_max: only the divisors are exponentiated
    and tested, in ascending order."""
    n_max = 2 * _phase_lcm(w)
    for n in _divisors(n_max):
        if isotropy_contains(space, _exp_eigh(w, v, n * math.pi), eps):
            return n * space.cover_multiplier
    raise MembershipSearchError(
        f"{space.family}: no return to the isotropy group within n_max = {n_max} "
        "(predicate inconsistent with the element)"
    )


def product_spindle(lambda1: int, lambda2: int) -> int:
    """Spindle number of a product with component values lambda1, lambda2."""
    l1, l2 = int(lambda1), int(lambda2)
    if l1 < 1 or l2 < 1:
        raise ParameterError(f"spindle numbers are >= 1, got {lambda1}, {lambda2}")
    return math.lcm(l1, l2)


def center_divisibility_check(lam: int, z: int) -> bool:
    """True iff lam divides 2z, and additionally divides z when odd."""
    l, order = int(lam), int(z)
    if l < 1 or order < 1:
        raise ParameterError(f"need positive integers, got lam={lam}, z={z}")
    if (2 * order) % l != 0:
        return False
    if l % 2 == 1 and order % l != 0:
        return False
    return True


def _is_scalar(a: np.ndarray, tol: float) -> bool:
    """True iff a is within tol of c*I, c the mean of its diagonal."""
    n = a.shape[0]
    return float(np.max(np.abs(a - np.trace(a) / n * np.eye(n)))) <= tol


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
    return _adjoint_flags(space, exp_generic(xi, math.pi, tol), tol)


def _adjoint_flags(space: SpaceInstance, g: np.ndarray, tol: float) -> tuple:
    """adjoint_conjugation_flags for the given g = exp(pi*xi)."""
    order_two = _is_scalar(g @ g, tol)
    commutes = _is_scalar(g.conj().T @ space.apply_sigma(g), tol)
    return order_two, commutes


def adjoint_space_check(
    space: SpaceInstance, xi, eps: float | None = None, require_canonical: bool = True
) -> bool:
    """Conjunction of the two adjoint-quotient criteria; by default the
    element must be canonical (pass require_canonical=False to probe the
    raw criteria, e.g. on xi/2 where the order-2 half fails)."""
    if require_canonical:
        spec = ad_spectrum(space, xi, eps)
        if not is_canonical(spec):
            raise NotCanonicalError(
                f"{space.family}: adjoint_space_check requires a canonical element"
            )
    order_two, commutes = adjoint_conjugation_flags(space, xi, eps)
    return order_two and commutes


@dataclass(frozen=True, eq=False)
class SpindleReport:
    """Everything the analysis of one (space, xi) produces."""

    family: SpaceFamily
    lambda_: int
    method_exact: int
    method_numeric: int
    frequencies: tuple
    mult_k: tuple
    mult_p: tuple
    dim_g: int
    dim_k: int
    dim_p: int
    orbit_dim: int
    extrinsically_symmetric: bool
    knot_times: tuple
    centriole_times: tuple
    slice_profile: tuple
    geodesic_length_over_norm: RationalAngle
    center_order: int | None
    cover_multiplier: int
    checks: Mapping

    def to_json_dict(self) -> dict:
        return {
            **_shared_json(self),
            "lambda": self.lambda_,
            "method_exact": self.method_exact,
            "method_numeric": self.method_numeric,
            "frequencies": [float(nu) for nu in self.frequencies],
            "mult_k": [int(v) for v in self.mult_k],
            "mult_p": [int(v) for v in self.mult_p],
            "dims": {
                "g": self.dim_g,
                "k": self.dim_k,
                "p": self.dim_p,
                "orbit": self.orbit_dim,
            },
            "extrinsically_symmetric": self.extrinsically_symmetric,
            "knot_times": [str(t) for t in self.knot_times],
            "centriole_times": [str(t) for t in self.centriole_times],
            "slice_profile": [
                {"t_over_pi": t.over_pi_text, "dim": dim} for t, dim in self.slice_profile
            ],
            "geodesic_length_over_norm": str(self.geodesic_length_over_norm),
            "checks": dict(self.checks),
        }


def _symmetric_about(values: np.ndarray, centers) -> bool:
    """True iff values are mirror-symmetric about each center index, as far
    as the array reaches on both sides of it."""
    for c in centers:
        r = min(c, len(values) - 1 - c)
        window = values[c - r : c + r + 1]
        if not np.array_equal(window, window[::-1]):
            return False
    return True


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

    # Knot lattice and slice profile on one grid: sixtieths of pi over
    # +-4 periods (index i is t = (i - 240)*pi/60). With unit components the
    # variation norm vanishes exactly on pi*Z; a slice counts dim p_nu for
    # each frequency with |sin(nu t)| > tol.
    k = np.arange(-240, 241)
    knot = k % 60 == 0
    nu = np.array(spec.positive_frequencies)
    sines = np.sin(nu * (k[:, None] * math.pi / 60.0))
    jacobi = (sines * sines / (nu * nu)).sum(axis=1)
    dims = (np.abs(sines) > tol) @ np.array(spec.positive_mult_p, dtype=int)
    checks["jacobi_zero_iff_knot"] = bool(np.array_equal(jacobi <= 1e-15, knot))
    checks["slice_zero_iff_knot"] = bool(np.array_equal(dims == 0, knot))
    checks["slice_constant_between_knots"] = (
        bool(np.all(dims[241:300] == spec.orbit_dim)) if ext_sym else None
    )
    checks["profile_symmetric_about_knots"] = _symmetric_about(dims, range(0, 481, 60))
    checks["profile_symmetric_about_centrioles"] = (
        _symmetric_about(dims, range(30, 481, 60)) if ext_sym else None
    )
    return checks


def spindle_number(space: SpaceInstance, xi=None, eps: float | None = None) -> SpindleReport:
    """Full spindle analysis of (space, xi); xi defaults to the family's
    canonical element. The exact and numeric methods must agree.

    eps is resolved once here (None reads SPINDLE_EPS) and passed down as
    a float. One eigendecomposition xi = i v diag(w) v* gives the
    spectrum (from root data), the return scan and g = exp(pi*xi), so the
    analysis is O(N^3) after build_space."""
    tol = resolve_eps(eps)
    if xi is None:
        xi = canonical_element(space.family)
    _require_tangent(space, xi, tol)
    w, v = _eigh_anti_hermitian(xi, tol, "spindle_number")

    spec, ext_sym = _root_spectrum(space, w, tol)
    if not is_canonical(spec):
        raise NotCanonicalError(
            f"{space.family}: spindle_number requires a canonical element, "
            f"got frequencies {spec.frequencies}"
        )

    exact = method_exact(space.family)
    numeric = _return_scan(space, w, v, tol)
    if exact != numeric:
        raise MethodDisagreementError(
            f"{space.family}: exact method gives {exact}, numeric scan gives {numeric}"
        )
    lam = exact

    knots = tuple(RationalAngle(n) for n in range(lam))
    centrioles = tuple(RationalAngle(2 * n + 1, 2) for n in range(lam))
    # The slice at t = k*pi/12 counts dim p_nu for each integer frequency
    # with sin(nu*t) != 0, that is with k*nu not a multiple of 12.
    nu = np.array(integer_frequencies(spec))
    dims = (np.arange(12 * lam + 1)[:, None] * nu % 12 != 0) @ np.array(spec.positive_mult_p)
    profile = tuple((RationalAngle(k, 12), int(dim)) for k, dim in enumerate(dims))

    g = _exp_eigh(w, v, math.pi)
    checks = _report_checks(space, g, spec, lam, ext_sym, exact, numeric, tol)
    return SpindleReport(
        family=space.family,
        lambda_=lam,
        method_exact=exact,
        method_numeric=numeric,
        frequencies=spec.frequencies,
        mult_k=spec.mult_k,
        mult_p=spec.mult_p,
        dim_g=space.dim_g,
        dim_k=space.k_dim,
        dim_p=space.p_dim,
        orbit_dim=spec.orbit_dim,
        extrinsically_symmetric=ext_sym,
        knot_times=knots,
        centriole_times=centrioles,
        slice_profile=profile,
        geodesic_length_over_norm=RationalAngle(lam),
        center_order=space.center_order,
        cover_multiplier=space.cover_multiplier,
        checks=checks,
    )
