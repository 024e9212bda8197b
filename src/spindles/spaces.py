"""Catalog of the classical compact symmetric spaces and their isotropy data.

Twelve families are modeled. Eight are quotient types M = G/K:

    AI         SU(p+q)/SO(p+q)          orbit SO(p+q)/S(O(p)xO(q))
    AII        SU(2(p+q))/Sp(p+q)       orbit Sp(p+q)/Sp(p)xSp(q)
    AIII       SU(2n)/S(U(n)xU(n))      orbit U(n)
    BDI_rank1  SO(p+q)/SO(p)xSO(q)      orbit (S^(p-1)xS^(q-1))/Z2
    BDI_split  SO(2n)/SO(n)xSO(n)       orbit SO(n)
    DIII       SO(4n)/U(2n)             orbit U(2n)/Sp(n)
    CI         Sp(n)/U(n)               orbit U(n)/SO(n)
    CII        Sp(2n)/Sp(n)xSp(n)       orbit Sp(n)

and four are compact Lie groups viewed as symmetric spaces (G x G acting
by left and right translation, the involution swapping the factors):

    GRP_a      SU(p+q)                  orbit SU(p+q)/S(U(p)xU(q))
    GRP_bd     Spin(n)                  orbit SO(n)/(SO(2)xSO(n-2))
    GRP_c      Sp(n)                    orbit Sp(n)/U(n)
    GRP_d      Spin(2n)                 orbit SO(2n)/U(n)

Every fact about a family lives in its FamilySpec record in the _FAMILIES
table, in catalog order. FAMILY_TAGS and PQ_FAMILIES are read off the
table, and the public functions below look a family up there; adding a
family is one new record.

build_space does O(1) work: dimensions come from the formulas, and the
basis data is built on first use (see SpaceInstance).

Lie algebras are realized as anti-Hermitian complex matrices; compact
Sp(n) sits inside U(2n) via the standard J_n = [[0,-I_n],[I_n,0]]
embedding. Every sigma is M op(X) M* for a signed permutation M (I, J or
a signature) and op the identity or entrywise conjugation, so it is
applied as conj, block swaps or a sign flip, and no N x N matrix is built.
That form is checked: sigma_entries reads sigma's signed permutation of the
entry positions off the images of two probe matrices, and refuses a sigma
that mixes entries or conjugates some of them only.
The group families are realized on a single copy of the group's algebra:
the g x g swap structure is never materialized, and the geodesic
membership question collapses to the condition g^2 = I for g = exp(t*xi)
(the two exponentials exp(+-t*xi) commute). Each group family takes the
matrix realization of an auxiliary pair (GRP_a, GRP_c and GRP_d the
records of AI, CI and BDI_split; GRP_bd states BDI_rank1(1, n-1)) so that
the generic Cartan-split machinery applies. lambda and the knots are the
group's own; the k/p multiplicities, orbit dimension and slice profile
are the pair's, half the group's own (`analyze GRP_a 1 1` prints orbit=1
for S^2). Correcting them changes the group rows that the benchmark's
expected output records, so it waits for a change to the benchmark.
Spin groups are never constructed: spindle data is computed in SO(n) and
scaled by cover_multiplier = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import (
    CatalogInconsistencyError,
    DimensionMismatchError,
    NotUnitaryError,
    ParameterError,
)
from .linalg import (
    RationalAngle,
    _is_real,
    _is_unitary,
    _scalar_residual,
    check_integers,
    ensure_square,
    mat_to_vec,
    resolve_eps,
)


def _no_center(*_) -> tuple:
    return None, "not configured"


@dataclass(frozen=True)
class FamilySpec:
    """One family's facts. The callables take the family's parameters,
    (p, q) or (n,), as trailing positional arguments.

    The three lambda facts are written independently of each other:
    `identity_component` is the family's part of stated_membership's exact
    rule, `isotropy` decides a unitary matrix g numerically at tolerance
    tol, and `table_lambda` is the published value."""

    pq: bool  # parameters 1 <= p <= q, else a single n
    lower_bound: int  # least p + q, or least n
    ambient_dim: Callable[..., int]
    # The algebra g, from N (see _SU, _SO, _SP):
    # The orthonormal basis as its entry table (element, position, value):
    # SpaceInstance.basis_entries, from which every other basis form is derived.
    basis: Callable[[int], tuple]
    dim_g: Callable[[int], int]
    roots: Callable[[np.ndarray], np.ndarray]  # root rule, from eig(-i*xi)
    project: Callable[[np.ndarray], np.ndarray]  # orthogonal projector onto g
    # The involution, a map (x, *params) on a (..., N, N) stack into a new
    # array, built from conj, _j_conjugate and _sign_flip: no N x N matrix.
    sigma: Callable[..., np.ndarray]
    k_dim: Callable[..., int]  # dim of the fixed subalgebra k of sigma
    space_name: Callable[..., str]
    orbit_name: Callable[..., str]
    closed_form: str  # see linalg.exp_structured
    canonical: Callable[..., np.ndarray]
    isotropy: Callable[..., bool]  # (g, tol, *params)
    table_lambda: Callable[..., int]
    center: Callable[..., tuple] = _no_center  # (order or None, provenance note)
    cover: int = 1
    # K is the identity component SO(p)xSO(q) of the fixed group S(O(p)xO(q)).
    identity_component: bool = False


def _j_matrix(n: int) -> np.ndarray:
    """J_n = [[0, -I_n], [I_n, 0]], the complex/quaternionic structure."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _times_j(x: np.ndarray) -> np.ndarray:
    """x @ J_n = [x_2, -x_1] for the column halves x_1, x_2 of x (last two
    axes). J is a signed permutation, so this block swap is the product to the bit."""
    n = x.shape[-1] // 2
    return np.concatenate((x[..., n:], -x[..., :n]), axis=-1)


def _j_times(x: np.ndarray) -> np.ndarray:
    """J_n @ x = [-x_2; x_1] for the row halves x_1, x_2 of x (last two axes), to the bit."""
    n = x.shape[-2] // 2
    return np.concatenate((-x[..., n:, :], x[..., :n, :]), axis=-2)


def _j_conjugate(x: np.ndarray) -> np.ndarray:
    """J x J* = -J x J, J of the size of x, on the last two axes."""
    return -_j_times(_times_j(x))


def _signs(*sizes: int) -> np.ndarray:
    """+1 on the first block of sizes, -1 on the second, +1 on the third, ..."""
    return np.concatenate([np.full(m, (-1.0) ** i) for i, m in enumerate(sizes)])


def _signature(*sizes: int) -> np.ndarray:
    return np.diag(_signs(*sizes)).astype(complex)


def _sign_flip(x: np.ndarray, *sizes: int) -> np.ndarray:
    """S x S for S = diag(_signs(*sizes)), entrywise on the last two axes."""
    s = _signs(*sizes)
    return x * (s[:, None] * s)


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=complex)
    start = 0
    for b in blocks:
        out[start : start + b.shape[0], start : start + b.shape[0]] = b
        start += b.shape[0]
    return out


def _su_dim(m: int) -> int:
    return m * m - 1


def _so_dim(m: int) -> int:
    return m * (m - 1) // 2


def _sp_dim(big: int) -> int:
    """dim sp(n) = n(2n + 1), from big = 2n."""
    return big * (big + 1) // 2


# Bases as entry tables: each algebra lists its nonzero entries as groups
# of (element, row, col, value) arrays, and _entries joins them into the
# table (element, position r*N + c, value) that is the basis. The dense
# (dim g, N, N) tensor is one scatter of that table. Values at (j, k) and
# (k, j) of a pair element, one row per element: the real and the
# imaginary anti-Hermitian pair, and the real and the imaginary symmetric pair.
_ANTI_HERMITIAN = np.array([[1, -1], [1j, 1j]])
_SYMMETRIC = np.array([[1, 1], [1j, 1j]])
_RT2 = math.sqrt(2.0)


def _entries(m: int, groups) -> tuple:
    """The entries of the index groups as (element, position, value) arrays,
    position r*m + c, ordered by element and then by position."""
    e, r, c, v = (np.concatenate(parts) for parts in zip(*groups))
    position = r * m + c
    order = np.lexsort((position, e))
    return e[order], position[order], v[order]


def _join(left: np.ndarray, right: np.ndarray, size: int, order: np.ndarray | None = None) -> tuple:
    """(i, j): every pair of indices with left[i] == right[j], keys in
    range(size), i ascending and, for each i, j in the order `order` of
    right (np.argsort(right, kind="stable") when None)."""
    if order is None:
        order = np.argsort(right, kind="stable")
    count = np.bincount(right, minlength=size)
    start = np.cumsum(count) - count
    partners = count[left]
    i = np.repeat(np.arange(len(left)), partners)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(partners) - partners, partners)
    return i, order[np.repeat(start[left], partners) + offset]


def _key_sums(key: np.ndarray, terms: np.ndarray) -> tuple:
    """(keys, sums): the distinct keys, ascending, each with the sum of its
    terms taken in the order given from 0.0, as np.add.at sums them into
    zeros; the keys whose sum is 0.0 are left out."""
    keys, slot = np.unique(key, return_inverse=True)
    sums = np.bincount(slot, terms, minlength=len(keys))
    nonzero = sums != 0.0
    return keys[nonzero], sums[nonzero]


def _times_sparse(x: np.ndarray, m: tuple, width: int) -> np.ndarray:
    """x @ m.T for a (P, d) array x and the (width, d) array m given by its
    entries (rows, cols, values): each output entry (p, r) sums x[p, c] * v
    over the entries of row r in their order, by np.bincount, with no BLAS
    product, so the digits do not depend on the BLAS thread count. Rows
    of x are taken in chunks of about 2**15 terms, so no (P, nnz) array is built."""
    r, k, v = m
    p = len(x)
    out = np.empty((p, width))
    step = max(1, 2**15 // max(len(v), 1))
    for lo in range(0, p, step):
        chunk = x[lo : lo + step]
        key = np.arange(0, len(chunk) * width, width)[:, None] + r
        sums = np.bincount(key.ravel(), (chunk[:, k] * v).ravel(), minlength=len(chunk) * width)
        out[lo : lo + step] = sums.reshape(len(chunk), width)
    return out


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The connected components of the graph on range(n) with the symmetric
    edge list (rows, cols), as the least index of each vertex's component:
    each pass lowers every label to the least label among its neighbours,
    so the passes stop after the largest component's diameter."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        if np.array_equal(low, label):
            return label
        label = low


def _pair_group(n: int, start: int, values: np.ndarray, shift: int = 0) -> tuple:
    """The index group of one element per row (w, w') of values and pair
    j < k of range(n), numbered pair by pair from start: w at (j, k + shift)
    and w' at (k, j + shift)."""
    j, k = (np.repeat(ix, len(values)) for ix in np.triu_indices(n, 1))
    e = start + np.arange(len(j))
    w, w2 = np.resize(values, (len(j), 2)).T
    return np.r_[e, e], np.r_[j, k], np.r_[k, j] + shift, np.r_[w, w2]


def _su_basis(m: int) -> tuple:
    """Orthonormal basis of su(m) under <X,Y> = -Re tr(XY): the two
    anti-Hermitian pairs of each j < k over sqrt(2), then for l = 1..m-1 the
    diagonal direction i(1, ..., 1, -l, 0, ..., 0) over its norm sqrt(l + l^2)."""
    l, i = (ix[1:] for ix in np.tril_indices(m))
    diagonal = (m * (m - 1) + l - 1, i, i, 1j * np.where(i < l, 1.0, -l) / np.sqrt(l + l * l))
    return _entries(m, [_pair_group(m, 0, _ANTI_HERMITIAN / _RT2), diagonal])


def _so_basis(m: int) -> tuple:
    """Orthonormal basis of so(m): the real anti-Hermitian pair of each j < k over sqrt(2)."""
    return _entries(m, [_pair_group(m, 0, _ANTI_HERMITIAN[:1] / _RT2)])


def _sp_basis(big: int) -> tuple:
    """Orthonormal basis of sp(n) inside u(2n), big = 2n:
    X = [[P, Q], [-Q*, -P^T]] with P anti-Hermitian and Q complex symmetric.
    The tables give the top n rows, P = i E_jj / sqrt(2), the anti-Hermitian
    pairs of P over 2, Q = E_jj and i E_jj over sqrt(2), the symmetric pairs
    of Q over 2; each entry is mirrored into -P^T or -Q* below."""
    n = big // 2
    d, dd = np.arange(n), np.repeat(np.arange(n), 2)
    top = [
        (d, d, d, np.full(n, 1j) / _RT2),
        _pair_group(n, n, _ANTI_HERMITIAN / 2.0),
        (n * n + np.arange(2 * n), dd, dd + n, np.tile([1, 1j], n) / _RT2),
        _pair_group(n, n * n + 2 * n, _SYMMETRIC / 2.0, shift=n),
    ]
    e, r, c, v = (np.concatenate(parts) for parts in zip(*top))
    inner = c < n  # an entry of P, else of Q
    below = (e, c + n * inner, r + n * inner, np.where(inner, -v, -v.conj()))
    return _entries(big, [(e, r, c, v), below])


# Root rules (Fulton-Harris): the frequencies of ad(xi) on g from the
# eigenvalues w of -i*xi, one value r per real dimension of g. ad(xi) acts
# on the complexified algebra by i*r on each root vector, and a complex
# dimension there is a real dimension of g.


def _su_roots(w: np.ndarray) -> np.ndarray:
    """su(N): |w_j - w_k| for j < k twice (E_jk and E_kj), N - 1 zeros (the diagonal)."""
    j, k = np.triu_indices(len(w), 1)
    diff = np.abs(w[j] - w[k])
    return np.concatenate([np.zeros(len(w) - 1), diff, diff])


def _so_roots(w: np.ndarray) -> np.ndarray:
    """so(N), complexified the antisymmetric matrices: |w_j + w_k| for j < k."""
    j, k = np.triu_indices(len(w), 1)
    return np.abs(w[j] + w[k])


def _sp_roots(w: np.ndarray) -> np.ndarray:
    """sp(n), complexified J^-1 times the symmetric matrices: |w_j + w_k| for j <= k."""
    j, k = np.triu_indices(len(w))
    return np.abs(w[j] + w[k])


# Orthogonal projectors onto each algebra for the real pairing Re tr(X* Y),
# in which the basis is orthonormal: closed forms of
# from_coords(to_coords(x)), O(N^2) and with no basis.


def _u_project(x: np.ndarray) -> np.ndarray:
    """u(N): the anti-Hermitian part."""
    return (x - x.conj().T) / 2.0


def _su_project(x: np.ndarray) -> np.ndarray:
    """su(N): the anti-Hermitian part A less (tr A / N) I."""
    a = _u_project(x)
    return a - np.trace(a) / len(a) * np.eye(len(a))


def _so_project(x: np.ndarray) -> np.ndarray:
    """so(N): the real antisymmetric part."""
    return ((x - x.T) / 2.0).real


def _sp_project(x: np.ndarray) -> np.ndarray:
    """sp(n): (A + J A^T J)/2 for the anti-Hermitian part A. sp(n) is where
    A^T J + J A = 0, that is A = J A^T J, and A -> J A^T J is an orthogonal
    involution of u(2n)."""
    a = _u_project(x)
    return (a + _j_times(_times_j(a.T))) / 2.0


# Each algebra's facts, spread into the records of the families realized on it.
_SU = dict(basis=_su_basis, dim_g=_su_dim, roots=_su_roots, project=_su_project)
_SO = dict(basis=_so_basis, dim_g=_so_dim, roots=_so_roots, project=_so_project)
_SP = dict(basis=_sp_basis, dim_g=_sp_dim, roots=_sp_roots, project=_sp_project)


# Canonical elements of extrinsically symmetric type.


def _phase_element(p: int, q: int, copies: int = 1) -> np.ndarray:
    """i*diag(a I_p, b I_q), repeated `copies` times, a = -q/(p+q), b = p/(p+q)."""
    a = -q / (p + q)
    b = p / (p + q)
    diag = np.tile(np.concatenate([np.full(p, a), np.full(q, b)]), copies)
    return 1j * np.diag(diag).astype(complex)


def _rotation(p: int, m: int) -> np.ndarray:
    """The rank-one rotation E_{0,p} - E_{p,0} in so(m)."""
    xi = np.zeros((m, m), dtype=complex)
    xi[0, p] = 1.0
    xi[p, 0] = -1.0
    return xi


def _half_swap(n: int, blocks: int) -> np.ndarray:
    """i/2 times the block anti-diagonal matrix of `blocks` copies of I_n."""
    xi = np.zeros((blocks * n, blocks * n), dtype=complex)
    for row in range(blocks):
        col = blocks - 1 - row
        xi[row * n : (row + 1) * n, col * n : (col + 1) * n] = np.eye(n)
    return 0.5j * xi


# Isotropy predicates: membership of a unitary g in K at tolerance tol. g is
# a square complex matrix of the ambient size that isotropy_contains or the
# return scan has already validated; no predicate checks it again.


def _det_one(g: np.ndarray, tol: float) -> bool:
    return abs(np.linalg.det(g) - 1.0) <= max(tol, 1e-9)


def _commutes_diag(g: np.ndarray, s: np.ndarray, tol: float) -> bool:
    """g commutes with diag(s) for signs s within tol: g diag(s) - diag(s) g
    has the entries g_ij (s_j - s_i), the same floats as the products."""
    return float(np.max(np.abs(g * (s - s[:, None])))) <= tol


def _in_so_times_so(g: np.ndarray, tol: float, p: int, q: int) -> bool:
    """g in SO(p) x SO(q), block diagonal in the signature splitting."""
    return (
        _is_real(g, tol)
        and _commutes_diag(g, _signs(p, q), tol)
        and all(_det_one(block, tol) for block in (g[:p, :p], g[p:, p:]))
    )


def _j_intertwines(g: np.ndarray, h: np.ndarray, tol: float) -> bool:
    """g J = J h within tol, J of the size of g."""
    return float(np.max(np.abs(_times_j(g) - _j_times(h)))) <= tol


def _quaternionic(g: np.ndarray, tol: float, p: int, q: int) -> bool:
    """g commutes with the quaternionic structure: g J = J conj(g)."""
    return _j_intertwines(g, g.conj(), tol)


def _in_sp_times_sp(g: np.ndarray, tol: float, n: int) -> bool:
    """g symplectic for J_2n and commuting with the CII involution."""
    symplectic = float(np.max(np.abs(_times_j(g.T) @ g - _j_matrix(2 * n)))) <= tol
    return symplectic and _commutes_diag(g, _signs(n, n, n, n), tol)


def _squares_to_one(g: np.ndarray, tol: float, *_) -> bool:
    """Group families: exp(t xi) = exp(-t xi) iff g^2 = I."""
    return _scalar_residual(g @ g, 1.0) <= tol


def _phase_lambda(p: int, q: int) -> int:
    return (p + q) // math.gcd(p, q)


def _spin_center(n: int) -> tuple:
    if n % 2 == 1:
        return 2, f"center of Spin({n}) for odd n is Z_2"
    return 4, f"center of Spin({n}) for even n has order 4"


_PAIRS = {
    "AI": FamilySpec(
        pq=True, lower_bound=2, ambient_dim=lambda p, q: p + q,
        **_SU,
        sigma=lambda x, p, q: x.conj(),
        k_dim=lambda p, q: _so_dim(p + q),  # so(p+q)
        space_name=lambda p, q: f"SU({p + q})/SO({p + q})",
        orbit_name=lambda p, q: f"SO({p + q})/S(O({p})xO({q}))",
        closed_form="diagonal-phase", canonical=_phase_element,
        isotropy=lambda g, tol, p, q: _is_real(g, tol) and _det_one(g, tol),
        table_lambda=_phase_lambda,
        center=lambda p, q: (
            (3, "isometry group SU(6)/Z_2 has center of order 3") if p + q == 6 else _no_center()
        ),
    ),
    "AII": FamilySpec(
        pq=True, lower_bound=2, ambient_dim=lambda p, q: 2 * (p + q),
        **_SU,
        sigma=lambda x, p, q: _j_conjugate(x.conj()),
        k_dim=lambda p, q: _sp_dim(2 * (p + q)),  # sp(p+q)
        space_name=lambda p, q: f"SU({2 * (p + q)})/Sp({p + q})",
        orbit_name=lambda p, q: f"Sp({p + q})/Sp({p})xSp({q})",
        closed_form="diagonal-phase", canonical=lambda p, q: _phase_element(p, q, copies=2),
        isotropy=_quaternionic, table_lambda=_phase_lambda,
    ),
    "AIII": FamilySpec(
        pq=False, lower_bound=1, ambient_dim=lambda n: 2 * n,
        **_SU,
        sigma=lambda x, n: _sign_flip(x, n, n),
        k_dim=lambda n: 2 * n * n - 1,  # s(u(n)+u(n))
        space_name=lambda n: f"SU({2 * n})/S(U({n})xU({n}))",
        orbit_name=lambda n: f"U({n})",
        closed_form="half-angle", canonical=lambda n: _half_swap(n, 2),
        isotropy=lambda g, tol, n: _commutes_diag(g, _signs(n, n), tol) and _det_one(g, tol),
        table_lambda=lambda n: 2,
    ),
    "BDI_rank1": FamilySpec(
        # p + q = 2 would give the abelian SO(2).
        pq=True, lower_bound=3, ambient_dim=lambda p, q: p + q,
        **_SO,
        sigma=_sign_flip,
        k_dim=lambda p, q: _so_dim(p) + _so_dim(q),  # so(p)+so(q)
        space_name=lambda p, q: f"SO({p + q})/SO({p})xSO({q})",
        orbit_name=lambda p, q: f"(S^{p - 1}xS^{q - 1})/Z2",
        closed_form="rotation-block", canonical=lambda p, q: _rotation(p, p + q),
        isotropy=_in_so_times_so, table_lambda=lambda p, q: 2, identity_component=True,
    ),
    "BDI_split": FamilySpec(
        # n = 1 would give the abelian SO(2).
        pq=False, lower_bound=2, ambient_dim=lambda n: 2 * n,
        **_SO,
        sigma=lambda x, n: _sign_flip(x, n, n),
        k_dim=lambda n: 2 * _so_dim(n),  # so(n)+so(n)
        space_name=lambda n: f"SO({2 * n})/SO({n})xSO({n})",
        orbit_name=lambda n: f"SO({n})",
        closed_form="half-angle", canonical=lambda n: 0.5 * _j_matrix(n),
        isotropy=lambda g, tol, n: _in_so_times_so(g, tol, n, n),
        table_lambda=lambda n: 2 if n % 2 == 0 else 4, identity_component=True,
    ),
    "DIII": FamilySpec(
        pq=False, lower_bound=1, ambient_dim=lambda n: 4 * n,
        **_SO,
        sigma=lambda x, n: _j_conjugate(x),
        k_dim=lambda n: 4 * n * n,  # u(2n)
        space_name=lambda n: f"SO({4 * n})/U({2 * n})",
        orbit_name=lambda n: f"U({2 * n})/Sp({n})",
        closed_form="half-angle",
        canonical=lambda n: 0.5 * _block_diag(_j_matrix(n), -_j_matrix(n)),
        isotropy=lambda g, tol, n: _is_real(g, tol) and _j_intertwines(g, g, tol),
        table_lambda=lambda n: 2,
    ),
    "CI": FamilySpec(
        pq=False, lower_bound=1, ambient_dim=lambda n: 2 * n,
        **_SP,
        sigma=lambda x, n: _j_conjugate(x),
        k_dim=lambda n: n * n,  # u(n)
        space_name=lambda n: f"Sp({n})/U({n})",
        orbit_name=lambda n: f"U({n})/SO({n})",
        closed_form="half-angle", canonical=lambda n: 0.5j * _signature(n, n),
        isotropy=lambda g, tol, n: _is_real(g, tol) and _j_intertwines(g, g, tol),
        table_lambda=lambda n: 2,
    ),
    "CII": FamilySpec(
        pq=False, lower_bound=1, ambient_dim=lambda n: 4 * n,
        **_SP,
        sigma=lambda x, n: _sign_flip(x, n, n, n, n),
        k_dim=lambda n: 2 * _sp_dim(2 * n),  # sp(n)+sp(n)
        space_name=lambda n: f"Sp({2 * n})/Sp({n})xSp({n})",
        orbit_name=lambda n: f"Sp({n})",
        closed_form="half-angle", canonical=lambda n: _half_swap(n, 4),
        isotropy=_in_sp_times_sp, table_lambda=lambda n: 2,
    ),
}


def _group(pair: FamilySpec, **own) -> FamilySpec:
    """The group family on the matrix realization of `pair`, with the
    membership test g^2 = I. Its K is a whole fixed group, so
    identity_component is False (BDI_split's True would change GRP_d's lambda)."""
    return replace(pair, isotropy=_squares_to_one, identity_component=False, **own)


_FAMILIES = {
    **_PAIRS,
    "GRP_a": _group(
        _PAIRS["AI"], table_lambda=_phase_lambda,
        space_name=lambda p, q: f"SU({p + q})",
        orbit_name=lambda p, q: f"SU({p + q})/S(U({p})xU({q}))",
        center=lambda p, q: (p + q, f"center of the simply connected SU({p + q}) is Z_{p + q}"),
    ),
    "GRP_bd": FamilySpec(
        # n <= 2 would give the abelian SO(2) or less. The pair is
        # BDI_rank1(1, n - 1), stated here for its single parameter.
        pq=False, lower_bound=3, ambient_dim=lambda n: n,
        **_SO,
        sigma=lambda x, n: _sign_flip(x, 1, n - 1),
        k_dim=lambda n: _so_dim(n - 1),  # so(n-1)
        space_name=lambda n: f"Spin({n})",
        orbit_name=lambda n: f"SO({n})/(SO(2)xSO({n - 2}))",
        closed_form="rotation-block", canonical=lambda n: _rotation(1, n),
        isotropy=_squares_to_one, table_lambda=lambda n: 2, center=_spin_center, cover=2,
    ),
    "GRP_c": _group(
        _PAIRS["CI"], table_lambda=lambda n: 2,
        space_name=lambda n: f"Sp({n})",
        orbit_name=lambda n: f"Sp({n})/U({n})",
        center=lambda n: (2, f"center of Sp({n}) is Z_2"),
    ),
    "GRP_d": _group(
        _PAIRS["BDI_split"], table_lambda=lambda n: 4, cover=2,
        space_name=lambda n: f"Spin({2 * n})",
        orbit_name=lambda n: f"SO({2 * n})/U({n})",
        center=lambda n: _spin_center(2 * n),
    ),
}

FAMILY_TAGS = tuple(_FAMILIES)

# Families parametrized by a pair 1 <= p <= q; the rest take a single n.
PQ_FAMILIES = frozenset(tag for tag, spec in _FAMILIES.items() if spec.pq)


@dataclass(frozen=True)
class SpaceFamily:
    """A family tag plus its parameters, (p, q) or (n,) as FamilySpec.pq
    says. Construction is the one check of the tag, the arity, integrality
    and the bounds; ParameterError names what is wrong."""

    tag: str
    params: tuple

    def __post_init__(self):
        spec = _FAMILIES.get(self.tag)
        if spec is None:
            raise ParameterError(
                f"unknown family tag {self.tag!r}; expected one of {', '.join(FAMILY_TAGS)}"
            )
        params = check_integers(self.params, f"{self.tag}: parameters")
        object.__setattr__(self, "params", params)
        if len(params) != (2 if spec.pq else 1):
            arity = "two parameters p, q" if spec.pq else "a single parameter n"
            raise ParameterError(f"{self.tag} takes {arity}; got {len(params)}")
        if spec.pq:
            p, q = params
            if not (1 <= p <= q):
                raise ParameterError(f"{self.tag} requires 1 <= p <= q; got p={p}, q={q}")
            if p + q < spec.lower_bound:
                raise ParameterError(
                    f"{self.tag} requires p + q >= {spec.lower_bound} (SO(2) is abelian); "
                    f"got p={p}, q={q}"
                )
        else:
            n = params[0]
            if n < spec.lower_bound:
                raise ParameterError(
                    f"{self.tag} requires n >= {spec.lower_bound}; got n={n}"
                )

    @classmethod
    def make(cls, tag: str, *params: int) -> "SpaceFamily":
        return cls(tag, tuple(params))

    @property
    def _spec(self) -> FamilySpec:
        return _FAMILIES[self.tag]

    @property
    def closed_form(self) -> str:
        return self._spec.closed_form

    @property
    def ambient_dim(self) -> int:
        return self._spec.ambient_dim(*self.params)

    @property
    def cover_multiplier(self) -> int:
        return self._spec.cover

    def label(self) -> str:
        return f"{self.tag}({','.join(str(v) for v in self.params)})"

    def space_name(self) -> str:
        return self._spec.space_name(*self.params)

    def orbit_name(self) -> str:
        return self._spec.orbit_name(*self.params)

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True, eq=False, repr=False)
class SpaceInstance:
    """A realized symmetric space: ambient size, dimension split and
    group-theoretic side data, with the family's involution as _sigma.

    The basis data is built on first use, at most once per instance.
    basis_entries is the orthonormal basis of g: its nonzero entries as
    (element, position r*N + c, value) arrays, element by element, 1 to N
    per element, from the algebra's index tables. Every basis read goes
    through that table: to_coords and from_coords (and _gather and
    _scatter on stacks) are sums over it, O(nnz); the involution in those
    coordinates and the Gram matrix are joins of it with itself on entry
    positions (_join_terms); ad_matrix of the spindle module joins it on
    rows and on columns. The involution is cached as sigma_entries, the
    (rows, cols, values) of its nonzero sums, and sigma_eigh is its
    eigendecomposition, one small eigh per connected component of its
    nonzero pattern, with the eigenvectors as entries too. sigma_coords,
    the dense dim_g x dim_g matrix, basis_tensor, the (dim_g, N, N) array,
    and basis_vecs, its real flattenings, are scatters that no module of
    the package reads. dim_g, k_dim, p_dim, the tangency test and
    spindle_number need none of this."""

    family: SpaceFamily
    ambient_dim: int
    k_dim: int
    p_dim: int
    center_order: int | None
    center_provenance: str
    cover_multiplier: int

    @property
    def dim_g(self) -> int:
        return self.family._spec.dim_g(self.ambient_dim)

    @cached_property
    def basis_entries(self) -> tuple:
        return self.family._spec.basis(self.ambient_dim)

    @cached_property
    def basis_tensor(self) -> np.ndarray:
        element, position, value = self.basis_entries
        out = np.zeros((self.dim_g, self.ambient_dim**2), dtype=complex)
        out[element, position] = value
        return out.reshape(self.dim_g, self.ambient_dim, self.ambient_dim)

    @cached_property
    def basis_vecs(self) -> np.ndarray:
        return mat_to_vec(self.basis_tensor)

    def _sigma_positions(self) -> tuple:
        """sigma as a signed permutation of entry positions, (source, sign,
        conj): sigma(X).flat[i] = sign[i] * op(X.flat[source[i]]), op the
        entrywise conjugation if conj, else the identity. Read off the
        images of the probe P with P.flat[j] = j + 1, which such a sigma
        maps to sign * (source + 1), and of i*P, which it maps to +-i times that."""
        n2 = self.ambient_dim**2
        probe = np.arange(1.0, n2 + 1.0).reshape(self.ambient_dim, -1) + 0j
        image, image_i = (self._sigma(x).ravel() for x in (probe, 1j * probe))
        sign = np.sign(image.real)
        source = np.rint(np.abs(image.real)).astype(np.intp) - 1
        plain, conj = np.array_equal(image_i, 1j * image), np.array_equal(image_i, -1j * image)
        if not (
            np.array_equal(image, sign * (source + 1))
            and np.array_equal(np.sort(source), np.arange(n2))
            and plain != conj
        ):
            raise CatalogInconsistencyError(
                f"{self.family}: sigma is not a signed permutation of the matrix entries "
                "with one conjugation for all of them"
            )
        return source, sign, conj

    @cached_property
    def _position_order(self) -> np.ndarray:
        """The entries of basis_entries by position, stably (so by element
        within a position): the order that every join on positions reads."""
        return np.argsort(self.basis_entries[1], kind="stable")

    def _join_terms(self, source: np.ndarray, sign: np.ndarray, conj: bool) -> tuple:
        """(key, terms) of the dim_g x dim_g matrix of <B_e, T(B_f)> for the
        map T with T(X).flat[i] = sign[i] op(X.flat[source[i]]), op the
        entrywise conjugation if conj, else the identity: entry (e, f) is the
        sum, in order, of the terms at key e*dim_g + f.

        Those terms are Re conj(B_e[i]) sign[i] op(B_f[source[i]]) over the
        positions i where both are nonzero: a join of basis_entries with
        itself, each entry of B_e at i against every entry at source[i]. No
        image of the basis and no dense matrix is built."""
        element, position, value = self.basis_entries
        left, right = _join(source[position], position, len(source), self._position_order)
        image = value[right].conj() if conj else value[right]
        terms = (value[left].conj() * image).real * sign[position[left]]
        return element[left] * self.dim_g + element[right], terms

    def _gram_terms(self) -> tuple:
        """The (key, terms) of the Gram matrix <B_e, B_f>: _join_terms at the identity map."""
        n2 = self.ambient_dim**2
        return self._join_terms(np.arange(n2), np.ones(n2), False)

    @cached_property
    def sigma_entries(self) -> tuple:
        """The involution in coordinates as its nonzero entries (rows, cols,
        values), row by row and by column within a row: the sums of
        _join_terms at sigma's signed permutation of entry positions
        (_sigma_positions), each in the order np.add.at took them into a
        dense matrix. The basis is orthonormal for <X,Y> = -Re tr(XY), so the
        matrix is symmetric and orthogonal, and its trace must give the
        family's k_dim. Every reader of sigma on the checking and spectrum
        paths reads these entries."""
        d = self.dim_g
        key, values = _key_sums(*self._join_terms(*self._sigma_positions()))
        rows, cols = np.divmod(key, d)
        trace = float(np.sum(values[rows == cols]))
        k_dim_f = (d + trace) / 2.0
        if abs(k_dim_f - self.k_dim) > 1e-6:
            raise CatalogInconsistencyError(
                f"{self.family}: involution trace {trace} gives k-dimension {k_dim_f}, "
                f"not {self.k_dim}"
            )
        return rows, cols, values

    @cached_property
    def sigma_coords(self) -> np.ndarray:
        """The involution in coordinates as a dense dim_g x dim_g matrix,
        scattered from sigma_entries. No module of the package reads it;
        it serves callers that want the matrix itself."""
        rows, cols, values = self.sigma_entries
        out = np.zeros((self.dim_g, self.dim_g))
        out[rows, cols] = values
        return out

    @cached_property
    def sigma_eigh(self) -> tuple:
        """(w, v): the eigenvalues, ascending, of the symmetrized
        sigma_entries and the eigenvectors as the entries (rows, cols,
        values) of the matrix whose columns they are, column by column in
        the order of w; as np.linalg.eigh gives them, unchecked: verify
        reports a corrupted sigma_entries, and the d x d spectrum route
        refuses it.

        The involution is a signed permutation but on su's Cartan block, so
        the pattern of its symmetrized entries falls into small connected
        components (at most 31 elements up to parameter 8). The matrix is
        block diagonal over them, read with no threshold, and each
        component size takes one batched eigh of its blocks, gathered from
        the entries; each eigenvector is nonzero in its component only."""
        rows, cols, values = self.sigma_entries
        d = self.dim_g
        key, s = _key_sums(np.r_[rows * d + cols, cols * d + rows], np.r_[values, values])
        s /= 2.0
        rows, cols = np.divmod(key, d)
        label = _components(rows, cols, d)
        size = np.bincount(label, minlength=d)[label]
        members = np.lexsort((label, size))  # components by size, each in index order
        slot = np.empty(d, dtype=np.intp)
        slot[members] = np.arange(d)
        w = np.empty(d)
        entries = []
        start = 0
        for m in np.unique(size):
            block = members[start : start + np.count_nonzero(size == m)].reshape(-1, m)
            at = size[rows] == m
            local = slot[rows[at]] - start
            blocks = np.zeros(block.shape + (m,))
            blocks[local // m, local % m, (slot[cols[at]] - start) % m] = s[at]
            w_m, v_m = np.linalg.eigh(blocks)
            columns = np.arange(start, start + block.size).reshape(-1, m)
            w[columns] = w_m
            entries.append(
                [a.ravel() for a in np.broadcast_arrays(block[:, :, None], columns[:, None, :], v_m)]
            )
            start += block.size
        ascending = np.argsort(w, kind="stable")
        rank = np.empty(d, dtype=np.intp)
        rank[ascending] = np.arange(d)
        v_rows, v_cols, v_values = map(np.concatenate, zip(*entries))
        nonzero = v_values != 0.0
        v_rows, v_cols, v_values = v_rows[nonzero], rank[v_cols[nonzero]], v_values[nonzero]
        order = np.lexsort((v_rows, v_cols))
        return w[ascending], (v_rows[order], v_cols[order], v_values[order])

    def _matrix(self, x) -> np.ndarray:
        """x as a square matrix of the ambient size."""
        return self._sized(ensure_square(x))

    def _sized(self, m: np.ndarray) -> np.ndarray:
        """m, a matrix that ensure_square has passed, if it has the ambient size."""
        if m.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"{self.family}: expected size {self.ambient_dim}, got {m.shape[0]}"
            )
        return m

    def _sigma(self, m: np.ndarray) -> np.ndarray:
        """sigma on a matrix, or on each matrix of a (..., N, N) stack,
        without the checks of apply_sigma."""
        out = np.ascontiguousarray(self.family._spec.sigma(m, *self.family.params))
        # C order and +0.0 zeros, as the product M op(m) M* gave: the BLAS
        # products of verify's automorphism check and of _adjoint_flags see both.
        out += 0.0
        return out

    def apply_sigma(self, x) -> np.ndarray:
        return self._sigma(self._matrix(x))

    def to_coords(self, x) -> np.ndarray:
        """<B_e, x> = Re sum_i conj(B_e[i]) x[i], summed per element over basis_entries."""
        return self._gather(self._matrix(x)[None])[0]

    def from_coords(self, coords) -> np.ndarray:
        """sum_e coords[e] B_e, summed per position over basis_entries."""
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.dim_g,):
            raise DimensionMismatchError(
                f"{self.family}: expected {self.dim_g} coordinates (dim g), got shape {c.shape}"
            )
        return self._scatter(c[None])[0]

    def _gather(self, stack: np.ndarray) -> np.ndarray:
        """to_coords of each matrix of an (m, N, N) stack, as an (m, dim_g) array."""
        element, position, value = self.basis_entries
        m, d = len(stack), self.dim_g
        terms = (value.conj() * stack.reshape(m, -1)[:, position]).real
        key = np.arange(0, m * d, d)[:, None] + element
        return np.bincount(key.ravel(), terms.ravel(), minlength=m * d).reshape(m, d)

    def _scatter(self, coords: np.ndarray) -> np.ndarray:
        """from_coords of each row of an (m, dim_g) array, as an (m, N, N)
        stack. Only the nonzero coefficients are read: the table is sorted
        by element, so each one gathers its element's entries by offset,
        and each position sums its terms in element order."""
        element, position, value = self.basis_entries
        row, elem = np.nonzero(coords)
        per_element = np.bincount(element, minlength=self.dim_g)
        count = per_element[elem]
        k = np.repeat(np.arange(len(elem)), count)
        first = np.cumsum(per_element)[elem] - np.cumsum(count)  # start of elem, less k's offset
        entry = np.arange(len(k)) + np.repeat(first, count)
        m, n2 = len(coords), self.ambient_dim**2
        key = row[k] * n2 + position[entry]
        terms = coords[row, elem][k] * value[entry]
        out = np.empty(m * n2, dtype=complex)
        out.real = np.bincount(key, terms.real, minlength=m * n2)
        out.imag = np.bincount(key, terms.imag, minlength=m * n2)
        return out.reshape(m, self.ambient_dim, self.ambient_dim)

    def _elements(self, idx: np.ndarray) -> np.ndarray:
        """The basis elements B_idx as a (len(idx), N, N) stack."""
        unit = np.zeros((len(idx), self.dim_g))
        unit[np.arange(len(idx)), idx] = 1.0
        return self._scatter(unit)

    def _residual(self, m: np.ndarray) -> float:
        """Max-norm distance from m, a matrix that _matrix has passed, to g,
        through the algebra's orthogonal projector (the closed form of
        from_coords(to_coords(m)))."""
        return float(np.max(np.abs(m - self.family._spec.project(m))))

    def contains_tangent(self, x, eps: float | None = None) -> bool:
        """True iff x lies in p: in the algebra and sigma(x) = -x."""
        tol = resolve_eps(eps)
        return self._tangent(self._matrix(x), tol)

    def _tangent(self, m: np.ndarray, tol: float) -> bool:
        """contains_tangent for a matrix that _matrix has passed."""
        bound = tol * (1.0 + float(np.max(np.abs(m))))
        if self._residual(m) > bound:
            return False
        return float(np.max(np.abs(self._sigma(m) + m))) <= bound

    def __repr__(self) -> str:
        return (
            f"SpaceInstance({self.family.label()}, ambient={self.ambient_dim}, "
            f"dim_g={self.dim_g}, dim_k={self.k_dim}, dim_p={self.p_dim})"
        )


def build_space(family: SpaceFamily) -> SpaceInstance:
    """Assemble the matrix realization of a family member.

    The work is O(1): the dimensions and the center from the family's
    formulas. The basis and the involution in coordinates are left to the
    first caller that reads them."""
    spec = family._spec
    n_amb = family.ambient_dim
    k_dim = spec.k_dim(*family.params)
    order, provenance = spec.center(*family.params)
    return SpaceInstance(
        family=family,
        ambient_dim=n_amb,
        k_dim=k_dim,
        p_dim=spec.dim_g(n_amb) - k_dim,
        center_order=order,
        center_provenance=provenance,
        cover_multiplier=family.cover_multiplier,
    )


def canonical_element(family: SpaceFamily) -> np.ndarray:
    """The distinguished tangent element of extrinsically symmetric type,
    from FamilySpec.canonical (_phase_element, _half_swap, _rotation or J)."""
    return family._spec.canonical(*family.params)


def isotropy_contains(space: SpaceInstance, g, eps: float | None = None) -> bool:
    """Membership of a unitary g in the isotropy subgroup K (for group
    families: the condition g^2 = I equivalent to exp(t xi) = exp(-t xi))."""
    tol = resolve_eps(eps)
    m = space._matrix(g)
    if not _is_unitary(m, tol):
        raise NotUnitaryError(f"{space.family}: isotropy test requires a unitary matrix")
    family = space.family
    return family._spec.isotropy(m, tol, *family.params)


def stated_membership(family: SpaceFamily, phases, t: RationalAngle) -> bool:
    """Whether exp(t*xi) lies in K, in exact arithmetic from the eigenvalues
    of -i*xi alone, given as (Fraction, multiplicity) pairs in `phases`.

    For xi in p, sigma(exp(t*xi)) = exp(-t*xi), so exp(t*xi) is fixed by
    sigma iff exp(2*t*xi) = I, that is iff f*w is an integer for every
    phase w, f = t/pi (for the group families: g^2 = I). K is that fixed
    group but for BDI, whose K = SO(p)xSO(q) is its identity component:
    there the p-block determinant, (-1)^(f * the sum of the phases w > 0),
    must also be 1. With f = num/den in lowest terms, f*w is the integer
    q of divmod(num * w.numerator, den * w.denominator) when the remainder
    is 0, and the parity sums those q: the test stays in integers."""
    num, den = t.num, t.den
    turns = 0
    for w, m in phases:
        q, r = divmod(num * w.numerator, den * w.denominator)
        if r:
            return False
        if w.numerator > 0:
            turns += q * m
    return not (family._spec.identity_component and turns % 2)


def sweep_families(cap: int) -> Iterator[SpaceFamily]:
    """All valid families with every parameter <= cap, in catalog order."""
    if cap < 1:
        raise ParameterError(f"parameter cap must be >= 1, got {cap}")
    for tag, spec in _FAMILIES.items():
        if spec.pq:
            for p in range(1, cap + 1):
                for q in range(max(p, spec.lower_bound - p), cap + 1):
                    yield SpaceFamily(tag, (p, q))
        else:
            for n in range(spec.lower_bound, cap + 1):
                yield SpaceFamily(tag, (n,))


def _shared_json(space: SpaceInstance) -> dict:
    """The keys every serialized row starts with: catalog_entry's and
    SpindleReport.to_json_dict's, which passes its space."""
    family = space.family
    return {
        "family": family.tag,
        "params": list(family.params),
        "space": family.space_name(),
        "orbit": family.orbit_name(),
        "center_order": space.center_order,
        "cover_multiplier": space.cover_multiplier,
    }


def catalog_entry(space: SpaceInstance) -> dict:
    """JSON-ready description of one catalog row."""
    return {
        **_shared_json(space),
        "ambient_dim": space.ambient_dim,
        "dim_g": space.dim_g,
        "dim_k": space.k_dim,
        "dim_p": space.p_dim,
        "center_provenance": space.center_provenance,
        "closed_form": space.family.closed_form,
    }
