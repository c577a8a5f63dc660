"""Real irreducible representations of SO(3).

Basis convention
----------------
Each type-l space is spanned by the real solid harmonics of degree l in
Racah normalization, which makes ``sum_m Y_lm(u)^2 = 1`` on the unit
sphere.  Components are ordered ``[c0, c1, s1, ..., cl, sl]`` (cosine /
sine sectors), except l = 1 which is permuted to plain ``(x, y, z)`` so
that the degree-1 Wigner matrix is the rotation matrix itself.

Wigner-D matrices come from that same basis by steerability,
``Y_l(R u) = D_l(R) Y_l(u)``: D_0 = [[1]], D_1 is the rotation matrix,
and for l >= 2, ``D_l(R) = (pinv(Y_l(U)) Y_l(R U))^T`` over a fixed,
seeded set U of 64 unit directions (``cond(Y_l(U)) < 2`` for l <= 6).
``wigner_d`` takes a ``Rotation`` or a stack of quaternions.  Harmonics
and Wigner-D matrices reduce each row on its own instead of through
BLAS, so a row's bits do not depend on the batch it comes in.
``sh_stack`` evaluates any tuple of degrees in one pass over (3, N)
coordinate rows, from a plan cached per degree tuple; ``sh_batch`` is
its one-degree case in the (N, 3) row layout.

Clebsch-Gordan contraction to type 1 uses coefficient tensors in closed
form: the Fischer product of one harmonic with the gradient of the other
(the cross product of both gradients when l1 = l2), at unit Frobenius
norm; each tensor is verified against the equivariance identity before
being cached.  ``cg_path_batch`` contracts every path into one (rows, paths,
3) tensor; ``cg_contract_batch`` sums it with the path weights.  In
this normalization the 0 x 1 -> 1 path contracts a scalar a and a
vector u to ``a * u / sqrt(3)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .lie import Rotation, quat_normalize, quat_to_matrix

__all__ = [
    "L_MAX_IRREPS",
    "IrrepsLayout",
    "IrrepsVector",
    "wigner_d",
    "rep_apply",
    "rep_apply_batch",
    "spherical_harmonics",
    "sh_batch",
    "sh_stack",
    "cg_contract_to1",
    "cg_contract_batch",
    "cg_path_batch",
    "cg_tensor",
    "cg_paths",
]

L_MAX_IRREPS = 6
_N_STEER = 64  # directions that pin D_l down by steerability
_STEER_SEED = 0


# ---------------------------------------------------------------------------
# Real solid harmonic polynomials in monomial form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomials(l: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (a, b, c) with a + b + c = l, lexicographic."""
    out = []
    for a in range(l, -1, -1):
        for b in range(l - a, -1, -1):
            out.append((a, b, l - a - b))
    return tuple(out)


def _poly_add(poly: dict, mono: tuple[int, int, int], coeff: float) -> None:
    if coeff != 0.0:
        poly[mono] = poly.get(mono, 0.0) + coeff


def _r2k_expansions(k: int) -> list[tuple[tuple[int, int, int], float]]:
    """Monomial expansion of (x^2+y^2+z^2)^k."""
    out = []
    for i in range(k + 1):
        for j in range(k - i + 1):
            h = k - i - j
            c = math.factorial(k) / (math.factorial(i) * math.factorial(j) * math.factorial(h))
            out.append(((2 * i, 2 * j, 2 * h), float(c)))
    return out


def _sector_poly(l: int, m: int, sine: bool) -> dict:
    """A_m (cosine) or B_m (sine) sector polynomial in x, y."""
    cs = [1.0, 0.0, -1.0, 0.0]  # cos(j pi / 2)
    sn = [0.0, 1.0, 0.0, -1.0]  # sin(j pi / 2)
    poly: dict = {}
    for p in range(m + 1):
        trig = sn[(m - p) % 4] if sine else cs[(m - p) % 4]
        if trig != 0.0:
            _poly_add(poly, (p, m - p, 0), math.comb(m, p) * trig)
    return poly


def _solid_harmonic(l: int, m: int, sine: bool) -> dict:
    """Racah-normalized real solid harmonic as a monomial dict."""
    norm = math.sqrt((1.0 if (m == 0 and not sine) else 2.0)
                     * math.factorial(l - m) / math.factorial(l + m))
    sector = _sector_poly(l, m, sine)
    poly: dict = {}
    for k in range((l - m) // 2 + 1):
        gamma = ((-1.0) ** k / 2.0 ** l * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
                 * math.factorial(l - 2 * k) / math.factorial(l - 2 * k - m))
        if gamma == 0.0:
            continue
        zpow = l - 2 * k - m
        for (ri, rj, rh), rc in _r2k_expansions(k):
            for (sa, sb, _), sc in sector.items():
                _poly_add(poly, (ri + sa, rj + sb, rh + zpow), norm * gamma * rc * sc)
    return poly


@lru_cache(maxsize=None)
def _basis_coeffs(l: int) -> np.ndarray:
    """(2l+1, n_monomials) coefficient matrix of the basis polynomials."""
    if l > L_MAX_IRREPS:
        raise ValueError(f"l={l} exceeds L_MAX_IRREPS={L_MAX_IRREPS}")
    monos = _monomials(l)
    index = {m: i for i, m in enumerate(monos)}
    polys = [_solid_harmonic(l, 0, False)]
    for m in range(1, l + 1):
        polys.append(_solid_harmonic(l, m, False))
        polys.append(_solid_harmonic(l, m, True))
    if l == 1:
        polys = [polys[1], polys[2], polys[0]]  # (x, y, z) ordering
    out = np.zeros((2 * l + 1, len(monos)))
    for row, poly in enumerate(polys):
        for mono, c in poly.items():
            out[row, index[mono]] = c
    return out


@lru_cache(maxsize=None)
def _steering(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed unit directions U (N, 3) and pinv(Y_l(U)) (2l+1, N)."""
    u = np.random.default_rng(_STEER_SEED).standard_normal((_N_STEER, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pinv = np.linalg.pinv(sh_batch(l, u))
    u.setflags(write=False)
    pinv.setflags(write=False)
    return u, pinv


def wigner_d(l: int, r: Rotation | np.ndarray) -> np.ndarray:
    """Real Wigner-D matrices of degree l, orthogonal, with D_1(R) = R.

    ``r`` is a ``Rotation`` (a batch of one) or an (..., 4) quaternion
    stack; the result is (..., 2l+1, 2l+1).
    """
    if l > L_MAX_IRREPS:
        raise ValueError(f"l={l} exceeds L_MAX_IRREPS={L_MAX_IRREPS}")
    q = np.asarray(r.q if isinstance(r, Rotation) else r, dtype=np.float64)
    if l == 0:
        return np.ones(q.shape[:-1] + (1, 1))
    m = quat_to_matrix(q)
    if l == 1:
        return m
    u, pinv = _steering(l)
    # rows of Y_l(R U) are Y_l(R u) = D_l(R) Y_l(u), i.e. Y_l(U) D_l(R)^T
    ru = np.sum(m[..., None, :, :] * u[:, None, :], axis=-1)  # (..., N, 3)
    y = sh_batch(l, ru.reshape(-1, 3)).reshape(ru.shape[:-1] + (2 * l + 1,))
    return np.sum(np.swapaxes(y, -1, -2)[..., :, None, :] * pinv, axis=-1)


# ---------------------------------------------------------------------------
# Layouts and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrepsLayout:
    """Ordered (l, multiplicity) blocks; total dim = sum mult * (2l+1)."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = tuple((int(l), int(m)) for l, m in self.blocks)
        for l, m in blocks:
            if l < 0 or m <= 0:
                raise ValueError("need l >= 0 and multiplicity >= 1")
            if l > L_MAX_IRREPS:
                raise ValueError(f"l={l} exceeds L_MAX_IRREPS={L_MAX_IRREPS}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(m * (2 * l + 1) for l, m in self.blocks)

    def slots(self) -> list[int]:
        """Type of every multiplicity slot, in storage order."""
        out = []
        for l, m in self.blocks:
            out.extend([l] * m)
        return out

    def slot_offsets(self) -> list[tuple[int, int]]:
        """(l, coefficient offset) per multiplicity slot."""
        out = []
        off = 0
        for l, m in self.blocks:
            for _ in range(m):
                out.append((l, off))
                off += 2 * l + 1
        return out


@dataclass(frozen=True, eq=False)
class IrrepsVector:
    layout: IrrepsLayout
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64).reshape(-1).copy()
        if c.size != self.layout.dim:
            raise ValueError(f"coefficient length {c.size} != layout dim {self.layout.dim}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def rep_apply(layout: IrrepsLayout, r: Rotation, v: IrrepsVector) -> IrrepsVector:
    """Block-diagonal action of the rotation on every irrep slot."""
    if v.layout != layout:
        raise ValueError("vector layout does not match")
    return IrrepsVector(layout, rep_apply_batch(layout, r.q[None, :], v.coeffs[None, None, :])[0, 0])


def rep_apply_batch(layout: IrrepsLayout, q: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rotation q[i] acting on rows coeffs[i] of (N, M, dim); one Wigner-D stack per block."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] != layout.dim:
        raise ValueError("coefficient rows do not match the layout dimension")
    out = np.empty_like(coeffs)
    off = 0
    for l, mult in layout.blocks:
        d = 2 * l + 1
        dm_t = np.swapaxes(wigner_d(l, q), -1, -2)[:, None]  # (N, 1, d, d)
        block = coeffs[..., off:off + mult * d].reshape(coeffs.shape[:2] + (mult, d))
        out[..., off:off + mult * d] = (block @ dm_t).reshape(coeffs.shape[:2] + (mult * d,))
        off += mult * d
    return out


def spherical_harmonics(l: int, u: np.ndarray) -> np.ndarray:
    """Real spherical harmonics with unit Euclidean norm per l.

    ``u`` must be a unit vector (within 1e-9).  Consistent with wigner_d:
    Y_l(R u) = D_l(R) Y_l(u), and Y_1(u) = u.  A batch of one of
    ``sh_batch``.
    """
    u = np.asarray(u, dtype=np.float64).reshape(3)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return sh_batch(l, u[None, :])[0]


@lru_cache(maxsize=None)
def _sh_terms(l: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per harmonic, its nonzero (monomial index, coefficient) terms."""
    return tuple(tuple((int(m), float(row[m])) for m in np.flatnonzero(row))
                 for row in _basis_coeffs(l))


@lru_cache(maxsize=None)
def _sh_plan(degrees: tuple[int, ...]) -> tuple:
    """The evaluation plan of ``sh_stack`` for one degree tuple.

    The tuples in use are single degrees and the slot degrees of layouts,
    so the cache stays small.  Returns (n_entries, steps, take, coef,
    sums, order).  Entry rows 0-3 hold x, y, z and ones; every later row is
    the product of two earlier rows, and ``steps`` forms one generation of
    them per (rows, left, right).  ``take``/``coef`` give each harmonic's
    terms, position-major with the harmonics sorted by term count (most
    first), so term position k adds rows ``offset:offset + count``, its
    entry in ``sums``, into rows ``:count``; ``order`` puts the harmonics back in
    the requested order, a repeated degree's (evaluated once) again.

    A monomial x^a y^b z^c is ``(X_a * Y_b) * Z_c`` over its nonzero
    factors, with X_1 = x and X_e = X_(e-1) * x, and degrees share the
    products they have in common.
    """
    rows = {"x": 0, "y": 1, "z": 2, "one": 3}
    gen = [0, 0, 0, 0]
    factors: dict[int, tuple[int, int]] = {}

    def product(i: int, j: int) -> int:
        key = ("mul", i, j)
        if key not in rows:
            rows[key] = len(gen)
            gen.append(1 + max(gen[i], gen[j]))
            factors[rows[key]] = (i, j)
        return rows[key]

    def power(axis: str, e: int) -> int:
        return rows[axis] if e == 1 else product(power(axis, e - 1), rows[axis])

    columns, first = [], {}
    for l in dict.fromkeys(degrees):  # each distinct degree once, in order of appearance
        first[l] = len(columns)
        monos = []
        for exps in _monomials(l):
            mono = [power(axis, e) for axis, e in zip("xyz", exps) if e] or [rows["one"]]
            monos.append(reduce(product, mono))
        columns.extend([(monos[m], c) for m, c in terms] for terms in _sh_terms(l))
    # renumber the products generation by generation, each generation one block of rows
    later = sorted(factors, key=lambda k: (gen[k], k))
    new = {k: k for k in range(4)} | {k: 4 + n for n, k in enumerate(later)}
    steps, start = [], 4
    for g in sorted({gen[k] for k in later}):
        block = [k for k in later if gen[k] == g]
        steps.append((slice(start, start + len(block)),
                      np.array([new[factors[k][0]] for k in block], dtype=np.intp),
                      np.array([new[factors[k][1]] for k in block], dtype=np.intp)))
        start += len(block)
    by_count = sorted(range(len(columns)), key=lambda c: -len(columns[c]))
    take, coef, sums = [], [], []
    for pos in range(max((len(c) for c in columns), default=0)):
        cols = [c for c in by_count if len(columns[c]) > pos]
        if pos:
            sums.append((len(take), len(cols)))
        take.extend(new[columns[c][pos][0]] for c in cols)
        coef.extend(columns[c][pos][1] for c in cols)
    coef = np.array(coef).reshape(-1, 1)
    take = np.array(take, dtype=np.intp)
    order = np.argsort(by_count)[[first[l] + m for l in degrees for m in range(2 * l + 1)]]
    for arr in (take, coef, order, *(ix for _, i, j in steps for ix in (i, j))):
        arr.setflags(write=False)
    return len(gen), tuple(steps), take, coef, tuple(sums), order


def sh_stack(degrees: tuple[int, ...], ut: np.ndarray) -> np.ndarray:
    """Harmonics of every degree in ``degrees``, for (3, N) coordinate rows of unit directions.

    Returns (sum(2l+1), N), one row per harmonic, degree blocks in the
    order given; a degree may repeat, and is evaluated once.  Monomials come from coordinate
    products, one generation at a time, each product rounded exactly as in
    a per-degree evaluation (so ``**`` and its per-element ``pow`` never
    run), and every harmonic adds its nonzero coefficient-times-monomial
    terms in monomial order, elementwise, so a direction's bits do not
    depend on the batch it comes in or on the other degrees beside it.
    """
    n_entries, steps, take, coef, sums, order = _sh_plan(tuple(degrees))
    ent = np.empty((n_entries, ut.shape[1]))
    ent[:3] = ut
    ent[3] = 1.0
    for dst, i, j in steps:
        np.multiply(ent.take(i, axis=0), ent.take(j, axis=0), out=ent[dst])
    terms = ent.take(take, axis=0)
    del ent  # freed before the final gather, so at most two of the pass's arrays are alive at once
    terms *= coef
    for offset, count in sums:
        terms[:count] += terms[offset:offset + count]
    return terms.take(order, axis=0)


def sh_batch(l: int, u: np.ndarray) -> np.ndarray:
    """Real spherical harmonics of degree l for (N, 3) unit directions, ``sh_stack`` transposed."""
    return np.ascontiguousarray(sh_stack((l,), np.asarray(u, dtype=np.float64).T).T)


# ---------------------------------------------------------------------------
# Clebsch-Gordan contraction to type 1
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _grad(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-l harmonic gradients (3, 2l+1, n) over the n monomials x^a y^b z^c of degree l-1, and a! b! c!."""
    coeffs, lower = _basis_coeffs(l), _monomials(l - 1)
    index = {m: i for i, m in enumerate(lower)}
    out = np.zeros((3, 2 * l + 1, len(lower)))
    for k, mono in enumerate(_monomials(l)):
        for a in np.flatnonzero(mono):
            out[a, :, index[tuple(e - (i == a) for i, e in enumerate(mono))]] = mono[a] * coeffs[:, k]
    return out, np.array([math.prod(map(math.factorial, m)) for m in lower], dtype=np.float64)


@lru_cache(maxsize=None)
def cg_tensor(l1: int, l2: int) -> np.ndarray:
    """Real CG tensor C with shape (3, 2l1+1, 2l2+1) for l1 x l2 -> 1, in closed form.

    With the rotation-invariant Fischer product <p, q> = sum a! b! c! p_m q_m
    over the monomials m = x^a y^b z^c, under which d/dx_a is the adjoint of
    multiplication by x_a, C[:, i, j] for harmonics f_i and g_j of degrees l1
    and l2 is <f_i, grad g_j> if l2 = l1 + 1, <grad f_i, g_j> if l1 = l2 + 1,
    and C_a = sum_bc eps_abc <d_b g_j, d_c f_i> if l1 = l2; at unit Frobenius norm.
    """
    if not (abs(l1 - l2) <= 1 <= l1 + l2):
        raise ValueError(f"no type-1 path for l1={l1}, l2={l2}")
    if l2 == l1 + 1:
        c = np.einsum("im,ajm,m->aij", _basis_coeffs(l1), *_grad(l2))
    elif l1 == l2 + 1:
        c = np.einsum("aim,m,jm->aij", *_grad(l1), _basis_coeffs(l2))
    else:
        dots = np.einsum("bjm,m,cim->bcij", *_grad(l1), _grad(l1)[0])  # <d_b g_j, d_c f_i>, g = f
        c = np.stack([dots[b, c] - dots[c, b] for b, c in ((1, 2), (2, 0), (0, 1))])
    c /= np.linalg.norm(c)
    _verify_cg(c, l1, l2)
    c.setflags(write=False)
    return c


def _verify_cg(c: np.ndarray, l1: int, l2: int) -> None:
    q = quat_normalize(np.random.default_rng(20240331).standard_normal((4, 4)))
    da, db, dc = wigner_d(1, q), wigner_d(l1, q), wigner_d(l2, q)
    lhs = np.einsum("aij,nik,njl->nakl", c, db, dc)
    rhs = np.einsum("nab,bij->naij", da, c)
    if not np.allclose(lhs, rhs, atol=1e-10):
        raise RuntimeError(f"CG tensor ({l1},{l2}) failed equivariance verification")


def cg_paths(layout_a: IrrepsLayout, layout_b: IrrepsLayout) -> list[tuple[int, int]]:
    """Slot-index pairs (i, j) admitting a type-1 path, in deterministic order."""
    sa, sb = layout_a.slots(), layout_b.slots()
    return [(i, j) for i in range(len(sa)) for j in range(len(sb))
            if abs(sa[i] - sb[j]) <= 1 <= sa[i] + sb[j]]


def cg_path_batch(layout_a: IrrepsLayout, a: np.ndarray,
                  layout_b: IrrepsLayout, b: np.ndarray) -> np.ndarray:
    """(M, n_paths, 3) type-1 contraction of (M, dim_a) x (M, dim_b) rows per path."""
    offs_a, offs_b = layout_a.slot_offsets(), layout_b.slot_offsets()
    paths = cg_paths(layout_a, layout_b)
    out = np.empty((a.shape[0], len(paths), 3))
    for k, (i, j) in enumerate(paths):
        (la, oa), (lb, ob) = offs_a[i], offs_b[j]
        out[:, k] = np.einsum("aij,mi,mj->ma", cg_tensor(la, lb),
                              a[:, oa:oa + 2 * la + 1], b[:, ob:ob + 2 * lb + 1])
    return out


def cg_contract_batch(layout_a: IrrepsLayout, a: np.ndarray,
                      layout_b: IrrepsLayout, b: np.ndarray,
                      path_weights: np.ndarray) -> np.ndarray:
    """Weighted sum of all type-1 CG contractions, row by row.

    (M, dim_a) x (M, dim_b) coefficient rows -> (M, 3).  Equivariant:
    cg(D a, D b) = R cg(a, b).  One weight per path in the order produced
    by :func:`cg_paths`.
    """
    weights = np.asarray(path_weights, dtype=np.float64).reshape(-1)
    per_path = cg_path_batch(layout_a, a, layout_b, b)
    if weights.size != per_path.shape[1]:
        raise ValueError(f"expected {per_path.shape[1]} path weights, got {weights.size}")
    return np.sum(per_path * weights[:, None], axis=1)


def cg_contract_to1(v: IrrepsVector, w: IrrepsVector, path_weights: np.ndarray) -> np.ndarray:
    """``cg_contract_batch`` of one pair of irreps vectors, as a 3-vector."""
    return cg_contract_batch(v.layout, v.coeffs[None, :], w.layout, w.coeffs[None, :],
                             path_weights)[0]
