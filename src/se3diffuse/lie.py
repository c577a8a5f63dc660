"""Exact SO(3)/SE(3) group algebra on unit quaternions.

Conventions used throughout the package:

* Quaternions are stored as ``(w, x, y, z)`` and kept on the canonical
  hemisphere ``w >= 0`` (``q`` and ``-q`` describe the same rotation).
* Twists are 6-vectors ``(nu, omega)`` with the linear part first, so the
  adjoint matrix has the block form ``[[R, [p]^ R], [0, R]]``.
* ``exp``/``log`` use the principal branch; rotation angles lie in
  ``[0, pi]`` and ``log_se3`` rejects angles within ``1e-6`` of ``pi``.

The module exposes a scalar object API (:class:`Rotation`, :class:`Pose`,
:class:`Twist`; ``exp_se3``, ``compose`` and ``inverse`` are batches of one)
plus array-level helpers (``quat_*``, ``se3_*``) on trailing-axis stacks over
the one component-first kernel of each operation (``_mul``, ``_exp_se3``,
...), which the vectorized samplers and scores call directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rotation",
    "Pose",
    "Twist",
    "exp_so3",
    "log_so3",
    "exp_se3",
    "log_se3",
    "compose",
    "inverse",
    "se3_compose",
    "se3_inverse",
    "apply",
    "adjoint",
    "adjoint_inv_transpose",
    "translation_pose",
    "random_rotation",
    "random_quats",
    "skew",
    "cross",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "quat_exp",
    "quat_log",
    "quat_angle",
    "quat_unit",
    "finite_poses",
    "quat_to_matrix",
    "quat_from_matrix",
]

SMALL_ANGLE = 1e-6
PI_BRANCH_TOL = 1e-6


# ---------------------------------------------------------------------------
# Quaternion kernels: each operation's arithmetic, once, on component-first
# stacks.  A scalar part w has any shape; a vector part, rotation vector or
# point has its 3 components on the first axis, broadcasting over the rest.
# The helpers below are layout adapters over these, and the Langevin step and
# the kernel frames call them directly.
# ---------------------------------------------------------------------------

# row-major entries of a rotation matrix from [diagonal, 2 (c - w v), 2 (c + w v)] rows
_MATRIX_ORDER = np.array([0, 5, 7, 8, 1, 3, 4, 6, 2])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the first axis in ``np.cross``'s order, the cyclic shifts as slices."""
    a = np.concatenate([a, a[:2]])
    b = np.concatenate([b, b[:2]])
    return a[1:4] * b[2:5] - a[2:5] * b[1:4]


def _norm(v: np.ndarray) -> np.ndarray:
    """Norm over the first axis, the squares summed in order as ``np.linalg.norm`` sums them."""
    return np.sqrt(np.add.reduce(v * v, axis=0))


def _mul(aw, av: np.ndarray, bw, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) parts of the Hamilton product (aw, av)(bw, bv)."""
    return aw * bw - np.add.reduce(av * bv, axis=0), (aw * bv + bw * av) + _cross(av, bv)


def _rotate(w, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x rotated by the unit quaternion (w, v): x + w t + v x t with t = 2 v x x."""
    t = 2.0 * _cross(v, x)
    return (x + w * t) + _cross(v, t)


def _small_angles(theta: np.ndarray) -> np.ndarray | None:
    """The mask theta < SMALL_ANGLE, or None when no angle is that small."""
    return theta < SMALL_ANGLE if np.fmin.reduce(theta, axis=None, initial=math.inf) < SMALL_ANGLE else None


def _exp(v: np.ndarray, theta: np.ndarray, small: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """exp(v) as (cos(theta/2), v sin(theta/2)/theta), theta = ``_norm(v)``.

    ``small`` is ``_small_angles(theta)``; its angles take a series, formed
    with every other angle set to 0, so that no large angle overflows it.  Call under
    ``np.errstate(invalid="ignore", divide="ignore")``: sin(0)/0 is NaN
    until the series replaces it.
    """
    half = 0.5 * theta
    coef = np.sin(half) / theta
    if small is not None:
        ts = np.where(small, theta, 0.0)
        coef = np.where(small, 0.5 - ts**2 / 48.0 + ts**4 / 3840.0, coef)
    return np.cos(half), coef * v


def _exp_se3(nu: np.ndarray, om: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, v, V nu): the ``_exp`` parts of exp(om) and the left Jacobian V at om applied to nu.

    V nu = nu + a om x nu + b om x (om x nu), with a = (1 - cos theta)/theta^2, b = (theta -
    sin theta)/theta^3 and their series below SMALL_ANGLE; call under ``np.errstate`` as ``_exp``.
    """
    theta = _norm(om)
    t2 = theta * theta
    a = (1.0 - np.cos(theta)) / t2
    b = (theta - np.sin(theta)) / (t2 * theta)
    small = _small_angles(theta)
    if small is not None:  # series below SMALL_ANGLE, elementwise
        a = np.where(small, 0.5 - t2 / 24.0, a)
        b = np.where(small, 1.0 / 6.0 - t2 / 120.0, b)
    wx = _cross(om, nu)
    w, v = _exp(om, theta, small)
    return w, v, (nu + a * wx) + b * _cross(om, wx)


def _log(w, v: np.ndarray) -> np.ndarray:
    """Principal rotation vector (angle in [0, pi]) of (w, v) flipped onto w >= 0."""
    flip = w < 0.0
    w = np.where(flip, -w, w)
    v = np.where(flip, -v, v)
    s = _norm(v)
    if np.fmin.reduce(s, axis=None, initial=math.inf) >= 1e-9:  # no small angle, so no mask and no 1/0
        return 2.0 * np.arctan2(s, w) / s * v
    small = s < 1e-9
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(small, 2.0 / np.where(w == 0.0, 1.0, w),
                        2.0 * np.arctan2(s, w) / np.where(small, 1.0, s))
    return coef * v


def _normalize(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A (4, ...) quaternion stack over its norms, into ``out`` if given."""
    return np.divide(q, _norm(q), out=out)


def _matrix(w, v: np.ndarray) -> np.ndarray:
    """(3, 3, ...) rotation matrices of (w, v), entry by entry; the sign of the quaternion cancels."""
    v5 = np.concatenate([v, v[:2]])
    vv = v5 * v5
    c = v5[1:4] * v5[2:5]  # (v1 v2, v2 v0, v0 v1)
    wv = w * v
    rows = np.concatenate([1.0 - 2.0 * (vv[1:4] + vv[2:5]), 2.0 * (c - wv), 2.0 * (c + wv)])
    return rows[_MATRIX_ORDER].reshape((3, 3) + rows.shape[1:])


# ---------------------------------------------------------------------------
# Array-level quaternion helpers.  All accept stacks with shape (..., 4) /
# (..., 3), broadcasting over the leading axes, and are pure; they do not
# canonicalize unless stated.  Results are C-contiguous.
# ---------------------------------------------------------------------------

def _first(*stacks: np.ndarray) -> list[np.ndarray]:
    """Trailing-axis stacks as contiguous component-first copies with one number of batch axes."""
    stacks = [np.asarray(a, dtype=np.float64) for a in stacks]
    batch = max(a.ndim for a in stacks) - 1
    return [np.ascontiguousarray(a.reshape((1,) * (batch + 1 - a.ndim) + a.shape)
                                 .transpose((batch,) + tuple(range(batch)))) for a in stacks]


def _last(x: np.ndarray, axes: int = 1) -> np.ndarray:
    """A stack with ``axes`` component axes first as a C-contiguous trailing-axis array."""
    return np.ascontiguousarray(x.transpose(tuple(range(axes, x.ndim)) + tuple(range(axes))))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of broadcasting 3-vector stacks, bitwise ``np.cross``."""
    return _last(_cross(*_first(a, b)))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion stacks."""
    a, b = _first(a, b)
    w, v = _mul(a[0], a[1:], b[0], b[1:])
    return _last(np.concatenate([w[None], v]))


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors by unit quaternions (broadcasting over stacks)."""
    q, v = _first(q, v)
    return _last(_rotate(q[0], q[1:], v))


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Exponential map from rotation vectors to unit quaternions."""
    [v] = _first(rotvec)
    theta = _norm(v)
    with np.errstate(invalid="ignore", divide="ignore"):
        w, v = _exp(v, theta, _small_angles(theta))
    return _last(np.concatenate([w[None], v]))


def quat_log(q: np.ndarray) -> np.ndarray:
    """Principal rotation vector of unit quaternions (angle in [0, pi])."""
    [q] = _first(q)
    return _last(_log(q[0], q[1:]))


def quat_angle(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi], insensitive to the quaternion sign.

    The norm of the vector part goes through squares, which underflow
    below about 1e-154; rows whose norm is below 1e-145 are scaled by
    their largest component first, so their angles survive down to the
    smallest subnormal, and every other row keeps the plain norm.
    """
    q = np.asarray(q, dtype=np.float64)
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    tiny = s < 1e-145
    if np.any(tiny):
        big = np.max(np.abs(v), axis=-1)
        scale = np.where(tiny & (big > 0.0), big, 1.0)
        s = np.where(tiny, scale * np.linalg.norm(v / scale[..., None], axis=-1), s)
    return 2.0 * np.arctan2(s, np.abs(q[..., 0]))


def quat_unit(q: np.ndarray) -> np.ndarray:
    """Rows normalized and sign-canonicalized; the ``Rotation`` constructor's rule.

    Divides by ``sqrt(q . q)``, which equals ``float(np.linalg.norm(q))``
    of a single row bit for bit (``np.linalg.norm(q, axis=-1)`` does not),
    then flips each row to w >= 0, and for w == 0 to a positive first
    nonzero vector component, on a C-contiguous copy (``np.vecdot`` sums others in another order).
    """
    q = np.ascontiguousarray(q, dtype=np.float64)
    q = q / np.sqrt(np.vecdot(q, q))[..., None]
    v = q[..., 1:]
    first = np.take_along_axis(v, np.argmax(v != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    flip = (q[..., 0] < 0.0) | ((q[..., 0] == 0.0) & (first < 0.0))
    return np.where(flip[..., None], -q, q)


def se3_compose(qa: np.ndarray, pa: np.ndarray, qb: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) of the products a b of pose stacks, the rotations renormalized by ``quat_unit``."""
    return quat_unit(quat_mul(qa, qb)), pa + quat_rotate(qa, pb)


def se3_inverse(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, p) of the inverses of a pose stack, the rotations renormalized by ``quat_unit``."""
    qi = quat_unit(quat_conj(q))
    return qi, -quat_rotate(qi, p)


def finite_poses(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, p, bad): the (N, 4) and (N, 3) stacks, a single (4,)/(3,) pose read as a
    batch of one, with each pose that has a non-finite entry, or a quaternion
    whose norm is off 1 by more than 1e-3 (the ``Rotation`` rule), set to the
    identity, and the (N,) mask of those poses, whose score rows are NaN.
    Stacks with no such pose come back as they are.  Stacks with different
    numbers of poses raise ``ValueError``.
    """
    qs = np.asarray(q, dtype=np.float64).reshape(-1, 4)
    ps = np.asarray(p, dtype=np.float64).reshape(-1, 3)
    if qs.shape[0] != ps.shape[0]:
        raise ValueError(f"need one translation per quaternion, got shapes {np.shape(q)} and {np.shape(p)}")
    q, p = qs, ps
    norm = np.sqrt(np.einsum("...j,...j->...", q, q))  # no overflow warning: a NaN, inf or overflowing norm fails
    bad = ~((np.abs(norm - 1.0) <= 1e-3) & np.logical_and.reduce(np.isfinite(p), axis=-1))
    if not bad.any():
        return q, p, bad
    return np.where(bad[:, None], [1.0, 0.0, 0.0, 0.0], q), np.where(bad[:, None], 0.0, p), bad


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return _last(_normalize(*_first(q)))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    [q] = _first(q)
    return _last(_matrix(q[0], q[1:]), 2)


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Quaternion from a rotation matrix via Shepperd's method.

    Picks the numerically largest of trace/diagonal branches, which keeps
    the axis extraction stable near a rotation angle of pi.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 rotation matrix")
    t = np.trace(m)
    if t > m[0, 0] and t > m[1, 1] and t > m[2, 2]:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array([0.5 * r, (m[2, 1] - m[1, 2]) * s,
                      (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = math.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        s = 0.5 / r
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (m[j, i] + m[i, j]) * s
        q[1 + k] = (m[k, i] + m[i, k]) * s
    return q


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix [v]^ with [v]^ u = v x u."""
    v = np.asarray(v, dtype=np.float64)
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Rotation:
    """Unit quaternion (w, x, y, z), canonicalized to w >= 0."""

    q: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _frozen(quat_unit(_checked_quat(self.q))))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_unit(q: np.ndarray) -> "Rotation":
        """Wrap a row of ``quat_unit`` as is, checked as the constructor checks.

        The constructor would divide by the norm again, which moves about a
        third of once-normalized quaternions by an ulp; stack code hands its
        rows out through this so that a scalar result is bitwise a row of
        the stack.
        """
        r = object.__new__(Rotation)
        object.__setattr__(r, "q", _frozen(_checked_quat(q)))
        return r

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        return Rotation(quat_from_matrix(m))

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(quat_mul(self.q, other.q))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        return Rotation(quat_conj(self.q))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return quat_rotate(self.q, np.asarray(v, dtype=np.float64))

    @property
    def angle(self) -> float:
        return float(quat_angle(self.q))

    def allclose(self, other: "Rotation", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.q, other.q, atol=atol) or
                    np.allclose(self.q, -other.q, atol=atol))


def _checked_quat(q: np.ndarray) -> np.ndarray:
    """A float64 copy of the 4-vector q; raises if it is non-finite or its norm is off 1 by more than 1e-3."""
    q = np.array(q, dtype=np.float64).reshape(4)
    n = math.hypot(*q.tolist())  # nan or inf for a non-finite entry
    if not math.isfinite(n):
        raise ValueError("non-finite quaternion")
    if abs(n - 1.0) > 1e-3:
        raise ValueError(f"quaternion norm {n:.6g} deviates from 1 by more than 1e-3")
    return q


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform g = (p, R): apply(g, x) = R x + p."""

    p: np.ndarray
    r: Rotation

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite translation")
        object.__setattr__(self, "p", _frozen(p))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), Rotation.identity())

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.r.matrix()
        m[:3, 3] = self.p
        return m

    def allclose(self, other: "Pose", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self.p, other.p, atol=atol)) and self.r.allclose(other.r, atol=atol)


@dataclass(frozen=True, eq=False)
class Twist:
    """se(3) tangent (nu, omega); linear part first."""

    nu: np.ndarray
    omega: np.ndarray

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=np.float64).reshape(3).copy()
        om = np.asarray(self.omega, dtype=np.float64).reshape(3).copy()
        object.__setattr__(self, "nu", _frozen(nu))
        object.__setattr__(self, "omega", _frozen(om))

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_array(a: np.ndarray) -> "Twist":
        a = np.asarray(a, dtype=np.float64).reshape(6)
        return Twist(a[:3], a[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.nu, self.omega])


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def exp_so3(omega: np.ndarray) -> Rotation:
    """Rotation by angle ||omega|| about omega/||omega||."""
    w = np.asarray(omega, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite rotation vector")
    return Rotation(quat_exp(w))


def log_so3(r: Rotation) -> np.ndarray:
    """Principal rotation vector; angle in [0, pi]."""
    return quat_log(r.q)


def _v_inv_coeff(theta: float) -> float:
    """Coefficient c of V^-1 = I - 1/2 [w]^ + c [w]^2."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    return (1.0 - 0.5 * theta * math.sin(theta) / (1.0 - math.cos(theta))) / (theta * theta)


def exp_se3(xi: Twist) -> Pose:
    """Group exponential; translation via the closed-form left Jacobian (``_exp_se3``)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w, v, p = _exp_se3(xi.nu, xi.omega)
    return Pose(p, Rotation.from_unit(quat_unit(np.concatenate([np.reshape(w, 1), v]))))


def log_se3(g: Pose) -> Twist:
    """Inverse of exp_se3 on the principal branch.

    Raises ValueError when the rotation angle is within 1e-6 of pi,
    where the branch is ambiguous.
    """
    theta = g.r.angle
    if theta >= math.pi - PI_BRANCH_TOL:
        raise ValueError(f"rotation angle {theta:.9f} too close to pi for a principal logarithm")
    w = log_so3(g.r)
    c = _v_inv_coeff(theta)
    wx = cross(w, g.p)
    nu = g.p - 0.5 * wx + c * cross(w, wx)
    return Twist(nu, w)


def compose(a: Pose, b: Pose) -> Pose:
    q, p = se3_compose(a.r.q, a.p, b.r.q, b.p)
    return Pose(p, Rotation.from_unit(q))


def inverse(a: Pose) -> Pose:
    q, p = se3_inverse(a.r.q, a.p)
    return Pose(p, Rotation.from_unit(q))


def apply(a: Pose, x: np.ndarray) -> np.ndarray:
    """Action on points; maps (3,) vectors or (N, 3) stacks."""
    x = np.asarray(x, dtype=np.float64)
    return quat_rotate(a.r.q, x) + a.p


def translation_pose(p: np.ndarray) -> Pose:
    return Pose(np.asarray(p, dtype=np.float64), Rotation.identity())


def adjoint(g: Pose) -> np.ndarray:
    """Adjoint matrix [[R, [p]^ R], [0, R]] acting on (nu, omega) twists."""
    rm = g.r.matrix()
    out = np.zeros((6, 6))
    out[:3, :3] = rm
    out[:3, 3:] = skew(g.p) @ rm
    out[3:, 3:] = rm
    return out


def adjoint_inv_transpose(g: Pose) -> np.ndarray:
    """[Ad_g]^-T = [[R, 0], [[p]^ R, R]]; transports score twists."""
    rm = g.r.matrix()
    out = np.zeros((6, 6))
    out[:3, :3] = rm
    out[3:, :3] = skew(g.p) @ rm
    out[3:, 3:] = rm
    return out


def random_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) Haar-uniform rotations, ``quat_unit`` of normalized ``standard_normal((n, 4))`` rows; the
    first k rows are k one-row draws, bit for bit.  A row of norm below 1e-12 is redrawn after the others."""
    z = rng.standard_normal((n, 4))
    norm2 = np.vecdot(z, z)
    while (small := norm2 < 1e-24).any():  # pragma: no cover - no seed is known to give one
        z[small] = rng.standard_normal((np.count_nonzero(small), 4))
        norm2 = np.vecdot(z, z)
    return quat_unit(z / np.sqrt(norm2)[:, None])


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation, a one-row ``random_quats`` draw."""
    return Rotation.from_unit(random_quats(rng, 1)[0])
