"""Exact SO(3)/SE(3) group algebra on unit quaternions.

Conventions used throughout the package:

* Quaternions are stored as ``(w, x, y, z)`` and kept on the canonical
  hemisphere ``w >= 0`` (``q`` and ``-q`` describe the same rotation).
* Twists are 6-vectors ``(nu, omega)`` with the linear part first, so the
  adjoint matrix has the block form ``[[R, [p]^ R], [0, R]]``.
* ``exp``/``log`` use the principal branch; rotation angles lie in
  ``[0, pi]`` and ``log_se3`` rejects angles within ``1e-6`` of ``pi``.

The module exposes a scalar object API (:class:`Rotation`, :class:`Pose`,
:class:`Twist`) plus array-level quaternion helpers (``quat_*``) that
operate on trailing-axis stacks and back the vectorized samplers.
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
    "apply",
    "adjoint",
    "adjoint_inv_transpose",
    "translation_pose",
    "random_rotation",
    "skew",
    "cross",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "quat_exp",
    "quat_log",
    "quat_angle",
    "quat_canonical",
    "quat_unit",
    "finite_poses",
    "quat_to_matrix",
    "quat_from_matrix",
]

SMALL_ANGLE = 1e-6
PI_BRANCH_TOL = 1e-6


# ---------------------------------------------------------------------------
# Array-level quaternion helpers.  All accept stacks with shape (..., 4) /
# (..., 3) and are pure; they do not canonicalize unless stated.
# ---------------------------------------------------------------------------

def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of broadcasting 3-vector stacks.

    Explicit component arithmetic in ``np.cross``'s operation order, so
    results are bit-identical to it without its per-call overhead.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion stacks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    v = aw * bv + bw * av + cross(av, bv)
    return np.concatenate([w, v], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors by unit quaternions (broadcasting over stacks)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    qv = q[..., 1:]
    t = 2.0 * cross(qv, v)
    return v + q[..., :1] * t + cross(qv, t)


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Exponential map from rotation vectors to unit quaternions."""
    w = np.asarray(rotvec, dtype=np.float64)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    half = 0.5 * theta
    small = theta < SMALL_ANGLE
    # sin(theta/2)/theta with its 4th-order series below the threshold
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(small, 0.5 - theta**2 / 48.0 + theta**4 / 3840.0,
                        np.sin(half) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(half), coef * w], axis=-1)


def quat_log(q: np.ndarray) -> np.ndarray:
    """Principal rotation vector of unit quaternions (angle in [0, pi])."""
    q = quat_canonical(q)
    s = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    w = q[..., :1]
    theta = 2.0 * np.arctan2(s, w)
    small = s < 1e-9
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(small, 2.0 / np.where(w == 0.0, 1.0, w),
                        theta / np.where(small, 1.0, s))
    return coef * q[..., 1:]


def quat_angle(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi], insensitive to the quaternion sign."""
    q = np.asarray(q, dtype=np.float64)
    s = np.linalg.norm(q[..., 1:], axis=-1)
    return 2.0 * np.arctan2(s, np.abs(q[..., 0]))


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip stacks onto the w >= 0 hemisphere."""
    q = np.asarray(q, dtype=np.float64)
    flip = q[..., :1] < 0.0
    return np.where(flip, -q, q)


def quat_unit(q: np.ndarray) -> np.ndarray:
    """Rows normalized and sign-canonicalized; the ``Rotation`` constructor's rule.

    Divides by ``sqrt(q . q)``, which equals ``float(np.linalg.norm(q))``
    of a single row bit for bit (``np.linalg.norm(q, axis=-1)`` does not),
    then flips each row to w >= 0, and for w == 0 to a positive first
    nonzero vector component.
    """
    q = np.asarray(q, dtype=np.float64)
    q = q / np.sqrt(np.vecdot(q, q))[..., None]
    v = q[..., 1:]
    first = np.take_along_axis(v, np.argmax(v != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    flip = (q[..., 0] < 0.0) | ((q[..., 0] == 0.0) & (first < 0.0))
    return np.where(flip[..., None], -q, q)


def finite_poses(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, p, bad): the stacks with each pose that has a non-finite entry, or a
    quaternion whose norm is off 1 by more than 1e-3 (the ``Rotation`` rule), set
    to the identity, and the (N,) mask of those poses, whose score rows are NaN.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(over="ignore"):  # a NaN, inf or overflowing norm fails the test below
        norm = np.sqrt(np.einsum("...j,...j->...", q, q))
    bad = ~((np.abs(norm - 1.0) <= 1e-3) & np.isfinite(p).all(axis=-1))
    return np.where(bad[:, None], [1.0, 0.0, 0.0, 0.0], q), np.where(bad[:, None], 0.0, p), bad


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    m[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    m[..., 0, 1] = 2.0 * (x * y - w * z)
    m[..., 0, 2] = 2.0 * (x * z + w * y)
    m[..., 1, 0] = 2.0 * (x * y + w * z)
    m[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    m[..., 1, 2] = 2.0 * (y * z - w * x)
    m[..., 2, 0] = 2.0 * (x * z - w * y)
    m[..., 2, 1] = 2.0 * (y * z + w * x)
    m[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return m


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


def _v_coeffs(theta: float) -> tuple[float, float]:
    """Coefficients a, b of V = I + a [w]^ + b [w]^2 (left Jacobian)."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 0.5 - t2 / 24.0 + t2 * t2 / 720.0, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    t2 = theta * theta
    return (1.0 - math.cos(theta)) / t2, (theta - math.sin(theta)) / (t2 * theta)


def _v_inv_coeff(theta: float) -> float:
    """Coefficient c of V^-1 = I - 1/2 [w]^ + c [w]^2."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    return (1.0 - 0.5 * theta * math.sin(theta) / (1.0 - math.cos(theta))) / (theta * theta)


def exp_se3(xi: Twist) -> Pose:
    """Group exponential; translation via the closed-form left Jacobian."""
    w = xi.omega
    theta = float(np.linalg.norm(w))
    a, b = _v_coeffs(theta)
    wx = cross(w, xi.nu)
    p = xi.nu + a * wx + b * cross(w, wx)
    return Pose(p, exp_so3(w))


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
    return Pose(a.p + a.r.apply(b.p), a.r.compose(b.r))


def inverse(a: Pose) -> Pose:
    rinv = a.r.inverse()
    return Pose(-rinv.apply(a.p), rinv)


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


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation from a normalized 4D Gaussian."""
    q = rng.standard_normal(4)
    n = np.linalg.norm(q)
    while n < 1e-12:  # pragma: no cover - essentially impossible
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
    return Rotation(q / n)
