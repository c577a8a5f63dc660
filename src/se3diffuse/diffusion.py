"""Brownian kernel on SE(3), bi-equivariant forward diffusion, and scores.

Units: every pose and point cloud entering this module is expected in
non-dimensionalized coordinates (lengths divided by the characteristic
scale ``DiffusionConfig.L``); the contact radius ``r`` is kept in scene
units and divided by ``L`` internally.  The Brownian kernel is

    B_t(g) = N(p; 0, t I) * IG_SO3(R; eps = t/2)

with the Gaussian over the 3 translation components and the rotational
factor relative to normalized Haar measure.  Scores are Lie derivatives
along right perturbations ``g exp(eps e_i)``, stored linear-first; the
translational component is the body-frame form ``-R^T p / t``, which is
what finite differences of the log density along right perturbations
produce.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import igso3
from .lie import (
    Pose,
    Rotation,
    Twist,
    _cross,
    _log,
    _matrix,
    _mul,
    _norm,
    finite_poses,
    quat_exp,
    quat_rotate,
    quat_unit,
    se3_compose,
    se3_inverse,
)
from .pointcloud import PointCloud, pair_offsets, radius_count  # noqa: F401  (perfbench traces radius_count here)

__all__ = [
    "DiffusionConfig",
    "DemoSet",
    "brownian_log_density",
    "brownian_sample",
    "brownian_sample_batch",
    "brownian_score",
    "check_time",
    "contact_origin_weights",
    "forward_diffuse",
    "forward_diffuse_batch",
    "ForwardDraws",
    "target_score",
    "kernel_log_density",
    "marginal_score_oracle",
    "score_matching_loss",
    "MixtureScore",
    "BrownianScoreFn",
]


@dataclass(frozen=True)
class DiffusionConfig:
    """Diffusion time t, contact radius r (scene units), length unit L."""

    t: float
    r: float
    L: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.t, self.r, self.L)):
            raise ValueError("t, r, L must all be positive and finite")
        if not 0.5 * self.t > 0.0:
            raise ValueError(f"t = {self.t!r} is too small: the rotational concentration t/2 rounds to 0")

    @property
    def r_nd(self) -> float:
        return self.r / self.L


@dataclass(frozen=True)
class DemoSet:
    """Demonstrations (target pose, scene cloud, grasp cloud) over one shared scene and grasp cloud.

    Refuses an empty set, an empty cloud, and demos whose scene or grasp
    positions differ (equal clouds in separate objects are one cloud).  Keeps
    the poses as read-only (D, 4)/(D, 3) stacks ``q``/``p`` beside ``scene`` and ``grasp``.
    """

    demos: tuple[tuple[Pose, PointCloud, PointCloud], ...]
    q: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    scene: PointCloud = field(init=False, repr=False, compare=False)
    grasp: PointCloud = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        demos = tuple(self.demos)
        if not demos:
            raise ValueError("no demo poses")
        _, scene, grasp = demos[0]
        if len(scene) == 0 or len(grasp) == 0:
            raise ValueError("empty point cloud")
        for name, k, cloud in (("scene", 1, scene), ("grasp", 2, grasp)):
            if any(d[k] is not cloud and not np.array_equal(d[k].positions, cloud.positions) for d in demos):
                raise ValueError(f"demo set mixes different {name} clouds")
        q, p = np.stack([g0.r.q for g0, _, _ in demos]), np.stack([g0.p for g0, _, _ in demos])
        q.flags.writeable = p.flags.writeable = False
        for name, value in (("demos", demos), ("q", q), ("p", p), ("scene", scene), ("grasp", grasp)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.demos)


def check_time(t: float) -> None:
    """Refuse a time that is not finite or is below the smallest normal double, where 1/t terms overflow."""
    if not sys.float_info.min <= t < math.inf:
        raise ValueError(f"t must be positive and finite, and at least the smallest normal double "
                         f"{sys.float_info.min!r}, got {t!r}")


_IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
_ZERO = np.zeros(3)


class _Components(NamedTuple):
    """Kernel components: (demo, grasp point) pairs, each demo's padded to K slots.

    ``q0inv`` (D, 4) are the inverse demo rotations and ``logw`` (D, K) the
    log weights, -inf in the unused slots.  World lengths are taken about
    ``origin``, the mean demo translation o, and component (d, k) has the
    grasp point k and its world point c = p0_d + R0_d k - o.  ``rows``
    (17, D K) holds each component's column [1, 2k, -2c, |k|^2 + |c|^2,
    -2 vec(c k^T)] of |p_h|^2, and ``moments`` (D K, 15) its row
    [k, c, vec(c k^T)], whose weighted sums are the moments of
    ``_kernel_score``.
    """

    q0inv: np.ndarray
    origin: np.ndarray
    logw: np.ndarray
    rows: np.ndarray
    moments: np.ndarray


def _components(q0: np.ndarray, p0: np.ndarray, points: np.ndarray, logw: np.ndarray) -> _Components:
    """Components of the (D, 4)/(D, 3) demo poses' (D, K, 3) grasp points with (D, K) log weights."""
    origin = np.mean(p0, axis=0)
    c = quat_rotate(q0[:, None], points) + (p0 - origin)[:, None]
    ck = (c[..., :, None] * points[..., None, :]).reshape(logw.shape + (9,))
    rows = np.concatenate([np.ones(logw.shape + (1,)), 2.0 * points, -2.0 * c,
                           np.sum(points * points, axis=-1, keepdims=True)
                           + np.sum(c * c, axis=-1, keepdims=True), -2.0 * ck], axis=-1)
    return _Components(se3_inverse(q0, p0)[0], origin, logw, np.ascontiguousarray(rows.reshape(-1, 17).T),
                       np.concatenate([points, c, ck], axis=-1).reshape(-1, 15))


def _single_component(q0: np.ndarray, p0: np.ndarray, point: np.ndarray) -> _Components:
    return _components(q0[None, :], p0[None, :],
                       np.asarray(point, dtype=np.float64).reshape(1, 1, 3), np.zeros((1, 1)))


# The plain kernel B_t(h) is the one-component kernel of an identity demo
# with its diffusion origin at 0 (contact weight 1).
_BROWNIAN = _single_component(_IDENTITY_Q, _ZERO, _ZERO)


def brownian_log_density(h: Pose, t: float) -> float:
    """log B_t(h) = log N(p; 0, tI) + log IG(R; t/2).

    A batch of one of ``kernel_log_density``, for an identity demo with
    one grasp point at the origin.  The rotational density is taken in
    log space, so it stays finite where the density underflows.
    """
    check_time(t)
    return float(_log_mixture(h.r.q[None, :], h.p[None, :], _BROWNIAN, t)[0])


def brownian_sample_batch(t: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4) rotations and (n, 3) translations of n independent draws of B_t, one t per row.

    Draws the IG_SO3(t/2) rotation vectors (``igso3.igso3_sample_rotvecs``),
    then ``standard_normal((n, 3))`` scaled by sqrt(t) for the N(0, tI)
    translations.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError("t must be positive and finite")
    q = quat_unit(quat_exp(igso3.igso3_sample_rotvecs(0.5 * t, rng)))
    return q, np.sqrt(t)[:, None] * rng.standard_normal((t.size, 3))


def brownian_sample(t: float, rng: np.random.Generator) -> Pose:
    """Independent draw: translation N(0, tI), rotation IG_SO3(t/2); a batch of one."""
    q, p = brownian_sample_batch(np.array([t]), rng)
    return Pose(p[0], Rotation.from_unit(q[0]))


def brownian_score(h: Pose, t: float) -> Twist:
    """Score of B_t along right perturbations of h.

    Angular part: the IGSO(3) score.  Linear part: -R^T p / t.  The
    call of ``BrownianScoreFn``, a batch of one of its ``score_batch``, so
    rotation angles within 1e-6 of pi clamp as they do there.  Verified
    against finite differences of brownian_log_density.
    """
    return BrownianScoreFn()(h, t)


def contact_origin_weights(grasp: PointCloud, scene_in_body: PointCloud, r: float) -> np.ndarray:
    """Per-grasp-point weights proportional to scene contact counts.

    A scene point contributes when its distance is <= r (inclusive), with
    the squared distance formed as in ``radius_count``, so the counts are
    the ones it returns.  When no grasp point has any contact the
    distribution degenerates and falls back to uniform.
    """
    if len(grasp) == 0:
        raise ValueError("empty grasp cloud")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    counts = np.zeros(len(grasp))
    for rows, d in pair_offsets(grasp.positions, scene_in_body.positions):
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        counts[rows] = np.count_nonzero(d2 <= r * r, axis=1)
    total = counts.sum()
    if total == 0.0:
        return np.full(len(grasp), 1.0 / len(grasp))
    return counts / total


def _contact_weights(demos: DemoSet, cfg: DiffusionConfig) -> np.ndarray:
    """(D, K) contact weights of the grasp points against each demo's body-frame scene g0^-1 . O_s:
    one stacked rotation, then ``contact_origin_weights`` once per demo."""
    q0inv, p0inv = se3_inverse(demos.q, demos.p)
    body = quat_rotate(q0inv[:, None], demos.scene.positions) + p0inv[:, None]
    return np.stack([contact_origin_weights(demos.grasp, PointCloud(x), cfg.r_nd) for x in body])


class ForwardDraws(NamedTuple):
    """n forward-diffusion draws as stacks, in draw order."""

    t: np.ndarray  # (n,) diffusion times
    demo: np.ndarray  # (n,) index of the demo pose g0 each draw starts from
    q: np.ndarray  # (n, 4) rotations of g_t
    p: np.ndarray  # (n, 3) translations of g_t
    p_de: np.ndarray  # (n, 3) diffusion origins
    delta_q: np.ndarray  # (n, 4) rotations of the Brownian displacement
    delta_p: np.ndarray  # (n, 3) translations of the Brownian displacement


def forward_diffuse_batch(
    demo_poses: Sequence[Pose],
    scene: PointCloud,
    grasp: PointCloud,
    cfg: DiffusionConfig,
    rng: np.random.Generator,
    n: int,
    t_max: float | None = None,
) -> ForwardDraws:
    """n forward-diffusion draws g_t = g0 T(p_de) delta_g T(p_de)^-1.

    An adapter over one ``DemoSet`` of the poses and clouds.  Each demo's
    contact weights against its body-frame scene g0^-1 . O_s are computed
    once per call.  The draws are whole arrays from ``rng``, in this order:

    1. ``rng.random(n)`` for t, only when ``t_max`` is set: t is
       log-uniform on [cfg.t, t_max], else t = cfg.t;
    2. ``rng.integers(0, D, n)`` for the demo g0 among the D demo poses
       (the draw of ``rng.choice(D, n)``);
    3. ``rng.random(n)`` for the diffusion origin p_de, the grasp point at
       ``searchsorted(cdf, u, side="right")`` of the normalized cumulative
       contact weights of the row's demo (the draw of ``rng.choice(K, p=w)``);
    4. one ``brownian_sample_batch(t, rng)`` call for delta_g.

    The poses are composed by three ``se3_compose`` calls on the stacks,
    so that row k is bitwise g0 T(p_de) delta_g T(p_de)^-1 composed one
    ``Pose`` at a time.
    """
    demos = DemoSet(tuple((g0, scene, grasp) for g0 in demo_poses))
    if t_max is not None and not t_max >= cfg.t:
        raise ValueError("t_max must be at least cfg.t")
    cdf = np.cumsum(_contact_weights(demos, cfg), axis=1)
    cdf /= cdf[:, -1:]

    if t_max is None:
        t = np.full(n, cfg.t)
    else:
        log_lo = math.log(cfg.t)
        t = np.exp(log_lo + rng.random(n) * (math.log(t_max) - log_lo))
    demo = rng.integers(0, len(demos), n)
    p_de = grasp.positions[np.count_nonzero(cdf[demo] <= rng.random(n)[:, None], axis=1)]
    delta_q, delta_p = brownian_sample_batch(t, rng)

    q_t, p_t = se3_compose(demos.q[demo], demos.p[demo], _IDENTITY_Q, p_de)
    q_t, p_t = se3_compose(q_t, p_t, delta_q, delta_p)
    q_t, p_t = se3_compose(q_t, p_t, *se3_inverse(_IDENTITY_Q, p_de))
    return ForwardDraws(t, demo, q_t, p_t, p_de, delta_q, delta_p)


def forward_diffuse(
    g0: Pose,
    scene: PointCloud,
    grasp: PointCloud,
    cfg: DiffusionConfig,
    rng: np.random.Generator,
) -> tuple[Pose, np.ndarray, Pose]:
    """One forward-diffusion draw from g0: returns (g_t, p_de, delta_g).

    A batch of one of ``forward_diffuse_batch`` with the single demo g0,
    so its demo draw consumes nothing: the origin uniform, then
    ``brownian_sample``'s draws.
    """
    d = forward_diffuse_batch((g0,), scene, grasp, cfg, rng, 1)
    return (Pose(d.p[0], Rotation.from_unit(d.q[0])), d.p_de[0],
            Pose(d.delta_p[0], Rotation.from_unit(d.delta_q[0])))


def target_score(g: Pose, g0: Pose, p_de: np.ndarray, t: float) -> Twist:
    """Analytic score target: [Ad_{T(p_de)}]^-T applied to the kernel score.

    For a pure translation the inverse-transpose adjoint keeps the linear
    part and adds the lever-arm term p_de x s_nu to the angular part.  A
    batch of one of the component scores of ``MixtureScore``, so kernel
    angles within 1e-6 of pi clamp as they do there.
    """
    check_time(t)
    comps = _single_component(g0.r.q, g0.p, p_de)
    return Twist.from_array(_kernel_score(g.r.q[None, :], g.p[None, :], comps, t)[0])


def _demo_components(demos: DemoSet, cfg: DiffusionConfig) -> _Components:
    """Every (demo, grasp point) component with nonzero contact weight, each demo weighted 1/D."""
    w = _contact_weights(demos, cfg)
    slots = np.count_nonzero(w > 0.0, axis=1).max()
    points = np.zeros((len(w), slots, 3))
    logw = np.full((len(w), slots), -np.inf)
    for d, wd in enumerate(w):
        keep = (wd > 0.0).nonzero()[0]
        points[d, :keep.size] = demos.grasp.positions[keep]
        logw[d, :keep.size] = np.log(wd[keep]) - math.log(len(w))
    return _components(demos.q, demos.p, points, logw)


def _kernel_terms(q: np.ndarray, p: np.ndarray, comps: _Components, t: float):
    """Per-pose world terms, kernel frames per pose and demo, and log terms per component.

    The kernel argument of component (d, k) is h = T(-k) g0_d^-1 g T(k),
    with rotation R_m = R0_d^T R and translation p_h, and R0_d p_h =
    p' + R k - c with p' = p - o (see ``_Components``).  So |p_h|^2 is the
    dot product of the pose's row [|p'|^2, R^T p', p', 1, vec R] with the
    component's column of ``rows``: one ``np.matmul`` with the pose on the
    batch axis, which keeps each row's bits in any batch.  R_m is the
    ``lie`` product q0inv_d q, whose rotation vector and angle, and their IGSO(3) log
    density and score ratio f'/f (``igso3._log_density_and_ratio``: no range checks),
    are taken once per pose and demo, demo-major (D, N), and returned as (N, D) views.

    Returns R (3, 3, N), R^T p' (3, N), the rotation vectors (3, N, D),
    angles (N, D) and ratios (N, D), and the (N, D, K) log terms
    log w_k + log N(p_h; 0, tI) + log f(theta); a term whose |p_h|^2 or
    |p_h|^2 / (2t) overflows is -inf.
    """
    n = q.shape[0]
    qt = np.ascontiguousarray(q.T)
    r = _matrix(qt[0], qt[1:])
    a = comps.q0inv.T[:, :, None]  # (4, D, 1)
    rotvec = _log(*_mul(a[0], a[1:], qt[0], qt[1:, None]))  # (3, D, N)
    theta = _norm(rotvec)
    log_f, ratio = igso3._log_density_and_ratio(np.minimum(theta, math.pi), 0.5 * t)
    # logw + (-1.5 log(2 pi t) - p2 / (2t)) + log_f, formed in p2; where p2 or p2 / (2t) overflows the
    # term is -inf, the kernel below the double range
    with np.errstate(over="ignore"):
        pt = (p - comps.origin).T
        rtp = np.add.reduce(r * pt[:, None], axis=0)
        pose = np.concatenate([np.add.reduce(pt * pt, axis=0)[None], rtp, pt, np.ones((1, n)), r.reshape(9, n)])
        p2 = np.matmul(np.ascontiguousarray(pose.T)[:, None], comps.rows).reshape((n,) + comps.logw.shape)
        p2 /= 2.0 * t
    np.subtract(-1.5 * math.log(2.0 * math.pi * t), p2, out=p2)
    p2 += comps.logw
    p2 += log_f.T[:, :, None]
    return r, rtp, rotvec.transpose(0, 2, 1), theta.T, ratio.T, p2


def _log_mixture(q: np.ndarray, p: np.ndarray, comps: _Components, t: float) -> np.ndarray:
    """(N,) log sum over components of w_k B_t(h), by log-sum-exp over each pose's (D, K) terms; -inf if all are."""
    logs = _kernel_terms(q, p, comps, t)[-1]
    m = np.maximum(np.max(logs, axis=(1, 2)), -sys.float_info.max)  # finite: -inf - m is -inf, not NaN
    with np.errstate(divide="ignore"):  # log 0 = -inf where every term is -inf
        return m + np.log(np.sum(np.exp(logs - m[:, None, None]), axis=(1, 2)))


def _kernel_score(q: np.ndarray, p: np.ndarray, comps: _Components, t: float):
    """(N, 6) density-weighted mixture scores.

    Component (d, k) contributes [Ad_{T(k)}]^-T grad log B_t(h):
    s_nu = -R_m^T p_h / t = -(R^T p' + k - R^T c) / t and
    s_om = k x s_nu + s_rot,d, the IGSO(3) score of R_m.  Their weighted
    sums therefore need only the per-demo weight sums W_d and three moments
    over every component, K = sum w k, C = sum w c and N = sum w k c^T,
    one ``np.matmul`` with the pose on the batch axis:

        sum w s_nu = -(W R^T p' + K - R^T C) / t
        sum w s_om = -(K x R^T p' - vee(N R)) / t + sum_d W_d s_rot,d

    with W = sum_d W_d and vee(N R) = sum_m N[:, m] x R[m, :].  Every other
    step is elementwise or a reduction along a pose's own axis, so a row
    keeps its bits in any batch.  Kernel angles within 1e-6 of pi are
    clamped (``igso3.score_ratio``).
    """
    r, rtp, rotvec, theta, ratio, logs = _kernel_terms(q, p, comps, t)
    n = q.shape[0]
    with np.errstate(invalid="ignore"):  # -inf - -inf: a pose whose every term is -inf scores NaN
        logs -= np.maximum.reduce(logs, axis=(1, 2), keepdims=True)
    w = np.exp(logs, out=logs)
    wd = np.add.reduce(w, axis=2)
    total = np.add.reduce(wd, axis=1)
    moments = np.matmul(w.reshape(n, 1, len(comps.moments)), comps.moments)[:, 0].T  # (15, N)
    k, c = moments[:3], moments[3:6]
    # N[:, m] x R[m, :] summed over m, with N = sum w k c^T read from the rows vec(c k^T)
    vee = np.add.reduce(_cross(moments[6:].reshape(3, 3, n).swapaxes(0, 1), r.swapaxes(0, 1)), axis=1)
    if np.fmin.reduce(theta, axis=None, initial=math.inf) < 1e-12:  # a zero rotation vector scores 0
        theta = np.where(theta < 1e-12, 1.0, theta)
    # summed along the last axis of a C-ordered (3, N, D) array, so in one order at any N
    s_rot = np.add.reduce(np.multiply(wd * ratio / theta, rotvec, out=np.empty(rotvec.shape)), axis=-1)
    out = np.empty((6, n))  # handed back as its (N, 6) transpose
    np.divide(total * rtp + k - np.add.reduce(r * c[:, None], axis=0), -t * total, out=out[:3])
    np.divide((_cross(k, rtp) - vee) / -t + s_rot, total, out=out[3:])
    return out.T


def kernel_log_density(q: np.ndarray, p: np.ndarray, demo_poses: Sequence[Pose], scene: PointCloud,
                       grasp: PointCloud, cfg: DiffusionConfig) -> np.ndarray:
    """(N,) log (1/D) sum_g0 sum_p w_p B_t((g0 <| p)^-1 (g <| p)) of (N, 4)/(N, 3) pose stacks g.

    The mixture over the D ``demo_poses`` g0 whose score ``MixtureScore``
    takes, an adapter over one ``DemoSet``; ``(g0,)`` gives one demo's kernel.
    ``<|`` is right multiplication by the pure translation T(p); the sum is one log-sum-exp
    over the (demo, grasp point) components with nonzero contact weight,
    whose weights are computed once per call, so pass every pose at once.
    The stacks are read as the scores read them (``finite_poses``): a
    single (4,)/(3,) pose is a batch of one, and a pose with a non-finite
    entry or a quaternion off unit norm by more than 1e-3 reads NaN.
    """
    demos = DemoSet(tuple((g0, scene, grasp) for g0 in demo_poses))
    check_time(cfg.t)
    q, p, bad = finite_poses(q, p)
    out = _log_mixture(q, p, _demo_components(demos, cfg), cfg.t)
    out[bad] = np.nan
    return out


class MixtureScore:
    """Exact score of the Dirac-mixture diffused marginal.

    Components are (demo, grasp point) pairs weighted by uniform demo
    weights times contact weights; the score is the density-weighted
    average of the adjoint-transported kernel scores, with weights taken
    in log space.  Every demo's components are laid out once, at
    construction, padded to the largest count, with lengths about the mean
    demo translation, and ``score_batch`` evaluates them all in one pass
    over a pose batch (used by the annealed sampler).
    """

    def __init__(self, demos: DemoSet, cfg: DiffusionConfig):
        self._components = _demo_components(demos, cfg)

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores for quaternion/translation stacks at time t.

        One pass over every component: the rotation g0^-1 g and its IGSO(3)
        log density and score are formed once per pose and demo, the kernel
        translations of every component come from one product of per-pose
        and per-component rows, and the weighted score sums from three
        moments of the weights, a second product (``_kernel_score``).
        Kernel angles within 1e-6 of pi are clamped
        to that boundary (see ``igso3.score_ratio``), where the rotational
        score vanishes smoothly.  Each row depends on its pose
        only, bitwise; a pose with a non-finite entry scores NaN.
        """
        check_time(t)
        q, p, bad = finite_poses(q, p)
        out = _kernel_score(q, p, self._components, t)
        out[bad] = np.nan
        return out

    def __call__(self, g: Pose, t: float) -> Twist:
        arr = self.score_batch(g.r.q[None, :], g.p[None, :], t)
        return Twist.from_array(arr[0])


def marginal_score_oracle(g: Pose, demos: DemoSet, cfg: DiffusionConfig) -> Twist:
    """Exact score of the uniform Dirac-mixture marginal at time cfg.t."""
    return MixtureScore(demos, cfg)(g, cfg.t)


def score_matching_loss(model_score: Twist, g: Pose, g0: Pose, p_de: np.ndarray, t: float) -> float:
    """Half squared error against the analytic target over all 6 components."""
    diff = model_score.as_array() - target_score(g, g0, p_de, t).as_array()
    return 0.5 * float(np.dot(diff, diff))


class BrownianScoreFn(MixtureScore):
    """Score function of the plain Brownian kernel, batch-capable.

    The ``MixtureScore`` of the one-component set ``_BROWNIAN``: an
    identity demo with its diffusion origin at 0.  Useful as a
    stationary-distribution test target for the Langevin sampler: with
    constant schedule time t the chain should equilibrate to B_t.  Both
    forms clamp kernel angles within 1e-6 of pi, and a pose with a
    non-finite entry scores NaN.
    """

    _components = _BROWNIAN

    def __init__(self) -> None:
        """No demo set to lay out: the components are the class's ``_BROWNIAN``."""
