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
from dataclasses import dataclass

import numpy as np

from . import igso3
from .igso3 import IgParams
from .lie import (
    Pose,
    Twist,
    compose,
    cross,
    inverse,
    quat_conj,
    quat_log,
    quat_mul,
    quat_rotate,
    translation_pose,
)
from .pointcloud import PointCloud, radius_count, transform  # noqa: F401  (perfbench traces radius_count here)

__all__ = [
    "DiffusionConfig",
    "DemoSet",
    "brownian_log_density",
    "brownian_sample",
    "brownian_score",
    "contact_origin_weights",
    "forward_diffuse",
    "target_score",
    "frame_target_score",
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
        if not (self.t > 0.0 and self.r > 0.0 and self.L > 0.0):
            raise ValueError("t, r, L must all be positive")

    @property
    def r_nd(self) -> float:
        return self.r / self.L


@dataclass(frozen=True)
class DemoSet:
    """Demonstration tuples (target pose, scene cloud, grasp cloud)."""

    demos: tuple[tuple[Pose, PointCloud, PointCloud], ...]

    def __post_init__(self) -> None:
        if len(self.demos) == 0:
            raise ValueError("demo set must be nonempty")
        for _, scene, grasp in self.demos:
            if len(scene) == 0 or len(grasp) == 0:
                raise ValueError("demo point clouds must be nonempty")
        object.__setattr__(self, "demos", tuple(self.demos))

    def __len__(self) -> int:
        return len(self.demos)

    def shared_clouds(self) -> tuple[PointCloud, PointCloud]:
        """The single (scene, grasp) pair; raises if demos disagree."""
        _, scene, grasp = self.demos[0]
        for _, s, g in self.demos[1:]:
            if s is not scene and not np.array_equal(s.positions, scene.positions):
                raise ValueError("demo set mixes different scene clouds")
            if g is not grasp and not np.array_equal(g.positions, grasp.positions):
                raise ValueError("demo set mixes different grasp clouds")
        return scene, grasp


def _ig_params(t: float) -> IgParams:
    return IgParams(eps=0.5 * t)


LOG_DENSITY_FLOOR = -745.0  # log of the smallest subnormal double
_PAIR_CHUNK = 1 << 18  # cap on grasp-by-scene pairs per contact-weight pass
# The plain kernel B_t(h) is the one-component kernel of an identity demo
# with its diffusion origin at 0 (contact weight 1).
_IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
_ZERO = np.zeros(3)
_ORIGIN = np.zeros((1, 3))


def brownian_log_density(h: Pose, t: float) -> float:
    """log B_t(h) = log N(p; 0, tI) + log IG(R; t/2).

    A batch of one of the kernel terms of ``kernel_log_density``, for an
    identity demo with one grasp point at the origin.  Rotational
    densities that underflow the double range saturate at
    LOG_DENSITY_FLOOR.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    _, _, theta, ph = _kernel_frames(h.r.q[None, :], h.p[None, :], _IDENTITY_Q, _ZERO, _ORIGIN)
    return float(_component_log_terms(theta, ph, np.zeros(1), t, _ig_params(t))[0, 0])


def brownian_sample(t: float, rng: np.random.Generator) -> Pose:
    """Independent draw: translation N(0, tI), rotation IG_SO3(t/2)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    rot = igso3.igso3_sample(_ig_params(t), rng)
    p = math.sqrt(t) * rng.standard_normal(3)
    return Pose(p, rot)


def brownian_score(h: Pose, t: float) -> Twist:
    """Score of B_t along right perturbations of h.

    Angular part: the IGSO(3) score.  Linear part: -R^T p / t.  A batch
    of one of ``BrownianScoreFn.score_batch``, except that it raises for
    rotation angles within 1e-6 of pi.  Verified against finite
    differences of brownian_log_density.
    """
    return _pose_kernel_score(h, _IDENTITY_Q, _ZERO, _ZERO, t)


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
    scene = scene_in_body.positions
    counts = np.zeros(len(grasp))
    rows = max(1, _PAIR_CHUNK // max(len(scene), 1))
    for i in range(0, len(grasp), rows):
        d = scene[None, :, :] - grasp.positions[i:i + rows, None, :]
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        counts[i:i + rows] = np.count_nonzero(d2 <= r * r, axis=1)
    total = counts.sum()
    if total == 0.0:
        return np.full(len(grasp), 1.0 / len(grasp))
    return counts / total


def forward_diffuse(
    g0: Pose,
    scene: PointCloud,
    grasp: PointCloud,
    cfg: DiffusionConfig,
    rng: np.random.Generator,
) -> tuple[Pose, np.ndarray, Pose]:
    """One forward-diffusion draw: returns (g_t, p_de, delta_g).

    The diffusion origin p_de is a grasp point sampled from the contact
    weights against the body-frame scene g0^-1 . O_s; the displacement is
    a Brownian draw applied in the translated frame:
    g_t = g0 T(p_de) delta_g T(p_de)^-1.
    """
    if len(scene) == 0 or len(grasp) == 0:
        raise ValueError("empty point cloud")
    scene_in_body = transform(scene, inverse(g0))
    weights = contact_origin_weights(grasp, scene_in_body, cfg.r_nd)
    idx = int(rng.choice(len(grasp), p=weights))
    p_de = grasp.positions[idx].copy()
    dg = brownian_sample(cfg.t, rng)
    t_p = translation_pose(p_de)
    g_t = compose(compose(compose(g0, t_p), dg), inverse(t_p))
    return g_t, p_de, dg


def target_score(g: Pose, g0: Pose, p_de: np.ndarray, t: float) -> Twist:
    """Analytic score target: [Ad_{T(p_de)}]^-T applied to the kernel score.

    For a pure translation the inverse-transpose adjoint keeps the linear
    part and adds the lever-arm term p_de x s_nu to the angular part.  A
    batch of one of the component scores of ``MixtureScore``; raises for
    kernel angles within 1e-6 of pi, where the batch clamps.
    """
    inv0 = inverse(g0)
    return _pose_kernel_score(g, inv0.r.q, inv0.p, p_de, t)


def frame_target_score(g: Pose, g0: Pose, g_de: Pose, t: float) -> Twist:
    """Score target for a general SE(3) diffusion frame g_de.

    The shipped origin selection only ever produces pure-translation
    frames, which ``target_score`` covers; this is the extension surface
    for frame mechanisms with a rotational part: [Ad_{g_de}]^-T applied
    to the kernel score of g_de^-1 g0^-1 g g_de.
    """
    from .lie import adjoint_inv_transpose

    h = compose(compose(compose(inverse(g_de), inverse(g0)), g), g_de)
    base = brownian_score(h, t).as_array()
    return Twist.from_array(adjoint_inv_transpose(g_de) @ base)


def _component_log_weights(g0: Pose, scene: PointCloud, grasp: PointCloud, cfg: DiffusionConfig):
    """Contact weights for one demo, restricted to nonzero entries."""
    scene_in_body = transform(scene, inverse(g0))
    w = contact_origin_weights(grasp, scene_in_body, cfg.r_nd)
    keep = np.nonzero(w > 0.0)[0]
    return grasp.positions[keep], np.log(w[keep])


def _kernel_frames(q: np.ndarray, p: np.ndarray, q0inv: np.ndarray, p0inv: np.ndarray,
                   points: np.ndarray):
    """Kernel arguments h = T(-p_k) g0^-1 g T(p_k) for pose stacks and grasp points.

    Returns the rotation qm of g0^-1 g (shared by every component), its
    rotation vector and angle, each (N, ...), and the (N, K, 3)
    translations p_h = p_m + R_m p_k - p_k.
    """
    qm = quat_mul(q0inv[None, :], q)
    pm = quat_rotate(q0inv[None, :], p) + p0inv[None, :]
    rotvec = quat_log(qm)
    theta = np.linalg.norm(rotvec, axis=-1)
    rp = quat_rotate(qm[:, None, :], points[None, :, :])
    ph = pm[:, None, :] + rp - points[None, :, :]
    return qm, rotvec, theta, ph


def _kernel_scores(q: np.ndarray, p: np.ndarray, q0inv: np.ndarray, p0inv: np.ndarray,
                   points: np.ndarray, t: float):
    """Kernel frames and adjoint-transported kernel scores of every component.

    Returns the (N,) kernel angles and (N, K, 3) translations of
    ``_kernel_frames`` and the linear and angular parts, each (N, K, 3),
    of [Ad_{T(p_k)}]^-T grad log B_t(h_k): s_nu = -R_h^T p_h / t, and the
    IGSO(3) score of R_h plus the lever-arm term p_k x s_nu.  Kernel
    angles within 1e-6 of pi are clamped (``igso3.score_ratio``).
    """
    qm, rotvec, theta, ph = _kernel_frames(q, p, q0inv, p0inv, points)
    s_nu = -quat_rotate(quat_conj(qm)[:, None, :], ph) / t
    s_rot = igso3.igso3_score_batch(rotvec, _ig_params(t))
    s_om = cross(points[None, :, :], s_nu) + s_rot[:, None, :]
    return theta, ph, s_nu, s_om


def _pose_kernel_score(g: Pose, q0inv: np.ndarray, p0inv: np.ndarray, p_de: np.ndarray,
                       t: float) -> Twist:
    """``_kernel_scores`` for one pose and one origin; raises near pi."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    points = np.asarray(p_de, dtype=np.float64).reshape(1, 3)
    theta, _, s_nu, s_om = _kernel_scores(g.r.q[None, :], g.p[None, :], q0inv, p0inv, points, t)
    igso3.check_score_angle(float(theta[0]))
    return Twist(s_nu[0, 0], s_om[0, 0])


def _component_log_terms(theta: np.ndarray, ph: np.ndarray, logw: np.ndarray, t: float,
                         params: IgParams) -> np.ndarray:
    """(N, K) log w_k + log N(p_h; 0, tI) + log f(theta_h).

    Rotational densities that underflow saturate at LOG_DENSITY_FLOOR,
    as in brownian_log_density.
    """
    dens = igso3.igso3_density(np.minimum(theta, math.pi), params)
    log_f = np.where(dens > 0.0, np.log(np.maximum(dens, 1e-320)), LOG_DENSITY_FLOOR)
    p2 = np.sum(ph * ph, axis=-1)
    log_gauss = -1.5 * math.log(2.0 * math.pi * t) - p2 / (2.0 * t)
    return logw[None, :] + log_gauss + log_f[:, None]


def kernel_log_density(
    q: np.ndarray,
    p: np.ndarray,
    g0: Pose,
    scene: PointCloud,
    grasp: PointCloud,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """log sum_p w_p B_t((g0 <| p)^-1 (g <| p)) for a stack of poses g.

    ``q`` is an (N, 4) quaternion stack and ``p`` the (N, 3) translations;
    returns the (N,) log densities.  ``<|`` is right multiplication by the
    pure translation T(p); the sum runs over grasp points with nonzero
    contact weight and is taken by log-sum-exp.  The demo's contact
    weights are computed once per call, so pass every pose at once.
    """
    if len(scene) == 0 or len(grasp) == 0:
        raise ValueError("empty point cloud")
    points, logw = _component_log_weights(g0, scene, grasp, cfg)
    inv0 = inverse(g0)
    _, _, theta, ph = _kernel_frames(q, p, inv0.r.q, inv0.p, points)
    logs = _component_log_terms(theta, ph, logw, cfg.t, _ig_params(cfg.t))
    m = np.max(logs, axis=1)
    return m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))


class MixtureScore:
    """Exact score of the Dirac-mixture diffused marginal.

    Components are (demo, grasp point) pairs weighted by uniform demo
    weights times contact weights; the score is the density-weighted
    average of the adjoint-transported kernel scores, assembled in log
    space.  Instances precompute per-demo data and support vectorized
    evaluation over pose batches (used by the annealed sampler).
    """

    def __init__(self, demos: DemoSet, cfg: DiffusionConfig):
        scene, grasp = demos.shared_clouds()
        self.cfg = cfg
        self._demo_data = []
        logn = -math.log(len(demos))
        for g0, _, _ in demos.demos:
            points, logw = _component_log_weights(g0, scene, grasp, cfg)
            inv0 = inverse(g0)
            self._demo_data.append({
                "q0inv": inv0.r.q.copy(),
                "p0inv": inv0.p.copy(),
                "points": points,
                "logw": logw + logn,
            })

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores for quaternion/translation stacks at time t.

        Kernel angles within 1e-6 of pi are clamped to that boundary (see
        ``igso3.score_ratio``), where the rotational score vanishes smoothly.
        """
        n = q.shape[0]
        params = _ig_params(t)
        log_parts, nu_parts, om_parts = [], [], []
        for demo in self._demo_data:
            theta, ph, s_nu, s_om = _kernel_scores(q, p, demo["q0inv"], demo["p0inv"],
                                                   demo["points"], t)
            log_parts.append(_component_log_terms(theta, ph, demo["logw"], t, params))
            nu_parts.append(s_nu)
            om_parts.append(s_om)
        logs = np.concatenate(log_parts, axis=1)
        nus = np.concatenate(nu_parts, axis=1)
        oms = np.concatenate(om_parts, axis=1)
        m = np.max(logs, axis=1, keepdims=True)
        w = np.exp(logs - m)
        w /= np.sum(w, axis=1, keepdims=True)
        out = np.empty((n, 6))
        out[:, :3] = np.sum(w[:, :, None] * nus, axis=1)
        out[:, 3:] = np.sum(w[:, :, None] * oms, axis=1)
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


def _brownian_score_rows(q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    """(N, 6) scores of B_t at quaternion/translation stacks; angles near pi clamp."""
    _, _, s_nu, s_om = _kernel_scores(q, p, _IDENTITY_Q, _ZERO, _ORIGIN, t)
    return np.concatenate([s_nu[:, 0], s_om[:, 0]], axis=1)


class BrownianScoreFn:
    """Score function of the plain Brownian kernel, batch-capable.

    Useful as a stationary-distribution test target for the Langevin
    sampler: with constant schedule time t the chain should equilibrate
    to B_t.  The scalar call is a batch of one, so both clamp kernel
    angles within 1e-6 of pi (``brownian_score`` raises there instead).
    """

    def __call__(self, g: Pose, t: float) -> Twist:
        return Twist.from_array(_brownian_score_rows(g.r.q[None, :], g.p[None, :], t)[0])

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        return _brownian_score_rows(q, p, t)
