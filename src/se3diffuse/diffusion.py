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
from typing import NamedTuple, Sequence

import numpy as np

from . import igso3
from .igso3 import IgParams
from .lie import (
    Pose,
    Rotation,
    Twist,
    compose,
    cross,
    finite_poses,
    inverse,
    quat_conj,
    quat_log,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    quat_unit,
)
from .pointcloud import PointCloud, pair_offsets, radius_count, transform  # noqa: F401  (perfbench traces radius_count here)

__all__ = [
    "DiffusionConfig",
    "DemoSet",
    "brownian_log_density",
    "brownian_sample",
    "brownian_score",
    "contact_origin_weights",
    "forward_diffuse",
    "forward_diffuse_batch",
    "ForwardDraws",
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
_IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
# the rotation of inverse(T(p)), signed zeros included
_IDENTITY_CONJ = quat_conj(_IDENTITY_Q)
_ZERO = np.zeros(3)


class _Components(NamedTuple):
    """Kernel components: (demo, grasp point) pairs.

    ``q0inv`` (D, 4) and ``p0inv`` (D, 3) are the inverse demo poses,
    ``points`` (C, 3) the grasp point of each component, ``demo`` (C,) the
    index of its demo and ``logw`` (C,) its log weight.
    """

    q0inv: np.ndarray
    p0inv: np.ndarray
    points: np.ndarray
    demo: np.ndarray
    logw: np.ndarray


def _single_component(q0inv: np.ndarray, p0inv: np.ndarray, point: np.ndarray) -> _Components:
    return _Components(q0inv[None, :], p0inv[None, :],
                       np.asarray(point, dtype=np.float64).reshape(1, 3),
                       np.zeros(1, dtype=np.intp), np.zeros(1))


# The plain kernel B_t(h) is the one-component kernel of an identity demo
# with its diffusion origin at 0 (contact weight 1).
_BROWNIAN = _single_component(_IDENTITY_Q, _ZERO, _ZERO)


def brownian_log_density(h: Pose, t: float) -> float:
    """log B_t(h) = log N(p; 0, tI) + log IG(R; t/2).

    A batch of one of the kernel terms of ``kernel_log_density``, for an
    identity demo with one grasp point at the origin.  Rotational
    densities that underflow the double range saturate at
    LOG_DENSITY_FLOOR.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    _, _, theta, ph = _kernel_frames(h.r.q[None, :], h.p[None, :], _BROWNIAN)
    return float(_component_log_terms(theta, ph, _BROWNIAN, t, _ig_params(t))[0, 0])


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
    counts = np.zeros(len(grasp))
    for rows, d in pair_offsets(grasp.positions, scene_in_body.positions):
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        counts[rows] = np.count_nonzero(d2 <= r * r, axis=1)
    total = counts.sum()
    if total == 0.0:
        return np.full(len(grasp), 1.0 / len(grasp))
    return counts / total


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

    Each demo's contact weights against its body-frame scene g0^-1 . O_s
    are computed once per call.  Sample k then draws from ``rng``, in
    this order:

    1. ``rng.random()`` for t, only when ``t_max`` is set: t is
       log-uniform on [cfg.t, t_max], else t = cfg.t;
    2. ``rng.integers(0, D)`` for the demo g0 among the D demo poses (the
       draw of ``rng.choice(D)``; a single demo draws nothing);
    3. ``rng.random(2)``: the first uniform picks the diffusion origin
       p_de, the grasp point at ``searchsorted(cdf, u, side="right")`` of
       the normalized cumulative contact weights (the draw of
       ``rng.choice(K, p=w)``); the second is the inverse-CDF uniform of
       the IGSO(3)(t/2) rotation angle of delta_g;
    4. ``rng.standard_normal(6)``: the rotation axis of delta_g, then its
       N(0, tI) translation.

    The draws stay one sample at a time because ``integers`` takes 32-bit
    halves of a buffered 64-bit output, so drawing whole arrays would
    change the stream.  delta_g's rotation is built from the angle and
    axis draws as ``igso3_sample_quats`` builds it, and the poses are
    composed on quaternion/translation stacks, renormalized after each
    product as ``compose`` does, so that row k is bitwise the k-th draw of
    this order made one pose at a time.
    """
    if len(scene) == 0 or len(grasp) == 0:
        raise ValueError("empty point cloud")
    if len(demo_poses) == 0:
        raise ValueError("no demo poses")
    if t_max is not None and not t_max >= cfg.t:
        raise ValueError("t_max must be at least cfg.t")
    cdf = np.stack([np.cumsum(contact_origin_weights(grasp, transform(scene, inverse(g0)), cfg.r_nd))
                    for g0 in demo_poses])
    cdf /= cdf[:, -1:]

    t = np.full(n, cfg.t)
    demo = np.empty(n, dtype=np.intp)
    u = np.empty((n, 2))
    z = np.empty((n, 6))
    if t_max is not None:
        log_lo = math.log(cfg.t)
        span = math.log(t_max) - log_lo
    for k in range(n):
        if t_max is not None:
            t[k] = math.exp(log_lo + rng.random() * span)
        demo[k] = rng.integers(0, len(demo_poses))
        u[k] = rng.random(2)
        z[k] = rng.standard_normal(6)

    p_de = grasp.positions[np.count_nonzero(cdf[demo] <= u[:, :1], axis=1)]
    if t_max is None:
        theta = igso3._angles_from_uniforms(_ig_params(cfg.t), u[:, 1])
    else:  # the lookup is elementwise, so each draw reads its own t's table
        theta = np.array([igso3._angles_from_uniforms(_ig_params(t_k), u_k)
                          for t_k, u_k in zip(t.tolist(), u[:, 1].tolist())])
    delta_q = quat_unit(igso3._quats_from(theta, z[:, :3]))
    delta_p = np.sqrt(t)[:, None] * z[:, 3:]

    q0 = np.stack([g0.r.q for g0 in demo_poses])[demo]
    p_t = np.stack([g0.p for g0 in demo_poses])[demo] + quat_rotate(q0, p_de)
    q_t = quat_unit(quat_mul(q0, _IDENTITY_Q))
    p_t = p_t + quat_rotate(q_t, delta_p)
    q_t = quat_unit(quat_mul(q_t, delta_q))
    p_t = p_t + quat_rotate(q_t, -quat_rotate(_IDENTITY_CONJ, p_de))
    q_t = quat_unit(quat_mul(q_t, _IDENTITY_CONJ))
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
    so it draws no demo index: the origin and angle uniforms, then the
    axis and translation normals.
    """
    d = forward_diffuse_batch((g0,), scene, grasp, cfg, rng, 1)
    return (Pose(d.p[0], Rotation.from_unit(d.q[0])), d.p_de[0],
            Pose(d.delta_p[0], Rotation.from_unit(d.delta_q[0])))


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


def _demo_components(demo_poses: Sequence[Pose], scene: PointCloud, grasp: PointCloud,
                     cfg: DiffusionConfig, log_demo_weight: float = 0.0) -> _Components:
    """Every (demo, grasp point) component with nonzero contact weight."""
    inv = [inverse(g0) for g0 in demo_poses]
    parts = [_component_log_weights(g0, scene, grasp, cfg) for g0 in demo_poses]
    return _Components(
        np.stack([g.r.q for g in inv]),
        np.stack([g.p for g in inv]),
        np.concatenate([points for points, _ in parts]),
        np.concatenate([np.full(len(points), d, dtype=np.intp)
                        for d, (points, _) in enumerate(parts)]),
        np.concatenate([logw for _, logw in parts]) + log_demo_weight,
    )


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v over stacks of 3x3 matrices and 3-vectors, elementwise (no BLAS)."""
    return (m[..., 0] * v[..., None, 0] + m[..., 1] * v[..., None, 1]
            + m[..., 2] * v[..., None, 2])


def _kernel_frames(q: np.ndarray, p: np.ndarray, comps: _Components):
    """Kernel arguments h = T(-p_k) g0^-1 g T(p_k) for pose stacks and components.

    The rotation R_m of g0^-1 g is formed once per pose and demo.  Returns
    its matrices for every component, (N, C, 3, 3), its rotation vectors
    and angles per demo, (N, D, 3) and (N, D), and the (N, C, 3)
    translations p_h = p_m + R_m p_k - p_k.
    """
    qm = quat_mul(comps.q0inv[None, :, :], q[:, None, :])
    pm = quat_rotate(comps.q0inv[None, :, :], p[:, None, :]) + comps.p0inv[None, :, :]
    rotvec = quat_log(qm)
    theta = np.linalg.norm(rotvec, axis=-1)
    # take() keeps C order; indexing axis 1 would put it outermost in memory,
    # and the row sums of score_batch would then add in another order for a
    # stack than for one pose
    rm = quat_to_matrix(qm).take(comps.demo, axis=1)
    ph = pm.take(comps.demo, axis=1) + _matvec(rm, comps.points) - comps.points
    return rm, rotvec, theta, ph


def _kernel_scores(q: np.ndarray, p: np.ndarray, comps: _Components, t: float):
    """Kernel frames and adjoint-transported kernel scores of every component.

    Returns the (N, D) kernel angles and (N, C, 3) translations of
    ``_kernel_frames`` and the linear and angular parts, each (N, C, 3),
    of [Ad_{T(p_k)}]^-T grad log B_t(h_k): s_nu = -R_h^T p_h / t, and the
    IGSO(3) score of R_h plus the lever-arm term p_k x s_nu.  Kernel
    angles within 1e-6 of pi are clamped (``igso3.score_ratio``).
    """
    rm, rotvec, theta, ph = _kernel_frames(q, p, comps)
    s_nu = -_matvec(np.swapaxes(rm, -1, -2), ph) / t
    s_rot = igso3.igso3_score_batch(rotvec.reshape(-1, 3), _ig_params(t)).reshape(rotvec.shape)
    s_om = cross(comps.points[None, :, :], s_nu) + s_rot.take(comps.demo, axis=1)
    return theta, ph, s_nu, s_om


def _pose_kernel_score(g: Pose, q0inv: np.ndarray, p0inv: np.ndarray, p_de: np.ndarray,
                       t: float) -> Twist:
    """``_kernel_scores`` for one pose and one origin; raises near pi."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    comps = _single_component(q0inv, p0inv, p_de)
    theta, _, s_nu, s_om = _kernel_scores(g.r.q[None, :], g.p[None, :], comps, t)
    igso3.check_score_angle(float(theta[0, 0]))
    return Twist(s_nu[0, 0], s_om[0, 0])


def _component_log_terms(theta: np.ndarray, ph: np.ndarray, comps: _Components, t: float,
                         params: IgParams) -> np.ndarray:
    """(N, C) log w_k + log N(p_h; 0, tI) + log f(theta_h).

    ``theta`` holds the (N, D) kernel angles per demo, so the rotational
    density is evaluated once per pose and demo.  Densities that
    underflow saturate at LOG_DENSITY_FLOOR, as in brownian_log_density.
    """
    dens = igso3.igso3_density(np.minimum(theta, math.pi), params)
    log_f = np.where(dens > 0.0, np.log(np.maximum(dens, 1e-320)), LOG_DENSITY_FLOOR)
    p2 = np.sum(ph * ph, axis=-1)
    log_gauss = -1.5 * math.log(2.0 * math.pi * t) - p2 / (2.0 * t)
    return comps.logw[None, :] + log_gauss + log_f.take(comps.demo, axis=1)


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
    comps = _demo_components((g0,), scene, grasp, cfg)
    _, _, theta, ph = _kernel_frames(q, p, comps)
    logs = _component_log_terms(theta, ph, comps, cfg.t, _ig_params(cfg.t))
    m = np.max(logs, axis=1)
    return m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))


class MixtureScore:
    """Exact score of the Dirac-mixture diffused marginal.

    Components are (demo, grasp point) pairs weighted by uniform demo
    weights times contact weights; the score is the density-weighted
    average of the adjoint-transported kernel scores, assembled in log
    space.  Every demo's components are stacked once, at construction,
    and ``score_batch`` evaluates them all in one pass over a pose batch
    (used by the annealed sampler).
    """

    def __init__(self, demos: DemoSet, cfg: DiffusionConfig):
        scene, grasp = demos.shared_clouds()
        self.cfg = cfg
        self._components = _demo_components([g0 for g0, _, _ in demos.demos], scene, grasp,
                                            cfg, -math.log(len(demos)))

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores for quaternion/translation stacks at time t.

        One pass over every component: the rotations of g0^-1 g are formed
        once per pose and demo, and the IGSO(3) density and score are each
        evaluated once per call.  Kernel angles within 1e-6 of pi are
        clamped to that boundary (see ``igso3.score_ratio``), where the
        rotational score vanishes smoothly.  Each row depends on its pose
        only, bitwise; a pose with a non-finite entry scores NaN.
        """
        q, p, bad = finite_poses(q, p)
        theta, ph, s_nu, s_om = _kernel_scores(q, p, self._components, t)
        logs = _component_log_terms(theta, ph, self._components, t, _ig_params(t))
        m = np.max(logs, axis=1, keepdims=True)
        w = np.exp(logs - m)
        w /= np.sum(w, axis=1, keepdims=True)
        out = np.empty((q.shape[0], 6))
        out[:, :3] = np.sum(w[:, :, None] * s_nu, axis=1)
        out[:, 3:] = np.sum(w[:, :, None] * s_om, axis=1)
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


class BrownianScoreFn:
    """Score function of the plain Brownian kernel, batch-capable.

    Useful as a stationary-distribution test target for the Langevin
    sampler: with constant schedule time t the chain should equilibrate
    to B_t.  The scalar call is a batch of one, so both clamp kernel
    angles within 1e-6 of pi (``brownian_score`` raises there instead).  A
    pose with a non-finite entry scores NaN.
    """

    def __call__(self, g: Pose, t: float) -> Twist:
        return Twist.from_array(self.score_batch(g.r.q[None, :], g.p[None, :], t)[0])

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores of B_t at quaternion/translation stacks; angles near pi clamp."""
        q, p, bad = finite_poses(q, p)
        _, _, s_nu, s_om = _kernel_scores(q, p, _BROWNIAN, t)
        out = np.concatenate([s_nu[:, 0], s_om[:, 0]], axis=1)
        out[bad] = np.nan
        return out
