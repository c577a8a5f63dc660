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
    _cross,
    _log,
    _matrix,
    _mul,
    _norm,
    _rotate,
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


def check_time(t: float) -> None:
    """Refuse a diffusion time that is not positive and finite."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")


def _ig_params(t: float) -> IgParams:
    return IgParams(eps=0.5 * t)


_IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
_ZERO = np.zeros(3)
_UPPER = np.triu_indices(3)
# vee(X)_i = X_NEXT[i],PREV[i] - X_PREV[i],NEXT[i]
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# the feature columns of rows m = 0..2 of k k^T at entries NEXT and PREV: upper(k k^T) follows [1, k]
_OUTER_COLUMN = 4 + np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_OUTER_NEXT = _OUTER_COLUMN[:, _NEXT]
_OUTER_PREV = _OUTER_COLUMN[:, _PREV]


class _Components(NamedTuple):
    """Kernel components: (demo, grasp point) pairs, each demo's padded to K slots.

    ``q0inv`` (D, 4) and ``p0inv`` (D, 3) are the inverse demo poses,
    ``points`` (D, 3, K) the coordinates of the grasp point k of each
    component, ``logw`` (D, K) its log weight, -inf in the unused slots,
    and ``features`` (D, K, 10) its row [1, k, upper(k k^T)], whose
    weighted sums are the per-demo moments of ``_kernel_score``.
    """

    q0inv: np.ndarray
    p0inv: np.ndarray
    points: np.ndarray
    logw: np.ndarray
    features: np.ndarray


def _components(q0inv: np.ndarray, p0inv: np.ndarray, points: np.ndarray,
                logw: np.ndarray) -> _Components:
    """Components of (D, K, 3) grasp points with (D, K) log weights."""
    outer = points[..., :, None] * points[..., None, :]
    features = np.concatenate([np.ones(logw.shape + (1,)), points, outer[..., _UPPER[0], _UPPER[1]]],
                              axis=-1)
    return _Components(q0inv, p0inv, np.ascontiguousarray(np.swapaxes(points, -1, -2)), logw, features)


def _single_component(q0inv: np.ndarray, p0inv: np.ndarray, point: np.ndarray) -> _Components:
    return _components(q0inv[None, :], p0inv[None, :],
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


def _contact_weights(q0inv: np.ndarray, p0inv: np.ndarray, scene: PointCloud, grasp: PointCloud,
                     cfg: DiffusionConfig) -> np.ndarray:
    """(D, K) contact weights against each body-frame scene g0^-1 . O_s of the (D, 4)/(D, 3)
    inverse demo poses: one stacked rotation, then ``contact_origin_weights`` once per demo."""
    body = quat_rotate(q0inv[:, None], scene.positions) + p0inv[:, None]
    return np.stack([contact_origin_weights(grasp, PointCloud(x), cfg.r_nd) for x in body])


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
    are computed once per call.  The draws are whole arrays from ``rng``,
    in this order:

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
    if len(scene) == 0 or len(grasp) == 0:
        raise ValueError("empty point cloud")
    if len(demo_poses) == 0:
        raise ValueError("no demo poses")
    if t_max is not None and not t_max >= cfg.t:
        raise ValueError("t_max must be at least cfg.t")
    q0, p0 = np.stack([g0.r.q for g0 in demo_poses]), np.stack([g0.p for g0 in demo_poses])
    cdf = np.cumsum(_contact_weights(*se3_inverse(q0, p0), scene, grasp, cfg), axis=1)
    cdf /= cdf[:, -1:]

    if t_max is None:
        t = np.full(n, cfg.t)
    else:
        log_lo = math.log(cfg.t)
        t = np.exp(log_lo + rng.random(n) * (math.log(t_max) - log_lo))
    demo = rng.integers(0, len(demo_poses), n)
    p_de = grasp.positions[np.count_nonzero(cdf[demo] <= rng.random(n)[:, None], axis=1)]
    delta_q, delta_p = brownian_sample_batch(t, rng)

    q_t, p_t = se3_compose(q0[demo], p0[demo], _IDENTITY_Q, p_de)
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
    comps = _single_component(*se3_inverse(g0.r.q, g0.p), p_de)
    return Twist.from_array(_kernel_score(g.r.q[None, :], g.p[None, :], comps, t)[0])


def _demo_components(demo_poses: Sequence[Pose], scene: PointCloud, grasp: PointCloud,
                     cfg: DiffusionConfig, log_demo_weight: float = 0.0) -> _Components:
    """Every (demo, grasp point) component with nonzero contact weight."""
    q0inv, p0inv = se3_inverse(np.stack([g.r.q for g in demo_poses]), np.stack([g.p for g in demo_poses]))
    w = _contact_weights(q0inv, p0inv, scene, grasp, cfg)
    slots = np.count_nonzero(w > 0.0, axis=1).max()
    points = np.zeros((len(w), slots, 3))
    logw = np.full((len(w), slots), -np.inf)
    for d, wd in enumerate(w):
        keep = (wd > 0.0).nonzero()[0]
        points[d, :keep.size] = grasp.positions[keep]
        logw[d, :keep.size] = np.log(wd[keep]) + log_demo_weight
    return _components(q0inv, p0inv, points, logw)


def _frames(q: np.ndarray, p: np.ndarray, comps: _Components):
    """Kernel frames g_m = g0_d^-1 g per demo and pose, demo-major.

    Returns R_m (D, 3, 3, N), p_m (D, 3, N), and the rotation vectors
    (D, 3, N) and angles (D, N) of R_m: the ``lie`` kernels of
    ``quat_to_matrix``, ``quat_rotate(q0inv, p) + p0inv``, ``quat_log`` and
    the norm, of ``quat_mul(q0inv, q)``, over (D, 1) by (N,) broadcasts.
    """
    # contiguous component-first operands, so that every product is laid out (3, D, N)
    a = np.ascontiguousarray(comps.q0inv.T)[:, :, None]  # (4, D, 1)
    qt = np.ascontiguousarray(q.T)[:, None]  # (4, 1, N)
    w, v = _mul(a[0], a[1:], qt[0], qt[1:])  # (D, N), (3, D, N)
    rotvec = _log(w, v)
    pm = (_rotate(a[0], a[1:], np.ascontiguousarray(p.T)[:, None])
          + np.ascontiguousarray(comps.p0inv.T)[:, :, None])
    return (_matrix(w, v).transpose(2, 0, 1, 3), pm.transpose(1, 0, 2), rotvec.transpose(1, 0, 2),
            _norm(rotvec))


def _kernel_terms(q: np.ndarray, p: np.ndarray, comps: _Components, t: float):
    """Kernel frames per demo and pose, and log terms per component, demo-major.

    The kernel argument of component (d, k) is h = T(-k) g0_d^-1 g T(k),
    with rotation R_m of g_m = g0_d^-1 g and translation
    p_h = p_m + R_m k - k.  Returns the frames of ``_frames``, the (D, N)
    IGSO(3) score ratios f'/f of the angles, and the (D, K, N) log terms
    log w_k + log N(p_h; 0, tI) + log f(theta): the rotational density and
    its ratio are taken once per demo and pose
    (``igso3.igso3_log_density_and_ratio``), and |p_h|^2 one coordinate at
    a time over every component and pose, into reused buffers, as
    sum_i ((R_i0 k_0 + R_i1 k_1 + R_i2 k_2) + p_m,i - k_i)^2 in that order,
    which fixes the bits of ``kernel_log_density``.
    """
    rm, pm, rotvec, theta = _frames(q, p, comps)
    k = comps.points[:, :, :, None]  # (D, 3, K, 1)
    ph, term, p2 = (np.empty(k.shape[:1] + k.shape[2:3] + q.shape[:1]) for _ in range(3))
    for i in range(3):
        r = rm[:, i, :, None]  # row i of R_m, (D, 3, 1, N)
        np.multiply(r[:, 0], k[:, 0], out=ph)
        ph += np.multiply(r[:, 1], k[:, 1], out=term)
        ph += np.multiply(r[:, 2], k[:, 2], out=term)
        ph += pm[:, i, None]
        ph -= k[:, i]
        if i == 0:
            np.multiply(ph, ph, out=p2)
        else:
            p2 += np.multiply(ph, ph, out=ph)
    log_f, ratio = igso3.igso3_log_density_and_ratio(np.minimum(theta, math.pi), _ig_params(t))
    # logw + (-1.5 log(2 pi t) - p2 / (2t)) + log_f, formed in p2
    p2 /= 2.0 * t
    np.subtract(-1.5 * math.log(2.0 * math.pi * t), p2, out=p2)
    p2 += comps.logw[:, :, None]
    p2 += log_f[:, None]
    return rm, pm, rotvec, theta, ratio, p2


def _log_mixture(q: np.ndarray, p: np.ndarray, comps: _Components, t: float) -> np.ndarray:
    """(N,) log sum over components of w_k B_t(h), by log-sum-exp over each pose's (D, K) terms."""
    logs = np.ascontiguousarray(np.moveaxis(_kernel_terms(q, p, comps, t)[-1], -1, 0))
    m = np.max(logs, axis=(1, 2))
    return m + np.log(np.sum(np.exp(logs - m[:, None, None]), axis=(1, 2)))


def _kernel_score(q: np.ndarray, p: np.ndarray, comps: _Components, t: float):
    """(N, 6) density-weighted mixture scores.

    Component (d, k) contributes [Ad_{T(k)}]^-T grad log B_t(h):
    s_nu = -R_m^T p_h / t = -(a_d + k - R_m^T k) / t with a_d = R_m^T p_m,
    and s_om = k x s_nu + s_rot,d, the IGSO(3) score of R_m.  Their
    weighted sums therefore need only the per-demo moments W = sum w,
    K = sum w k and M = sum w k k^T, one ``einsum`` over the components
    (not BLAS, so that a row keeps its bits in any batch):

        sum w s_nu = -(1/t) sum_d (W a + K - R^T K)
        sum w s_om = sum_d (-(1/t) (K x a - vee(M R)) + W s_rot)

    with vee(X) = (X12 - X21, X20 - X02, X01 - X10) = sum_m M_m x R_m over
    matching rows.  The demo sums are one reduction over the first axis of
    the stacked (D, 10, N) terms, which adds each pose's terms in the same
    order in any batch.  Kernel angles within 1e-6 of pi are clamped
    (``igso3.score_ratio``).
    """
    rm, pm, rotvec, theta, ratio, logs = _kernel_terms(q, p, comps, t)
    logs -= np.max(logs, axis=(0, 1))
    moments = np.einsum("dkf,dkn->dfn", comps.features, np.exp(logs, out=logs))
    w, k = moments[:, :1], moments[:, 1:4]
    a = (rm[:, 0] * pm[:, :1] + rm[:, 1] * pm[:, 1:2]) + rm[:, 2] * pm[:, 2:]
    rt_k = (rm[:, 0] * k[:, :1] + rm[:, 1] * k[:, 1:2]) + rm[:, 2] * k[:, 2:]
    terms = np.empty((w.shape[0], 10, w.shape[2]))
    np.subtract(w * a + k, rt_k, out=terms[:, :3])
    vee = np.sum(moments[:, _OUTER_NEXT] * rm[:, :, _PREV] - moments[:, _OUTER_PREV] * rm[:, :, _NEXT], axis=1)
    np.subtract(_cross(k.swapaxes(0, 1), a.swapaxes(0, 1)).swapaxes(0, 1), vee, out=terms[:, 3:6])
    np.multiply((w[:, 0] * ratio / np.where(theta < 1e-12, 1.0, theta))[:, None], rotvec, out=terms[:, 6:9])
    terms[:, 9] = w[:, 0]
    sums = np.sum(terms, axis=0)
    out = np.empty((q.shape[0], 6))
    out[:, :3] = (sums[:3] / (-t * sums[9])).T
    out[:, 3:] = ((sums[3:6] / -t + sums[6:9]) / sums[9]).T
    return out


def kernel_log_density(q: np.ndarray, p: np.ndarray, demo_poses: Sequence[Pose], scene: PointCloud,
                       grasp: PointCloud, cfg: DiffusionConfig) -> np.ndarray:
    """(N,) log (1/D) sum_g0 sum_p w_p B_t((g0 <| p)^-1 (g <| p)) of (N, 4)/(N, 3) pose stacks g.

    The mixture over the D ``demo_poses`` g0 whose score ``MixtureScore``
    takes; ``(g0,)`` gives one demo's kernel.  ``<|`` is right
    multiplication by the pure translation T(p); the sum is one log-sum-exp
    over the (demo, grasp point) components with nonzero contact weight,
    whose weights are computed once per call, so pass every pose at once.
    """
    if len(scene) == 0 or len(grasp) == 0:
        raise ValueError("empty point cloud")
    if len(demo_poses) == 0:
        raise ValueError("no demo poses")
    comps = _demo_components(demo_poses, scene, grasp, cfg, -math.log(len(demo_poses)))
    return _log_mixture(q, p, comps, cfg.t)


class MixtureScore:
    """Exact score of the Dirac-mixture diffused marginal.

    Components are (demo, grasp point) pairs weighted by uniform demo
    weights times contact weights; the score is the density-weighted
    average of the adjoint-transported kernel scores, with weights taken
    in log space.  Every demo's components are laid out once, at
    construction, padded to the largest count, and ``score_batch``
    evaluates them all in one pass over a pose batch (used by the
    annealed sampler).
    """

    def __init__(self, demos: DemoSet, cfg: DiffusionConfig):
        scene, grasp = demos.shared_clouds()
        self._components = _demo_components([g0 for g0, _, _ in demos.demos], scene, grasp,
                                            cfg, -math.log(len(demos)))

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores for quaternion/translation stacks at time t.

        One pass over every component: the frames g0^-1 g and the IGSO(3)
        log density and score are formed once per pose and demo, each
        component adds only its kernel translation and log weight, and the
        weighted score sums come from three per-demo moments of the weights
        (``_kernel_score``).  Kernel angles within 1e-6 of pi are clamped
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
