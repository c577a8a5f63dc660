"""Bi-equivariant score model built from synthetic descriptor fields.

A synthetic field places spherical-harmonic lobes on every cloud point
within a cutoff, with radial Gaussian profiles, optional color scalars,
and Gaussian gates over log-time mixed by a per-slot weight tensor.  The
construction is translation-invariant and exactly SO(3)-steerable, so it
satisfies the same equivariance contract as a learned descriptor field.
Fields are evaluated in one pairwise pass over query-by-cloud pairs,
chunked under a fixed pair budget: a per-call table of colors times
gated channel weights is gathered per kept pair, each degree's harmonics
are computed once, and every lobe comes from one gather-multiply.  Each
query row is summed on its own, so a scalar call is bitwise a batch of one.

The assembled score follows the weighted-query-point summation: the
linear part averages the per-query score field, and the angular part is
the spin term plus the orbital lever-arm term, with the 1/(L sqrt(t))
and 1/sqrt(t) non-dimensionalization factors.  Inputs (poses, clouds,
queries, cutoffs) are in scene units; the returned twist is the score of
the non-dimensionalized diffusion process.

The field is a sum of harmonics of offset directions times invariant
scalars, so D(R^-1) phi(g x | O) = phi(x | g^-1 O): the score takes the
scene into each pose's body frame and needs no Wigner-D rotation.  The
grasp field on the fixed query points depends on neither the pose nor t,
so the score is linear in that body-frame field and in the path
weights.  The linear and angular branches read the same scene and grasp
fields and differ only in their path weights, so ``ModelScore`` folds
the rest into one per-path read-out tensor when it is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .irreps import IrrepsLayout, IrrepsVector, cg_contract_batch, cg_paths, sh_batch
from .irreps import cg_path_batch as _contract_batch
from .lie import Pose, Twist, cross, finite_poses, quat_to_matrix
from .pointcloud import PointCloud, pair_offsets

__all__ = [
    "SyntheticEdfParams",
    "QuerySet",
    "ScoreModelParams",
    "fps_select",
    "synthetic_edf",
    "score_field",
    "ModelScore",
    "assemble_score",
    "assemble_score_parts",
    "query_weights",
    "build_query_set",
    "score_design_matrix",
    "fit_path_weights",
    "random_edf_params",
    "random_model_params",
]

N_COLOR_CHANNELS = 4  # constant term plus r, g, b


@dataclass(frozen=True, eq=False)
class SyntheticEdfParams:
    """Deterministic descriptor-field parameters.

    channel_weights has shape (n_slots, n_radial, N_COLOR_CHANNELS,
    n_gates) and linearly mixes radial bases, color channels, and time
    gates into each irrep slot.
    """

    layout: IrrepsLayout
    cutoff: float
    radial_widths: tuple[float, ...]
    channel_weights: np.ndarray
    time_gate_centers: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        widths = tuple(float(w) for w in self.radial_widths)
        if not widths or any(w <= 0.0 for w in widths):
            raise ValueError("radial widths must be positive")
        centers = tuple(float(c) for c in self.time_gate_centers)
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("time-gate centers must be strictly increasing")
        n_slots = len(self.layout.slots())
        cw = np.asarray(self.channel_weights, dtype=np.float64).reshape(
            n_slots, len(widths), N_COLOR_CHANNELS, len(centers)).copy()
        cw.setflags(write=False)
        object.__setattr__(self, "radial_widths", widths)
        object.__setattr__(self, "time_gate_centers", centers)
        object.__setattr__(self, "channel_weights", cw)

    def gate_values(self, t: float | None) -> np.ndarray:
        """Gaussian bumps over log t; all ones when t is None (no gating)."""
        centers = np.asarray(self.time_gate_centers)
        if t is None:
            return np.ones(centers.size)
        width = centers[1] - centers[0] if centers.size > 1 else 1.0
        return np.exp(-((math.log(t) - centers) ** 2) / (2.0 * width**2))


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Query points in the end-effector frame with nonnegative weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3).copy()
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1).copy()
        if w.size != pts.shape[0]:
            raise ValueError("weights must match the number of query points")
        if np.any(w < 0.0):
            raise ValueError("query weights must be nonnegative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]


def fps_select(pc: PointCloud, n: int, start_index: int = 0) -> np.ndarray:
    """Greedy farthest-point sampling, returning the visited points.

    Deterministic: fixed start index, max-min distance ties broken by the
    lowest point index (first argmax).
    """
    if n > len(pc):
        raise ValueError(f"cannot select {n} points from a cloud of {len(pc)}")
    if n <= 0:
        raise ValueError("need at least one point")
    pts = pc.positions
    chosen = [start_index]
    d2 = np.sum((pts - pts[start_index]) ** 2, axis=1)
    while len(chosen) < n:
        idx = int(np.argmax(d2))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((pts - pts[idx]) ** 2, axis=1))
    return pts[chosen].copy()


def _color_features(pc: PointCloud) -> np.ndarray:
    feats = np.zeros((len(pc), N_COLOR_CHANNELS))
    feats[:, 0] = 1.0
    if pc.colors is not None:
        feats[:, 1:] = pc.colors
    return feats


@lru_cache(maxsize=None)
def _lobe_gather(layout: IrrepsLayout) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Distinct degrees, and per output column its slot and its harmonic column.

    The harmonics of the distinct degrees are concatenated in that order,
    so column c of the field is ``scal[:, slot[c]] * harmonics[:, harm[c]]``.
    """
    degrees = tuple(sorted({l for l, _ in layout.blocks}))
    first = {l: sum(2 * k + 1 for k in degrees if k < l) for l in degrees}
    slot, harm = [], []
    for s, l in enumerate(layout.slots()):
        slot.extend([s] * (2 * l + 1))
        harm.extend(range(first[l], first[l] + 2 * l + 1))
    slot, harm = np.array(slot), np.array(harm)
    slot.setflags(write=False)
    harm.setflags(write=False)
    return degrees, slot, harm


def _edf_batch(xs: np.ndarray, pc: PointCloud, params: SyntheticEdfParams,
               t: float | None, frames: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Field coefficients at query positions, one pairwise pass.

    xs (M, 3) gives (M, dim).  With ``frames``, (N, 4) quaternions and (N, 3)
    translations of poses g_n, the cloud is taken into each body frame,
    R_n^T (o - p_n), xs are (N, M, 3) body-frame points, and the result
    (N, M, dim) is phi(x | g_n^-1 O) = D(R_n^-1) phi(g_n x | O).
    """
    xs = np.asarray(xs, dtype=np.float64)
    cloud = pc.positions
    if frames is not None:  # the rows of (o - p) R are R^T (o - p)
        cloud = (cloud[None, :, :] - frames[1][:, None, :]) @ quat_to_matrix(frames[0])
    # (radial, points, slot) table of the colors times the gated channel weights
    table = np.einsum("pc,sbcg,g->bps", _color_features(pc), params.channel_weights,
                      params.gate_values(t))
    degrees, slot, harm = _lobe_gather(params.layout)
    scale = -0.5 / np.asarray(params.radial_widths) ** 2
    out = np.zeros((xs.size // 3, params.layout.dim))
    for rows, d in pair_offsets(xs, cloud):
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        keep = (d2 <= params.cutoff ** 2) & (d2 > 0.0)  # the p = x singular term is skipped
        pi = np.nonzero(keep)[1]
        d2_k = d2[keep]
        dirs = d[keep] / -np.sqrt(d2_k)[:, None]  # unit vectors from point toward x
        radial = np.exp(d2_k[:, None] * scale)  # (K, B)
        scal = sum(r[:, None] * tab[pi] for r, tab in zip(radial.T, table))  # (K, S), elementwise
        sh = np.concatenate([sh_batch(l, dirs) for l in degrees], axis=1)
        lobes = scal[:, slot] * sh[:, harm]
        counts = np.count_nonzero(keep, axis=1)
        hit = np.flatnonzero(counts)
        out[rows.start + hit] = np.add.reduceat(lobes, (np.cumsum(counts) - counts)[hit], axis=0)
    return out.reshape(xs.shape[:-1] + (params.layout.dim,))


def synthetic_edf(x: np.ndarray, pc: PointCloud, params: SyntheticEdfParams,
                  t: float | None = None) -> IrrepsVector:
    """Descriptor field value at x generated by the cloud.

    Translation-invariant and exactly steerable:
    field(g x | g . O) = D(R_g) field(x | O).
    """
    coeffs = _edf_batch(np.asarray(x, dtype=np.float64).reshape(1, 3), pc, params, t)[0]
    return IrrepsVector(params.layout, coeffs)


def score_field(g: Pose, x: np.ndarray, scene: PointCloud, grasp: PointCloud,
                t: float, params_scene: SyntheticEdfParams,
                params_grasp: SyntheticEdfParams, path_weights: np.ndarray) -> np.ndarray:
    """Dimensionless score-field vector at query x (end-effector frame).

    Contracts the grasp descriptor (no time conditioning) against the
    back-rotated scene descriptor at g x:
    psi(x | O_e) x->1 D(R^-1) phi_t(g x | O_s).
    """
    xs = np.reshape(x, (1, 3))
    psi = _edf_batch(xs, grasp, params_grasp, None)
    phi_body = _edf_batch(xs[None], scene, params_scene, t, frames=(g.r.q[None], g.p[None]))[0]
    return cg_contract_batch(params_grasp.layout, psi, params_scene.layout, phi_body,
                             path_weights)[0]


@dataclass(frozen=True, eq=False)
class ScoreModelParams:
    """Everything the assembled score model needs besides the clouds.

    Both branches read the same ``scene`` and ``grasp`` descriptor fields,
    as in the reference design, and differ only in their path weights:
    one weight per CG path of (grasp layout) x (scene layout) -> l = 1.
    ``query_count`` >= 1 query points are picked by farthest-point
    sampling from the grasp point ``query_start_index`` >= 0.
    """

    scene: SyntheticEdfParams
    grasp: SyntheticEdfParams
    weights_nu: np.ndarray
    weights_omega: np.ndarray
    weight_field: SyntheticEdfParams | None = None
    query_count: int = 8
    query_start_index: int = 0

    def __post_init__(self) -> None:
        for name, low in (("query_count", 1), ("query_start_index", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        n_paths = len(cg_paths(self.grasp.layout, self.scene.layout))
        for name in ("weights_nu", "weights_omega"):
            if np.shape(getattr(self, name)) != (n_paths,):
                raise ValueError(f"{name} needs {n_paths} weights, one per CG path")


def query_weights(points: np.ndarray, grasp: PointCloud,
                  weight_field: SyntheticEdfParams | None) -> np.ndarray:
    """Invariant query weights from a scalar (single l=0) descriptor field.

    Squared so the weights are nonnegative; uniform when no weight field
    is configured.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if weight_field is None:
        return np.full(points.shape[0], 1.0 / max(points.shape[0], 1))
    if weight_field.layout.slots() != [0]:
        raise ValueError("query weight field must have a single scalar output")
    vals = _edf_batch(points, grasp, weight_field, None)[:, 0]
    return vals**2


def build_query_set(grasp: PointCloud, model: ScoreModelParams) -> QuerySet:
    pts = fps_select(grasp, model.query_count, model.query_start_index)
    w = query_weights(pts, grasp, model.weight_field)
    total = w.sum()
    if total > 0.0:  # normalizing by an invariant sum preserves invariance
        w = w / total
    else:
        w = np.full(w.size, 1.0 / max(w.size, 1))
    return QuerySet(pts, w)


class ModelScore:
    """Assembled model score, vectorized over pose stacks.

    The grasp field psi on the fixed query points carries no time input,
    so it is evaluated once, here.  The score is then linear in the
    body-frame scene field phi(x | g^-1 O_s), an (N, Q, dim) stack, and in
    the path weights: the CG contraction against psi, the query weights
    and the lever arms fold into one per-path read-out tensor,
    (Q*dim, paths, 3), and one (Q*dim, 9) operator, its linear, orbital
    and spin columns weighted by each branch's path weights.  A score call
    evaluates the scene field in every pose's body frame once and
    contracts it with that operator, every row on its own; a pose with a
    non-finite entry or a quaternion off unit norm scores NaN.  A scalar
    call is a batch of one.
    """

    def __init__(self, scene: PointCloud, grasp: PointCloud, length_unit: float,
                 query: QuerySet, model: ScoreModelParams):
        self.scene = scene
        self.length_unit = length_unit
        self.query = query
        self.model = model
        dim = model.scene.layout.dim
        psi = np.repeat(_edf_batch(query.points, grasp, model.grasp, None), dim, axis=0)
        # (Q*dim, paths, 3) per-path rows w_q psi_q x->1 e_j, e_j the scene basis vectors
        self._paths = np.repeat(query.weights, dim)[:, None, None] * _contract_batch(
            model.grasp.layout, psi, model.scene.layout, np.tile(np.eye(dim), (len(query), 1)))
        arm = np.repeat(query.points / length_unit, dim, axis=0)
        self._paths_nu = np.concatenate(
            [self._paths / length_unit, cross(arm[:, None, :], self._paths)], axis=2)
        # (Q*dim, 9): linear, orbital and spin columns
        self._op = np.concatenate([np.einsum("kpc,p->kc", self._paths_nu, model.weights_nu),
                                   np.einsum("kpc,p->kc", self._paths, model.weights_omega)],
                                  axis=1)

    def score_parts(self, q: np.ndarray, p: np.ndarray,
                    t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s_nu, spin, orbital), each (N, 3), for quaternion/translation stacks.

        s_nu = 1/(L sqrt(t)) sum_q w(q) field_nu(g, q)
        spin = 1/sqrt(t)     sum_q w(q) field_omega(g, q)
        orbital = 1/sqrt(t)  sum_q w(q) (q / L) x field_nu(g, q)
        """
        if t <= 0.0:
            raise ValueError("t must be positive")
        q, p, bad = finite_poses(np.reshape(q, (-1, 4)), np.reshape(p, (-1, 3)))
        n = q.shape[0]
        if len(self.query) == 0:
            warnings.warn("empty query set; returning zero score", RuntimeWarning, stacklevel=2)
        phi = self._scene_field(q, p, t)
        # no BLAS here: einsum without optimize reduces each row alone
        out = np.einsum("nk,kc->nc", phi.reshape(n, -1), self._op) * (1.0 / math.sqrt(t))
        out[bad] = np.nan
        return out[:, :3], out[:, 6:], out[:, 3:6]

    def _scene_field(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, Q, dim) body-frame scene field at the query points."""
        qs = np.repeat(self.query.points[None], q.shape[0], axis=0)
        return _edf_batch(qs, self.scene, self.model.scene, t, frames=(q, p))

    def score_batch(self, q: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
        """(N, 6) scores, linear part first, for quaternion/translation stacks."""
        s_nu, spin, orbital = self.score_parts(q, p, t)
        return np.concatenate([s_nu, spin + orbital], axis=1)

    def __call__(self, g: Pose, t: float) -> Twist:
        return Twist.from_array(self.score_batch(g.r.q[None, :], g.p[None, :], t)[0])


def assemble_score_parts(g: Pose, scene: PointCloud, grasp: PointCloud, t: float,
                         length_unit: float, query: QuerySet,
                         model: ScoreModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s_nu, spin, orbital) pieces of the assembled score at one pose."""
    s_nu, spin, orbital = ModelScore(scene, grasp, length_unit, query, model).score_parts(
        g.r.q[None, :], g.p[None, :], t)
    return s_nu[0], spin[0], orbital[0]


def assemble_score(g: Pose, scene: PointCloud, grasp: PointCloud, t: float,
                   length_unit: float, query: QuerySet,
                   model: ScoreModelParams) -> Twist:
    """Full bi-equivariant model score: linear part plus spin + orbital."""
    return ModelScore(scene, grasp, length_unit, query, model)(g, t)


def _design_matrix(score: ModelScore, g: Pose, t: float) -> np.ndarray:
    """(6, n_nu + n_omega) Jacobian of ``score`` at (g, t) in its stacked path weights."""
    phi = score._scene_field(g.r.q[None, :], g.p[None, :], t).reshape(-1)
    inv_sqrt_t = 1.0 / math.sqrt(t)
    nu = inv_sqrt_t * np.einsum("k,kpc->cp", phi, score._paths_nu)  # (6, n_nu)
    spin = inv_sqrt_t * np.einsum("k,kpc->cp", phi, score._paths)
    return np.block([[nu[:3], np.zeros((3, spin.shape[1]))], [nu[3:], spin]])


def score_design_matrix(g: Pose, scene: PointCloud, grasp: PointCloud, t: float,
                        length_unit: float, query: QuerySet,
                        model: ScoreModelParams) -> np.ndarray:
    """Jacobian of the assembled score in the stacked path weights.

    The assembled score is linear in (weights_nu, weights_omega); this
    returns the (6, n_nu + n_omega) matrix so gradient-free fitting
    against oracle scores reduces to linear least squares.
    """
    return _design_matrix(ModelScore(scene, grasp, length_unit, query, model), g, t)


def fit_path_weights(poses_times: list[tuple[Pose, float]], targets: np.ndarray,
                     scene: PointCloud, grasp: PointCloud, length_unit: float,
                     query: QuerySet, model: ScoreModelParams,
                     ridge: float = 1e-10) -> ScoreModelParams:
    """Least-squares fit of the path weights to target score twists.

    Because the model is linear in its path weights, fitting against a
    batch of (pose, time) -> twist targets (e.g. the exact mixture
    oracle) needs no gradients.  The grasp field is evaluated once per
    fit.  Returns a copy of ``model`` with the fitted weights.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(len(poses_times), 6)
    score = ModelScore(scene, grasp, length_unit, query, model)
    a = np.concatenate([_design_matrix(score, g, t) for g, t in poses_times], axis=0)
    sol = np.linalg.solve(a.T @ a + ridge * np.eye(a.shape[1]), a.T @ targets.reshape(-1))
    n_nu = model.weights_nu.size
    return replace(model, weights_nu=sol[:n_nu], weights_omega=sol[n_nu:])


# ---------------------------------------------------------------------------
# Deterministic random parameter factories (tests, toy scenarios)
# ---------------------------------------------------------------------------

def random_edf_params(layout: IrrepsLayout, rng: np.random.Generator,
                      cutoff: float) -> SyntheticEdfParams:
    """Channel weights 0.1 N(0, 1), radial widths (0.25, 0.6), time gates at log t = -3, 0."""
    widths, centers = (0.25, 0.6), (-3.0, 0.0)
    cw = 0.1 * rng.standard_normal((len(layout.slots()), len(widths), N_COLOR_CHANNELS,
                                    len(centers)))
    return SyntheticEdfParams(layout, cutoff, widths, cw, centers)


def random_model_params(rng: np.random.Generator, cutoff: float) -> ScoreModelParams:
    """Scene and grasp fields on blocks ((0, 2), (1, 2), (2, 1)), a scalar weight field,
    10 query points."""
    layout = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    scene = random_edf_params(layout, rng, cutoff)
    grasp = random_edf_params(layout, rng, cutoff)
    wf = random_edf_params(IrrepsLayout(((0, 1),)), rng, cutoff)
    n_paths = len(cg_paths(layout, layout))
    return ScoreModelParams(
        scene=scene,
        grasp=grasp,
        weights_nu=rng.standard_normal(n_paths),
        weights_omega=rng.standard_normal(n_paths),
        weight_field=wf,
        query_count=10,
    )
