"""Bi-equivariant score model built from synthetic descriptor fields.

A synthetic field places spherical-harmonic lobes on every cloud point
within a cutoff, with radial Gaussian profiles, optional color scalars,
and Gaussian gates over log-time mixed by a per-slot weight tensor.  The
construction is translation-invariant and exactly SO(3)-steerable, so it
satisfies the same equivariance contract as a learned descriptor field.

The assembled score follows the weighted-query-point summation: the
linear part averages the per-query score field, and the angular part is
the spin term plus the orbital lever-arm term, with the 1/(L sqrt(t))
and 1/sqrt(t) non-dimensionalization factors.  Inputs (poses, clouds,
queries, cutoffs) are in scene units; the returned twist is the score of
the non-dimensionalized diffusion process.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .irreps import IrrepsLayout, IrrepsVector, cg_paths, rep_apply_batch, sh_batch
from .irreps import cg_contract_batch as _contract_batch
from .lie import Pose, Rotation, Twist, cross, quat_conj, quat_rotate
from .pointcloud import PointCloud

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


def _edf_batch(xs: np.ndarray, pc: PointCloud, params: SyntheticEdfParams,
               t: float | None) -> np.ndarray:
    """Field coefficients (M, layout.dim) at query positions xs."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 3)
    out = np.zeros((xs.shape[0], params.layout.dim))
    if len(pc) == 0:
        return out
    gates = params.gate_values(t)
    colors = _color_features(pc)
    widths = np.asarray(params.radial_widths)
    slot_offsets = params.layout.slot_offsets()
    for m, x in enumerate(xs):
        d = pc.positions - x
        dist = np.linalg.norm(d, axis=1)
        keep = (dist <= params.cutoff) & (dist > 0.0)  # the p = x singular term is skipped
        if not np.any(keep):
            continue
        dist_k = dist[keep]
        dirs = -d[keep] / dist_k[:, None]  # unit vectors from point toward x
        radial = np.exp(-dist_k[:, None] ** 2 / (2.0 * widths[None, :] ** 2))  # (K, B)
        chan = np.einsum("kb,kc,g->kbcg", radial, colors[keep], gates)
        per_l: dict[int, np.ndarray] = {}
        for slot, (l, off) in enumerate(slot_offsets):
            if l not in per_l:
                per_l[l] = sh_batch(l, dirs)  # (K, 2l+1)
            scal = np.einsum("kbcg,bcg->k", chan, params.channel_weights[slot])
            out[m, off:off + 2 * l + 1] = scal @ per_l[l]
    return out


def synthetic_edf(x: np.ndarray, pc: PointCloud, params: SyntheticEdfParams,
                  t: float | None = None) -> IrrepsVector:
    """Descriptor field value at x generated by the cloud.

    Translation-invariant and exactly steerable:
    field(g x | g . O) = D(R_g) field(x | O).
    """
    coeffs = _edf_batch(np.asarray(x, dtype=np.float64).reshape(1, 3), pc, params, t)[0]
    return IrrepsVector(params.layout, coeffs)


def _scene_fields_body(q: np.ndarray, p: np.ndarray, qs: np.ndarray, scene: PointCloud,
                       params: SyntheticEdfParams, t: float) -> np.ndarray:
    """(N, Q, dim) back-rotated scene fields D(R^-1) phi_t(g x | O_s).

    One field evaluation over all N x Q world points g x for the pose
    stacks (q, p) and query points qs, then one rotation per pose.
    """
    n, m = q.shape[0], qs.shape[0]
    xs = quat_rotate(q[:, None, :], qs[None, :, :]) + p[:, None, :]
    phi = _edf_batch(xs.reshape(-1, 3), scene, params, t).reshape(n, m, params.layout.dim)
    for i in range(n):
        phi[i] = rep_apply_batch(params.layout, Rotation(quat_conj(q[i])), phi[i])
    return phi


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
    phi_body = _scene_fields_body(g.r.q[None, :], g.p[None, :], xs, scene, params_scene, t)[0]
    return _contract_batch(params_grasp.layout, psi, params_scene.layout, phi_body,
                           path_weights)[0]


@dataclass(frozen=True, eq=False)
class ScoreModelParams:
    """Everything the assembled score model needs besides the clouds.

    The scene and grasp descriptor fields are shared between the linear
    and angular branches (separate path weights), matching the reference
    design; pass scene_omega/grasp_omega to un-share them.
    """

    scene: SyntheticEdfParams
    grasp: SyntheticEdfParams
    weights_nu: np.ndarray
    weights_omega: np.ndarray
    weight_field: SyntheticEdfParams | None = None
    scene_omega: SyntheticEdfParams | None = None
    grasp_omega: SyntheticEdfParams | None = None
    query_count: int = 8
    query_start_index: int = 0

    def scene_for(self, branch: str) -> SyntheticEdfParams:
        if branch == "omega" and self.scene_omega is not None:
            return self.scene_omega
        return self.scene

    def grasp_for(self, branch: str) -> SyntheticEdfParams:
        if branch == "omega" and self.grasp_omega is not None:
            return self.grasp_omega
        return self.grasp


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

    The grasp field psi carries no time input and sits on the fixed query
    points, so it is evaluated here, once per distinct grasp-parameter
    object.  Each ``score_batch`` call evaluates the scene field once per
    distinct scene-parameter object over every pose and query point, and
    contracts each branch in one call.  A scalar call is a batch of one.
    """

    def __init__(self, scene: PointCloud, grasp: PointCloud, length_unit: float,
                 query: QuerySet, model: ScoreModelParams):
        self.scene = scene
        self.length_unit = length_unit
        self.query = query
        self.model = model
        grasp_nu, grasp_om = model.grasp_for("nu"), model.grasp_for("omega")
        self._psi_nu = _edf_batch(query.points, grasp, grasp_nu, None)
        self._psi_om = (self._psi_nu if grasp_om is grasp_nu
                        else _edf_batch(query.points, grasp, grasp_om, None))

    def score_parts(self, q: np.ndarray, p: np.ndarray,
                    t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s_nu, spin, orbital), each (N, 3), for quaternion/translation stacks.

        s_nu = 1/(L sqrt(t)) sum_q w(q) field_nu(g, q)
        spin = 1/sqrt(t)     sum_q w(q) field_omega(g, q)
        orbital = 1/sqrt(t)  sum_q w(q) (q / L) x field_nu(g, q)
        """
        if t <= 0.0:
            raise ValueError("t must be positive")
        q = np.asarray(q, dtype=np.float64).reshape(-1, 4)
        p = np.asarray(p, dtype=np.float64).reshape(-1, 3)
        n = q.shape[0]
        if len(self.query) == 0:
            warnings.warn("empty query set; returning zero score", RuntimeWarning, stacklevel=2)
            return np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3))
        model, qs, w = self.model, self.query.points, self.query.weights
        phi_nu, phi_om = self._scene_fields(q, p, t)
        f_nu = self._contract("nu", self._psi_nu, phi_nu, model.weights_nu)
        f_om = self._contract("omega", self._psi_om, phi_om, model.weights_omega)
        inv_sqrt_t = 1.0 / math.sqrt(t)
        wq = w[None, :, None]
        s_nu = (inv_sqrt_t / self.length_unit) * np.sum(wq * f_nu, axis=1)
        spin = inv_sqrt_t * np.sum(wq * f_om, axis=1)
        orbital = inv_sqrt_t * np.sum(wq * cross(qs / self.length_unit, f_nu), axis=1)
        return s_nu, spin, orbital

    def _path_fields(self, q: np.ndarray, p: np.ndarray,
                     t: float) -> tuple[np.ndarray, np.ndarray]:
        """(n_paths, N, Q, 3) score fields of every path, for the nu and omega branches.

        The scene fields are evaluated once; a path's fields are the
        branch contraction with that path's one-hot weights.
        """
        phi_nu, phi_om = self._scene_fields(q, p, t)

        def per_path(branch, psi, phi, n_paths):
            out = np.zeros((n_paths,) + phi.shape[:2] + (3,))
            for k, onehot in enumerate(np.eye(n_paths)):
                out[k] = self._contract(branch, psi, phi, onehot)
            return out

        return (per_path("nu", self._psi_nu, phi_nu, self.model.weights_nu.size),
                per_path("omega", self._psi_om, phi_om, self.model.weights_omega.size))

    def _scene_fields(self, q: np.ndarray, p: np.ndarray,
                      t: float) -> tuple[np.ndarray, np.ndarray]:
        """(N, Q, dim) back-rotated scene fields of the nu and omega branches.

        One evaluation per distinct scene-parameter object.
        """
        qs = self.query.points
        scene_nu, scene_om = self.model.scene_for("nu"), self.model.scene_for("omega")
        phi_nu = _scene_fields_body(q, p, qs, self.scene, scene_nu, t)
        phi_om = (phi_nu if scene_om is scene_nu
                  else _scene_fields_body(q, p, qs, self.scene, scene_om, t))
        return phi_nu, phi_om

    def _contract(self, branch: str, psi: np.ndarray, phi_body: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
        """(N, Q, 3) score fields of one branch: psi x->1 phi_body over all N x Q rows."""
        n, m, dim = phi_body.shape
        rows = _contract_batch(self.model.grasp_for(branch).layout,
                               np.broadcast_to(psi, (n, m, psi.shape[1])).reshape(n * m, -1),
                               self.model.scene_for(branch).layout,
                               phi_body.reshape(n * m, dim), weights)
        return rows.reshape(n, m, 3)

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
    qs, w, length_unit = score.query.points, score.query.weights, score.length_unit
    f_nu, f_om = score._path_fields(g.r.q[None, :], g.p[None, :], t)
    f_nu, f_om = f_nu[:, 0], f_om[:, 0]
    inv_sqrt_t = 1.0 / math.sqrt(t)
    n_nu, n_om = f_nu.shape[0], f_om.shape[0]
    out = np.zeros((6, n_nu + n_om))
    lin = inv_sqrt_t / length_unit * np.einsum("q,kqa->ka", w, f_nu)
    out[:3, :n_nu] = lin.T
    orbital = inv_sqrt_t * np.einsum("q,kqa->ka", w,
                                     cross(qs[None, :, :] / length_unit, f_nu))
    out[3:, :n_nu] = orbital.T
    spin = inv_sqrt_t * np.einsum("q,kqa->ka", w, f_om)
    out[3:, n_nu:] = spin.T
    return out


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
    b = targets.reshape(-1)
    ata = a.T @ a + ridge * np.eye(a.shape[1])
    sol = np.linalg.solve(ata, a.T @ b)
    n_nu = model.weights_nu.size
    return ScoreModelParams(
        scene=model.scene, grasp=model.grasp,
        weights_nu=sol[:n_nu], weights_omega=sol[n_nu:],
        weight_field=model.weight_field,
        scene_omega=model.scene_omega, grasp_omega=model.grasp_omega,
        query_count=model.query_count, query_start_index=model.query_start_index)


# ---------------------------------------------------------------------------
# Deterministic random parameter factories (tests, toy scenarios)
# ---------------------------------------------------------------------------

def random_edf_params(layout: IrrepsLayout, rng: np.random.Generator, cutoff: float,
                      radial_widths: tuple[float, ...] = (0.25, 0.6),
                      time_gate_centers: tuple[float, ...] = (-3.0, 0.0),
                      scale: float = 0.1) -> SyntheticEdfParams:
    n_slots = len(layout.slots())
    cw = scale * rng.standard_normal((n_slots, len(radial_widths), N_COLOR_CHANNELS,
                                      len(time_gate_centers)))
    return SyntheticEdfParams(layout, cutoff, radial_widths, cw, time_gate_centers)


def random_model_params(rng: np.random.Generator, cutoff: float,
                        layout: IrrepsLayout | None = None,
                        query_count: int = 8) -> ScoreModelParams:
    layout = layout or IrrepsLayout(((0, 2), (1, 2), (2, 1)))
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
        query_count=query_count,
    )
