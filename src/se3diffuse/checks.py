"""Machine-checkable invariant suites behind the ``check`` CLI command.

Each check returns its maximum observed error against a pinned
tolerance.  The equivariance suite accepts an injectable adjoint
inverse-transpose so a deliberately perturbed adjoint (the negative
control) makes the suite fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels, igso3
from .diffusion import DemoSet, DiffusionConfig, MixtureScore, kernel_log_density
from .fields import assemble_score, build_query_set
from .irreps import (
    IrrepsLayout,
    IrrepsVector,
    cg_contract_to1,
    cg_paths,
    rep_apply,
    spherical_harmonics,
    wigner_d,
)
from .lie import (
    Pose,
    Twist,
    adjoint,
    adjoint_inv_transpose,
    compose,
    exp_se3,
    exp_so3,
    inverse,
    log_se3,
    log_so3,
    random_rotation,
)
from .pointcloud import transform

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _random_pose(rng: np.random.Generator, scale: float = 1.0) -> Pose:
    return Pose(scale * rng.standard_normal(3), random_rotation(rng))


def _random_twist(rng: np.random.Generator, max_angle: float = 2.8) -> Twist:
    omega = rng.standard_normal(3)
    omega *= rng.uniform(0.05, max_angle) / np.linalg.norm(omega)
    return Twist(rng.standard_normal(3), omega)


# ---------------------------------------------------------------------------
# lie suite
# ---------------------------------------------------------------------------

def _check_lie(rng: np.random.Generator) -> list[CheckResult]:
    err_rt = 0.0
    err_ad = 0.0
    err_conj = 0.0
    err_inv = 0.0
    for _ in range(100):
        xi = _random_twist(rng)
        err_rt = max(err_rt, float(np.max(np.abs(
            log_se3(exp_se3(xi)).as_array() - xi.as_array()))))
        w = xi.omega
        err_rt = max(err_rt, float(np.max(np.abs(log_so3(exp_so3(w)) - w))))
        a, b = _random_pose(rng), _random_pose(rng)
        err_ad = max(err_ad, float(np.max(np.abs(
            adjoint(compose(a, b)) - adjoint(a) @ adjoint(b)))))
        h = exp_se3(Twist(0.01 * rng.standard_normal(3), 0.01 * rng.standard_normal(3)))
        lhs = adjoint(a) @ log_se3(h).as_array()
        rhs = log_se3(compose(compose(a, h), inverse(a))).as_array()
        err_conj = max(err_conj, float(np.max(np.abs(lhs - rhs))))
        gi = compose(a, inverse(a))
        err_inv = max(err_inv, float(np.max(np.abs(gi.p))),
                      float(abs(gi.r.angle)))
    return [
        CheckResult("exp/log round trips", err_rt, 1e-10),
        CheckResult("adjoint homomorphism", err_ad, 1e-10),
        CheckResult("adjoint conjugation identity", err_conj, 1e-8),
        CheckResult("compose/inverse identity", err_inv, 1e-12),
    ]


# ---------------------------------------------------------------------------
# irreps suite
# ---------------------------------------------------------------------------

def _check_irreps(rng: np.random.Generator) -> list[CheckResult]:
    err_hom = 0.0
    err_d1 = 0.0
    err_sh = 0.0
    err_cg = 0.0
    err_period = 0.0
    for _ in range(40):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        for l in range(5):
            err_hom = max(err_hom, float(np.max(np.abs(
                wigner_d(l, r1) @ wigner_d(l, r2) - wigner_d(l, r1.compose(r2))))))
        err_d1 = max(err_d1, float(np.max(np.abs(wigner_d(1, r1) - r1.matrix()))))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for l in range(4):
            err_sh = max(err_sh, float(np.max(np.abs(
                spherical_harmonics(l, r1.apply(u)) - wigner_d(l, r1) @ spherical_harmonics(l, u)))))
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    full_turn = exp_so3(2.0 * math.pi * axis)
    for l in range(5):
        err_period = max(err_period, float(np.max(np.abs(
            wigner_d(l, full_turn) - np.eye(2 * l + 1)))))
    layout = IrrepsLayout(((0, 1), (1, 1), (2, 1)))
    n_paths = len(cg_paths(layout, layout))
    for _ in range(25):
        r = random_rotation(rng)
        v = IrrepsVector(layout, rng.standard_normal(layout.dim))
        w = IrrepsVector(layout, rng.standard_normal(layout.dim))
        weights = rng.standard_normal(n_paths)
        lhs = cg_contract_to1(rep_apply(layout, r, v), rep_apply(layout, r, w), weights)
        rhs = r.apply(cg_contract_to1(v, w, weights))
        err_cg = max(err_cg, float(np.max(np.abs(lhs - rhs))))
    return [
        CheckResult("wigner-D homomorphism (l<=4)", err_hom, 1e-9),
        CheckResult("D_1(R) = R", err_d1, 1e-12),
        CheckResult("full-turn periodicity", err_period, 1e-9),
        CheckResult("spherical-harmonic steerability (l<=3)", err_sh, 1e-9),
        CheckResult("CG-to-type-1 equivariance", err_cg, 1e-9),
    ]


# ---------------------------------------------------------------------------
# igso3 suite
# ---------------------------------------------------------------------------

def _check_igso3(rng: np.random.Generator) -> list[CheckResult]:
    err_norm = 0.0
    for eps in (0.05, 0.5, 2.0):
        params = igso3.IgParams(eps=eps)
        grid = np.linspace(0.0, math.pi, 10001)
        pdf = igso3.angle_pdf(grid, params)
        total = float(np.trapezoid(pdf, grid))
        err_norm = max(err_norm, abs(total - 1.0))
    params = igso3.IgParams(eps=0.5)
    limit = sum((2 * l + 1) ** 2 * math.exp(-0.5 * l * (l + 1)) for l in range(40))
    err_limit = abs(igso3.igso3_density(0.0, params) - limit)
    # the two regimes meet at EPS_SERIES: closed form just below, series at and above
    thetas = np.linspace(0.05, math.pi, 64)
    eps, lmax = igso3.EPS_SERIES, igso3.SERIES_LMAX
    f_series = _kernels.series_f(thetas, eps, lmax)
    ratio_series = _kernels.series_df(thetas, eps, lmax) / f_series
    err_regimes = max(float(np.max(np.abs(_kernels.closed_f(thetas, eps) / f_series - 1.0))),
                      float(np.max(np.abs(_kernels.closed_ratio(thetas, eps) / ratio_series - 1.0))))
    err_fd = 0.0
    for _ in range(20):
        r = random_rotation(rng)
        if r.angle > 2.9 or r.angle < 0.1:
            continue
        score = igso3.igso3_score(r, params)
        fd = _fd_rotation_score(r, params)
        err_fd = max(err_fd, float(np.linalg.norm(score - fd) / np.linalg.norm(fd)))
    return [
        CheckResult("angle-marginal normalization", err_norm, 1e-5),
        CheckResult("density continuity at zero angle", err_limit, 1e-7),
        CheckResult("closed form and series agree at EPS_SERIES", err_regimes, 1e-12),
        CheckResult("score vs finite differences", err_fd, 1e-4),
    ]


def _fd_rotation_score(r, params, step: float = 1e-5) -> np.ndarray:
    out = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        fp = math.log(igso3.igso3_density(r.compose(exp_so3(e)).angle, params))
        fm = math.log(igso3.igso3_density(r.compose(exp_so3(-e)).angle, params))
        out[i] = (fp - fm) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# equivariance suite (kernel, oracle, score model)
# ---------------------------------------------------------------------------

def _check_equivariance(rng: np.random.Generator,
                        adjoint_inv_t: Callable[[Pose], np.ndarray] = adjoint_inv_transpose
                        ) -> list[CheckResult]:
    from .scenario import make_toy_scenario

    scn = make_toy_scenario(seed=11)
    cfg = DiffusionConfig(t=0.5, r=scn.config.r, L=1.0)
    demos = scn.demo_set()
    g0 = scn.demo_poses[0]
    base_pose = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3),
                                          0.3 * rng.standard_normal(3))))
    oracle = MixtureScore(demos, cfg)
    base_kernel = kernel_log_density(base_pose.r.q[None], base_pose.p[None], g0,
                                     scn.scene, scn.grasp, cfg)[0]
    base_oracle = oracle(base_pose, cfg.t).as_array()

    err_left = 0.0
    err_right = 0.0
    err_oracle = 0.0
    for _ in range(10):
        dg = _random_pose(rng, scale=0.7)
        g_left = compose(dg, base_pose)
        lhs = kernel_log_density(g_left.r.q[None], g_left.p[None], compose(dg, g0),
                                 transform(scn.scene, dg), scn.grasp, cfg)[0]
        err_left = max(err_left, abs(lhs - base_kernel))
        dgi = inverse(dg)
        g_right = compose(base_pose, dgi)
        rhs = kernel_log_density(g_right.r.q[None], g_right.p[None], compose(g0, dgi),
                                 scn.scene, transform(scn.grasp, dg), cfg)[0]
        err_right = max(err_right, abs(rhs - base_kernel))

        moved = DemoSet(tuple((compose(gd, dgi), s, transform(gr, dg))
                              for gd, s, gr in demos.demos))
        s_moved = MixtureScore(moved, cfg)(compose(base_pose, dgi), cfg.t).as_array()
        expected = adjoint_inv_t(dg) @ base_oracle
        err_oracle = max(err_oracle, float(np.max(np.abs(s_moved - expected))))

    model = scn.model
    query = build_query_set(scn.grasp, model)
    base_model = assemble_score(base_pose, scn.scene, scn.grasp, cfg.t, cfg.L,
                                query, model).as_array()
    err_model = 0.0
    for _ in range(10):
        dg = _random_pose(rng, scale=0.7)
        left = assemble_score(compose(dg, base_pose), transform(scn.scene, dg),
                              scn.grasp, cfg.t, cfg.L, query, model).as_array()
        err_model = max(err_model, float(np.max(np.abs(left - base_model))))
        dgi = inverse(dg)
        grasp_moved = transform(scn.grasp, dg)
        query_moved = build_query_set(grasp_moved, model)
        right = assemble_score(compose(base_pose, dgi), scn.scene, grasp_moved,
                               cfg.t, cfg.L, query_moved, model).as_array()
        expected = adjoint_inv_t(dg) @ base_model
        err_model = max(err_model, float(np.max(np.abs(right - expected))))
    return [
        CheckResult("kernel left bi-equivariance", err_left, 1e-9),
        CheckResult("kernel right bi-equivariance", err_right, 1e-9),
        CheckResult("oracle adjoint covariance", err_oracle, 1e-8),
        CheckResult("score-model bi-equivariance", err_model, 1e-8),
    ]


def _perturbed_adjoint_inv_transpose(g: Pose) -> np.ndarray:
    out = adjoint_inv_transpose(g)
    out[3, 0] += 1e-3
    return out


SUITES = ("lie", "irreps", "igso3", "equivariance")


def run_suite(suite: str, seed: int = 0, perturb_adjoint: bool = False) -> list[CheckResult]:
    """Run one named suite (or 'all'); the perturbation flag is a negative control."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name == "lie":
            results.extend(_check_lie(rng))
        elif name == "irreps":
            results.extend(_check_irreps(rng))
        elif name == "igso3":
            results.extend(_check_igso3(rng))
        elif name == "equivariance":
            adj = _perturbed_adjoint_inv_transpose if perturb_adjoint else adjoint_inv_transpose
            results.extend(_check_equivariance(rng, adjoint_inv_t=adj))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
