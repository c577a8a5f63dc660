"""Correctness checks on the files each workload wrote.

Every check compares against a reference from ``refs`` (computed apart
from the program) or against a property the method must have.  Each
function returns ``(failed operations, problems)``; a non-empty problem
list fails the run, and every failed operation is a problem.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import refs

ROT_HIT = math.radians(5.0)  # a chain "hits" a demo within 5 degrees ...
TRANS_HIT = 0.05  # ... and 0.05 length units
HIT_SHARE = 0.90
LOGDENS_RTOL = 1e-8
RECOMPOSE_TOL = 1e-9
EQUIVARIANCE_TOL = 1e-8
MOMENT_Z = 5.0
TRANSFORMS = 2  # random transforms per chain in the bi-equivariance check


def _final_poses(path: Path, geo: refs.Scene):
    comments, p, q = refs.read_pose_file(path)
    return comments, p / geo.length_unit, q


def _failed_chains(path: Path, chains: list[dict], problems: list[str]) -> np.ndarray:
    """Mask of chains not reported ok; any such chain is a problem."""
    failed = np.array([c["status"] != "ok" for c in chains], dtype=bool)
    if failed.any():
        problems.append(f"{path.name}: chain(s) {np.nonzero(failed)[0].tolist()} "
                        f"did not end ok")
    return failed


def denoise_oracle(files: list[Path], geo: refs.Scene, rng: np.random.Generator):
    """Demo hits over all chains (a failed chain is a miss), and the log density."""
    failed, problems = 0, []
    for path in files:
        comments, p, q = _final_poses(path, geo)
        chains = refs.parse_chains(comments)
        if len(chains) != p.shape[0]:
            problems.append(f"{path.name}: {len(chains)} chain reports for {p.shape[0]} poses")
            continue
        bad = _failed_chains(path, chains, problems)
        failed += int(np.sum(bad))
        rot, tr = refs.nearest_demo(geo, p, q)
        hit = (rot <= ROT_HIT) & (tr <= TRANS_HIT) & ~bad[:, None]
        share = float(np.mean(np.any(hit, axis=1)))
        if share < HIT_SHARE:
            problems.append(f"{path.name}: {share:.0%} of chains within 5 deg / 0.05 L of a demo")
        missed = np.nonzero(~np.any(hit, axis=0))[0]
        if missed.size:
            problems.append(f"{path.name}: no chain reached demo(s) {missed.tolist()}")
        reported = np.array([c["log_mixture_density"] for c in chains])[~bad]
        ref = refs.log_mixture_density(geo, p[~bad], q[~bad], geo.t_final)
        rel = np.abs(reported - ref) / np.maximum(np.abs(ref), 1e-300)
        if not np.all(rel <= LOGDENS_RTOL):
            k = int(np.argmax(rel))
            problems.append(f"{path.name}: log_mixture_density off by {rel[k]:.2e} relative "
                            f"({reported[k]!r} vs reference {ref[k]!r})")
    return failed, problems


def denoise_model(files: list[Path], geo: refs.Scene, rng: np.random.Generator,
                  scenario_path: Path):
    """Unit final quaternions, and bi-equivariance of the model score there."""
    from se3diffuse.fields import assemble_score, build_query_set
    from se3diffuse.lie import Pose, Rotation
    from se3diffuse.pointcloud import PointCloud
    from se3diffuse.scenario import read_scenario

    model = read_scenario(scenario_path).model
    scene, grasp = PointCloud(geo.scene), PointCloud(geo.grasp)
    query = build_query_set(grasp, model)
    t = geo.t_final

    def score(p, q, scene_pts, grasp_cloud, query_set):
        pose = Pose(p, Rotation(q))
        return assemble_score(pose, PointCloud(scene_pts), grasp_cloud, t, 1.0,
                              query_set, model).as_array()

    failed, problems, worst = 0, [], 0.0
    for path in files:
        comments, p, q = _final_poses(path, geo)
        failed += int(np.sum(_failed_chains(path, refs.parse_chains(comments), problems)))
        norms = np.linalg.norm(q, axis=1)
        if not (np.all(np.isfinite(p)) and np.all(np.abs(norms - 1.0) <= 1e-12)):
            problems.append(f"{path.name}: non-finite pose or quaternion norm off 1")
            continue
        for pi, qi in zip(p, q):
            base = score(pi, qi, scene.positions, grasp, query)
            for dp, dq in zip(0.7 * rng.standard_normal((TRANSFORMS, 3)),
                              refs.random_quats(rng, TRANSFORMS)):
                rd = refs.qmat(dq)
                left = score(rd @ pi + dp, refs.qmul(dq, qi), geo.scene @ rd.T + dp, grasp, query)
                moved = PointCloud(geo.grasp @ rd.T + dp)
                right = score(pi - refs.qmat(qi) @ rd.T @ dp, refs.qmul(qi, refs.qconj(dq)),
                              geo.scene, moved, build_query_set(moved, model))
                expected = refs.adjoint_inv_transpose(dp, dq) @ base
                worst = max(worst, float(np.max(np.abs(left - base))),
                            float(np.max(np.abs(right - expected))))
    if not worst < EQUIVARIANCE_TOL:
        problems.append(f"model score bi-equivariance error {worst:.2e} >= {EQUIVARIANCE_TOL}")
    return failed, problems


def diffuse(files: list[Path], geo: refs.Scene, rng: np.random.Generator):
    """Recomposition to a demo, contact at p_de, and the Brownian moments."""
    problems = []
    counts = [refs.contact_counts(refs.scene_in_body(geo, d), geo.grasp, geo.r)
              for d in range(geo.demo_p.shape[0])]
    ts, dqs, dps = [], [], []
    for path in files:
        comments, gt_p, gt_q = _final_poses(path, geo)
        s = refs.parse_samples(comments)
        if s["t"].size != gt_p.shape[0]:
            problems.append(f"{path.name}: {s['t'].size} sample records for {gt_p.shape[0]} poses")
            continue
        p_de = s["p_de"] / geo.length_unit
        g0_p, g0_q = refs.recompose(gt_p, gt_q, p_de, s["dq"], s["dp"])
        dpos = np.linalg.norm(g0_p[:, None, :] - geo.demo_p[None, :, :], axis=-1)
        dquat = np.minimum(np.linalg.norm(g0_q[:, None, :] - geo.demo_q[None, :, :], axis=-1),
                           np.linalg.norm(g0_q[:, None, :] + geo.demo_q[None, :, :], axis=-1))
        demo = np.argmin(dpos + dquat, axis=1)
        rows = np.arange(demo.size)
        err = np.maximum(dpos[rows, demo], dquat[rows, demo])
        if not np.all(err <= RECOMPOSE_TOL):
            problems.append(f"{path.name}: sample recomposes {err.max():.2e} away from a demo")
        gdist = np.linalg.norm(p_de[:, None, :] - geo.grasp[None, :, :], axis=-1)
        gidx = np.argmin(gdist, axis=1)
        if not np.all(gdist[rows, gidx] <= 1e-12):
            problems.append(f"{path.name}: p_de is not a grasp point")
        contact = np.array([counts[d][g] for d, g in zip(demo, gidx)])
        if np.any(contact == 0):
            problems.append(f"{path.name}: {int(np.sum(contact == 0))} p_de without scene contact")
        ts.append(s["t"])
        dqs.append(s["dq"])
        dps.append(s["dp"])
    if ts:
        z_p, z_r = refs.brownian_moment_z(np.concatenate(ts), np.concatenate(dqs),
                                          np.concatenate(dps))
        if abs(z_p) > MOMENT_Z or abs(z_r) > MOMENT_Z:
            problems.append(f"Brownian moments off: z(|dp|^2) = {z_p:.2f}, "
                            f"z(1 + 2 cos theta) = {z_r:.2f}")
    return 0, problems
