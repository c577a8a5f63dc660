"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and match the stated contracts; all
expected constants were computed from the independent oracles named in the
assertions.
"""

import math
import time

import numpy as np
import pytest

from se3diffuse.cli import main
from se3diffuse.diffusion import (
    BrownianScoreFn,
    DemoSet,
    DiffusionConfig,
    MixtureScore,
    brownian_log_density,
    brownian_sample,
    brownian_score,
    forward_diffuse,
    forward_diffuse_batch,
    kernel_log_density,
    marginal_score_oracle,
    target_score,
)
from se3diffuse.fields import assemble_score, build_query_set
from se3diffuse.igso3 import IgParams, angle_cdf_quadrature, angle_pdf, igso3_density, igso3_sample_quats, igso3_score
from se3diffuse.irreps import IrrepsLayout, IrrepsVector, cg_contract_to1, cg_paths, rep_apply, spherical_harmonics, wigner_d
from se3diffuse.lie import (
    Pose,
    Rotation,
    Twist,
    adjoint_inv_transpose,
    compose,
    exp_se3,
    exp_so3,
    inverse,
    quat_angle,
    quat_mul,
    quat_rotate,
    random_rotation,
    translation_pose,
)
from se3diffuse.pointcloud import transform
from se3diffuse.sampler import build_schedule, run_denoising
from se3diffuse.scenario import make_toy_scenario, sample_initial_poses


def report(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{flag}] {name}: {detail}", flush=True)
    assert passed, f"criterion {num}: {name}: {detail}"


def random_pose(rng, scale=1.0):
    return Pose(scale * rng.standard_normal(3), random_rotation(rng))


def fd_score(log_density, g, step=1e-5):
    out = np.empty(6)
    for i in range(6):
        e = np.zeros(6)
        e[i] = step
        fp = log_density(compose(g, exp_se3(Twist.from_array(e))))
        fm = log_density(compose(g, exp_se3(Twist.from_array(-e))))
        out[i] = (fp - fm) / (2.0 * step)
    return out


@pytest.fixture(scope="module")
def toy():
    return make_toy_scenario(seed=7)


def test_criterion_01_wigner_homomorphism():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    err_hom = 0.0
    err_d1 = 0.0
    for _ in range(200):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        r12 = r1.compose(r2)
        for l in range(5):
            err_hom = max(err_hom, float(np.max(np.abs(
                wigner_d(l, r1) @ wigner_d(l, r2) - wigner_d(l, r12)))))
        err_d1 = max(err_d1, float(np.max(np.abs(wigner_d(1, r1) - r1.matrix()))))
    elapsed = time.perf_counter() - start
    ok = err_hom < 1e-9 and err_d1 < 1e-12 and elapsed < 5.0
    report(1, "Wigner-D homomorphism", ok,
           f"hom_err={err_hom:.3e} (tol 1e-9), D1_err={err_d1:.3e} (tol 1e-12), "
           f"time={elapsed:.2f}s (< 5s)")


def test_criterion_02_spherical_harmonic_steerability():
    rng = np.random.default_rng(102)
    err = 0.0
    for _ in range(100):
        r = random_rotation(rng)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for l in range(4):
            lhs = spherical_harmonics(l, r.apply(u))
            rhs = wigner_d(l, r) @ spherical_harmonics(l, u)
            err = max(err, float(np.max(np.abs(lhs - rhs))))
    report(2, "spherical-harmonic steerability (l<=3)", err < 1e-9,
           f"max_err={err:.3e} (tol 1e-9)")


def test_criterion_03_cg_equivariance():
    rng = np.random.default_rng(103)
    layouts = [IrrepsLayout(((0, 2), (1, 2), (2, 1))),
               IrrepsLayout(((1, 1), (2, 1), (3, 1)))]
    err = 0.0
    for k in range(100):
        lay_a = layouts[k % 2]
        lay_b = layouts[(k // 2) % 2]
        n = len(cg_paths(lay_a, lay_b))
        r = random_rotation(rng)
        v = IrrepsVector(lay_a, rng.standard_normal(lay_a.dim))
        w = IrrepsVector(lay_b, rng.standard_normal(lay_b.dim))
        weights = rng.standard_normal(n)
        lhs = cg_contract_to1(rep_apply(lay_a, r, v), rep_apply(lay_b, r, w), weights)
        rhs = r.apply(cg_contract_to1(v, w, weights))
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    report(3, "CG-to-type-1 equivariance", err < 1e-9, f"max_err={err:.3e} (tol 1e-9)")


def test_criterion_04_igso3_normalization_and_zero_value():
    err_norm = 0.0
    for eps in (0.05, 0.5, 2.0):
        grid = np.linspace(0.0, math.pi, 20001)
        total = float(np.trapezoid(angle_pdf(grid, IgParams(eps=eps)), grid))
        err_norm = max(err_norm, abs(total - 1.0))
    # independent oracle: sum_{l} (2l+1)^2 exp(-0.5 l (l+1)); tail beyond l=40 < 1e-300
    ls = np.arange(41)
    expected = float(np.sum((2 * ls + 1) ** 2 * np.exp(-0.5 * ls * (ls + 1))))
    err_zero = abs(igso3_density(0.0, IgParams(eps=0.5)) - expected)
    ok = err_norm < 1e-5 and err_zero < 1e-4
    report(4, "IGSO(3) normalization and zero-angle density", ok,
           f"norm_err={err_norm:.3e} (tol 1e-5), density(0, 0.5)={expected:.5f} "
           f"oracle-derived, err={err_zero:.3e} (tol 1e-4)")


def test_criterion_05_igso3_sampling_ks():
    start = time.perf_counter()
    worst = 0.0
    for i, eps in enumerate((0.1, 0.5, 2.0)):
        params = IgParams(eps=eps)
        quats = igso3_sample_quats(params, np.random.default_rng(500 + i), 100_000)
        angles = np.sort(quat_angle(quats))
        grid, cdf = angle_cdf_quadrature(params)
        ca = np.interp(angles, grid, cdf)
        n = angles.size
        ks = float(np.max(np.maximum(np.arange(1, n + 1) / n - ca, ca - np.arange(n) / n)))
        worst = max(worst, ks)
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and elapsed < 10.0
    report(5, "IGSO(3) rejection sampling", ok,
           f"worst_KS={worst:.4f} (tol 0.01) at 1e5 samples, time={elapsed:.2f}s (< 10s)")


def test_criterion_06_score_finite_difference_correctness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for t in (0.05, 0.5, 1.0):
        params = IgParams(eps=0.5 * t)
        checked = 0
        while checked < 100:
            h = brownian_sample(t, rng)
            if h.r.angle > 2.9 or h.r.angle < 0.05:
                continue
            checked += 1
            # rotational series score
            s_rot = igso3_score(h.r, params)
            fd_rot = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-5
                fp = math.log(igso3_density(h.r.compose(exp_so3(e)).angle, params))
                fm = math.log(igso3_density(h.r.compose(exp_so3(-e)).angle, params))
                fd_rot[i] = (fp - fm) / 2e-5
            worst = max(worst, float(np.linalg.norm(s_rot - fd_rot) / np.linalg.norm(fd_rot)))
            # full kernel score
            s_full = brownian_score(h, t).as_array()
            fd_full = fd_score(lambda g: brownian_log_density(g, t), h)
            worst = max(worst, float(np.linalg.norm(s_full - fd_full) / np.linalg.norm(fd_full)))
            # adjoint-transported target score
            g0 = random_pose(rng)
            p_de = rng.standard_normal(3)
            tp = translation_pose(p_de)
            g = compose(compose(compose(g0, tp), h), inverse(tp))
            s_tgt = target_score(g, g0, p_de, t).as_array()

            def log_density(gg):
                hh = compose(compose(compose(inverse(tp), inverse(g0)), gg), tp)
                return brownian_log_density(hh, t)

            fd_tgt = fd_score(log_density, g)
            worst = max(worst, float(np.linalg.norm(s_tgt - fd_tgt) / np.linalg.norm(fd_tgt)))
    report(6, "score vs finite differences (igso3/brownian/target)", worst < 1e-4,
           f"worst_rel_err={worst:.3e} (tol 1e-4) over 100 states x t in {{0.05, 0.5, 1.0}}")


def test_criterion_07_kernel_bi_equivariance(toy):
    rng = np.random.default_rng(107)
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    g0 = toy.demo_poses[0]
    g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
    base = kernel_log_density(g.r.q[None], g.p[None], (g0,), toy.scene, toy.grasp, cfg)[0]
    err = 0.0
    for _ in range(100):
        dg = random_pose(rng, scale=0.7)
        g_left = compose(dg, g)
        left = kernel_log_density(g_left.r.q[None], g_left.p[None], (compose(dg, g0),),
                                  transform(toy.scene, dg), toy.grasp, cfg)[0]
        err = max(err, abs(left - base))
        dgi = inverse(dg)
        g_right = compose(g, dgi)
        right = kernel_log_density(g_right.r.q[None], g_right.p[None], (compose(g0, dgi),),
                                   toy.scene, transform(toy.grasp, dg), cfg)[0]
        err = max(err, abs(right - base))
    report(7, "kernel bi-equivariance (left and right)", err < 1e-9,
           f"max_err={err:.3e} (tol 1e-9), 100 transforms each side")


def test_criterion_08_oracle_score_covariance(toy):
    rng = np.random.default_rng(108)
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    g = compose(toy.demo_poses[1],
                exp_se3(Twist(0.2 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    base = marginal_score_oracle(g, demos, cfg).as_array()
    err = 0.0
    for _ in range(50):
        dg = random_pose(rng, scale=0.7)
        moved_left = DemoSet(tuple((compose(dg, gd), transform(s, dg), gr)
                                   for gd, s, gr in demos.demos))
        left = MixtureScore(moved_left, cfg)(compose(dg, g), cfg.t).as_array()
        err = max(err, float(np.max(np.abs(left - base))))
        dgi = inverse(dg)
        moved_right = DemoSet(tuple((compose(gd, dgi), s, transform(gr, dg))
                                    for gd, s, gr in demos.demos))
        right = MixtureScore(moved_right, cfg)(compose(g, dgi), cfg.t).as_array()
        err = max(err, float(np.max(np.abs(right - adjoint_inv_transpose(dg) @ base))))
    report(8, "oracle score left invariance and adjoint covariance", err < 1e-8,
           f"max_err={err:.3e} (tol 1e-8), 50 transforms")


def test_criterion_09_score_model_bi_equivariance(toy):
    rng = np.random.default_rng(109)
    model = toy.model
    g = compose(toy.demo_poses[2],
                exp_se3(Twist(0.1 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    query = build_query_set(toy.grasp, model)
    base = assemble_score(g, toy.scene, toy.grasp, 0.5, 1.0, query, model).as_array()
    err = 0.0
    for _ in range(50):
        dg = random_pose(rng, scale=0.6)
        left = assemble_score(compose(dg, g), transform(toy.scene, dg), toy.grasp,
                              0.5, 1.0, query, model).as_array()
        err = max(err, float(np.max(np.abs(left - base))))
        dgi = inverse(dg)
        grasp_moved = transform(toy.grasp, dg)
        query_moved = build_query_set(grasp_moved, model)
        right = assemble_score(compose(g, dgi), toy.scene, grasp_moved,
                               0.5, 1.0, query_moved, model).as_array()
        err = max(err, float(np.max(np.abs(right - adjoint_inv_transpose(dg) @ base))))
    report(9, "score-model bi-equivariance (with orbital cross term)", err < 1e-8,
           f"max_err={err:.3e} (tol 1e-8), 50 transforms")


def test_criterion_10_stationary_langevin():
    start = time.perf_counter()
    t_fix = 0.5
    schedule = build_schedule([(t_fix, t_fix, 450)], eps=0.02, k1=0.0, k2=0.0)
    chains = 10_000
    res = run_denoising(BrownianScoreFn(), np.tile(Pose.identity().r.q, (chains, 1)),
                        np.zeros((chains, 3)), schedule, np.random.default_rng(1010),
                        record="final")
    finals_p, finals_q = res.p, res.q
    cov = np.cov(finals_p.T)
    cov_err = float(np.max(np.abs(cov - t_fix * np.eye(3))))
    grid = np.linspace(0.0, math.pi, 20001)
    pdf = angle_pdf(grid, IgParams(eps=0.5 * t_fix))
    expected_cos = float(np.trapezoid(np.cos(grid) * pdf, grid) / np.trapezoid(pdf, grid))
    sample_cos = float(np.mean(np.cos(quat_angle(finals_q))))
    cos_rel = abs(sample_cos - expected_cos) / abs(expected_cos)
    elapsed = time.perf_counter() - start
    ok = cov_err < 0.05 * t_fix and cos_rel < 0.02 and elapsed < 60.0
    report(10, "stationary Langevin at fixed t=0.5", ok,
           f"cov_err={cov_err:.4f} (tol {0.05 * t_fix}), cos_rel_err={cos_rel:.4f} "
           f"(tol 0.02), {chains} retained samples, time={elapsed:.1f}s (< 60s)")


def test_criterion_11_mode_recovery(toy):
    start = time.perf_counter()
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)
    schedule = build_schedule([(1.0, 0.1, 150), (0.1, 0.01, 150)], eps=0.05,
                              k1=0.5, k2=1.0)  # paper-default exponents
    rng = np.random.default_rng(1011)
    chains = 100
    q0, p0 = sample_initial_poses(toy, rng, chains)
    res = run_denoising(oracle, q0, p0, schedule, rng, record="final")
    hits = np.zeros(len(toy.demo_poses), dtype=int)
    good = 0
    for q, p in zip(res.q, res.p):
        final = Pose(p, Rotation.from_unit(q))
        best = None
        for k, g0 in enumerate(toy.demo_poses):
            rel = compose(inverse(g0), final)
            rot = rel.r.angle
            tr = float(np.linalg.norm(final.p - g0.p))
            if best is None or rot + tr < best[0] + best[1]:
                best = (rot, tr, k)
        if best[0] < math.radians(5.0) and best[1] < 0.05:
            good += 1
            hits[best[2]] += 1
    elapsed = time.perf_counter() - start
    ok = good >= 90 and np.all(hits > 0) and elapsed < 120.0
    report(11, "annealed mode recovery (3 demos)", ok,
           f"{good}/100 chains within 5 deg / 0.05 L, mode hits={hits.tolist()}, "
           f"time={elapsed:.1f}s (< 120s)")


def test_criterion_12_sampling_equivariance(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    schedule = build_schedule([(1.0, 0.1, 40), (0.1, 0.01, 40)], eps=0.05)
    chains = 6
    q0, p0 = sample_initial_poses(toy, np.random.default_rng(12), chains)
    base = run_denoising(MixtureScore(demos, cfg), q0, p0, schedule,
                         np.random.default_rng(1212))
    rng = np.random.default_rng(121)
    err = 0.0
    for _ in range(3):
        dg = random_pose(rng, scale=0.8)
        moved_demos = DemoSet(tuple((compose(dg, g0), transform(s, dg), gr)
                                    for g0, s, gr in demos.demos))
        moved = run_denoising(MixtureScore(moved_demos, cfg), quat_mul(dg.r.q, q0),
                              quat_rotate(dg.r.q, p0) + dg.p, schedule,
                              np.random.default_rng(1212))
        for rb, rm in zip(base.trajectory, moved.trajectory):
            for n in range(0, rb.shape[0], 5):
                gb = Pose(rb[n, 4:], Rotation(rb[n, :4]))
                gm = Pose(rm[n, 4:], Rotation(rm[n, :4]))
                ref = compose(dg, gb)
                err = max(err, float(np.max(np.abs(ref.p - gm.p))),
                          float(ref.r.compose(gm.r.inverse()).angle))
    report(12, "sampling equivariance under replayed noise", err < 1e-8,
           f"max_err={err:.3e} (tol 1e-8)")


def test_criterion_13_loss_sanity(toy):
    rng = np.random.default_rng(113)
    t = 0.5
    cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
    demos2 = DemoSet(tuple((g, toy.scene, toy.grasp) for g in toy.demo_poses[:2]))
    oracle = MixtureScore(demos2, cfg)

    # zero loss at the exact target
    g0 = toy.demo_poses[0]
    g_t, p_de, _ = forward_diffuse(g0, toy.scene, toy.grasp, cfg, rng)
    from se3diffuse.diffusion import score_matching_loss

    exact = target_score(g_t, g0, p_de, t)
    zero_loss = score_matching_loss(exact, g_t, g0, p_de, t)

    # empirical batch loss over forward draws, probed along fixed directions;
    # the batch draws each demo as rng.choice(2) does, on the same stream
    d = forward_diffuse_batch(toy.demo_poses[:2], toy.scene, toy.grasp, cfg, rng, 4000)
    targets = np.stack([
        target_score(Pose(d.p[k], Rotation.from_unit(d.q[k])), toy.demo_poses[d.demo[k]],
                     d.p_de[k], t).as_array()
        for k in range(len(d.t))])
    residuals = oracle.score_batch(d.q, d.p, t) - targets

    lambdas = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    ok_probes = True
    for u in (np.array([1.0, 0, 0, 0, 0, 0]), np.array([0, 0, 0, 0, 0, 1.0]),
              np.ones(6) / math.sqrt(6.0)):
        # J(lambda) = const + lambda mean<r, u> + lambda^2/2 (loss of oracle + lambda u)
        losses = [0.5 * np.mean(np.sum((residuals + lam * u) ** 2, axis=1))
                  for lam in lambdas]
        ok_probes = ok_probes and (int(np.argmin(losses)) == 2)
    ok = zero_loss == 0.0 and ok_probes
    report(13, "loss sanity (zero at target, oracle minimizes probes)", ok,
           f"loss_at_target={zero_loss}, probe grid minimized at the oracle: {ok_probes}")


def test_criterion_14_cli_determinism(tmp_path):
    scn_dir = tmp_path / "scn"
    assert main(["gen-scenario", "--out", str(scn_dir), "--seed", "7"]) == 0
    scn = str(scn_dir / "scenario.txt")
    pairs = []
    for k in range(2):
        d = tmp_path / f"diffuse{k}.txt"
        n = tmp_path / f"denoise{k}.txt"
        assert main(["diffuse", "--scenario", scn, "--t", "0.5", "--n", "8",
                     "--out", str(d), "--seed", "3"]) == 0
        assert main(["denoise", "--scenario", scn, "--score", "oracle", "--chains", "4",
                     "--out", str(n), "--seed", "5"]) == 0
        pairs.append((d.read_bytes(), n.read_bytes()))
    ok = pairs[0][0] == pairs[1][0] and pairs[0][1] == pairs[1][1]
    report(14, "CLI byte-determinism (diffuse and denoise)", ok,
           "two seeded runs byte-identical" if ok else "outputs differ")


def test_cli_model_score_determinism(tmp_path):
    scn_dir = tmp_path / "scn"
    assert main(["gen-scenario", "--out", str(scn_dir), "--seed", "7"]) == 0
    outs = []
    for k in range(2):
        out = tmp_path / f"model{k}.txt"
        assert main(["denoise", "--scenario", str(scn_dir / "scenario.txt"), "--score", "model",
                     "--chains", "3", "--out", str(out), "--seed", "5"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
