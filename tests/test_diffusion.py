import math

import numpy as np
import pytest
from scipy import stats

from se3diffuse.diffusion import (
    BrownianScoreFn,
    DemoSet,
    DiffusionConfig,
    MixtureScore,
    brownian_log_density,
    brownian_sample,
    brownian_sample_batch,
    brownian_score,
    contact_origin_weights,
    forward_diffuse,
    forward_diffuse_batch,
    kernel_log_density,
    marginal_score_oracle,
    score_matching_loss,
    target_score,
)
from se3diffuse.igso3 import IgParams, angle_cdf_quadrature
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
    quat_conj,
    quat_mul,
    quat_rotate,
    quat_unit,
    random_rotation,
    translation_pose,
)
from se3diffuse.pointcloud import PointCloud, radius_count, transform
from se3diffuse.sampler import build_schedule, run_denoising


def random_pose(rng, scale=1.0):
    return Pose(scale * rng.standard_normal(3), random_rotation(rng))


def fd_score(log_density, g, step=1e-5):
    """Central finite differences along the six right-perturbation directions."""
    out = np.empty(6)
    for i in range(6):
        e = np.zeros(6)
        e[i] = step
        fp = log_density(compose(g, exp_se3(Twist.from_array(e))))
        fm = log_density(compose(g, exp_se3(Twist.from_array(-e))))
        out[i] = (fp - fm) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# Brownian kernel
# ---------------------------------------------------------------------------

def test_brownian_log_density_identity_value():
    # frozen from the oracle: -1.5 log(2 pi) + log(sum (2l+1)^2 e^{-l(l+1)/2})
    expected = -1.5 * math.log(2.0 * math.pi) + math.log(5.680765073188685)
    assert abs(brownian_log_density(Pose.identity(), 1.0) - expected) < 1e-9


def test_brownian_log_density_gaussian_factor():
    p = np.array([0.3, -0.4, 0.5])
    t = 0.7
    base = brownian_log_density(Pose.identity(), t)
    val = brownian_log_density(translation_pose(p), t)
    assert abs((base - val) - np.dot(p, p) / (2.0 * t)) < 1e-12


def test_brownian_log_density_rotation_conjugation_invariant(rng):
    t = 0.5
    for _ in range(20):
        r = random_rotation(rng)
        q = random_rotation(rng)
        conj = q.compose(r).compose(q.inverse())
        a = brownian_log_density(Pose(np.zeros(3), r), t)
        b = brownian_log_density(Pose(np.zeros(3), conj), t)
        assert abs(a - b) < 1e-12


def test_brownian_sample_small_time_near_identity():
    g = brownian_sample(1e-8, np.random.default_rng(0))
    assert np.linalg.norm(g.p) < 1e-3 and g.r.angle < 1e-3


def test_brownian_sample_tiny_time_angles_are_chi3():
    # at t = 1e-8 the rotation vector is N(0, t I), so angle / sqrt(t) ~ chi(3)
    t = 1e-8
    q, _ = brownian_sample_batch(np.full(4000, t), np.random.default_rng(3))
    angles = quat_angle(q)
    assert stats.kstest(angles / math.sqrt(t), stats.chi(3).cdf).pvalue > 1e-3


def test_brownian_sample_moments_and_angle_marginal():
    n = 100_000
    q, ps = brownian_sample_batch(np.full(n, 1.0), np.random.default_rng(1))
    angs = quat_angle(q)
    cov = np.cov(ps.T)
    assert np.max(np.abs(cov - np.eye(3))) < 0.05
    angs.sort()
    grid, cdf = angle_cdf_quadrature(IgParams(eps=0.5))
    ca = np.interp(angs, grid, cdf)
    ks = np.max(np.maximum(np.arange(1, n + 1) / n - ca, ca - np.arange(n) / n))
    assert ks < 0.01


def test_brownian_sample_is_a_batch_of_one():
    for seed, t in enumerate((1e-300, 1e-8, 0.3, 1.0, 5.0, 40.0)):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        g = brownian_sample(t, a)
        q, p = brownian_sample_batch(np.array([t]), b)
        assert np.array_equal(g.r.q, q[0]) and np.array_equal(g.p, p[0])
        assert a.random() == b.random()


def test_brownian_sample_batch_mixes_times_and_refuses_bad_times():
    t = np.array([1e-6, 0.5, 8.0, 1e-6])
    q, p = brownian_sample_batch(t, np.random.default_rng(0))
    assert q.shape == (4, 4) and p.shape == (4, 3)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0) and np.all(q[:, 0] >= 0.0)
    assert np.all(quat_angle(q[[0, 3]]) < 1e-2) and np.all(np.abs(p[[0, 3]]) < 1e-2)
    q, p = brownian_sample_batch(np.empty(0), np.random.default_rng(0))
    assert q.shape == (0, 4) and p.shape == (0, 3)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive"):
            brownian_sample_batch(np.array([0.5, bad]), np.random.default_rng(0))


def test_brownian_score_identity_and_pure_rotation(rng):
    assert np.allclose(brownian_score(Pose.identity(), 0.5).as_array(), 0.0)
    r = random_rotation(rng)
    s = brownian_score(Pose(np.zeros(3), r), 0.5)
    assert np.allclose(s.nu, 0.0)


def test_brownian_score_matches_finite_differences(rng):
    for t in (0.05, 0.5, 1.0):
        checked = 0
        while checked < 15:
            h = brownian_sample(t, rng)
            if h.r.angle > 2.9:
                continue
            s = brownian_score(h, t).as_array()
            fd = fd_score(lambda g: brownian_log_density(g, t), h)
            assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4
            checked += 1


def test_brownian_score_fn_scalar_call_clamps_near_pi_like_batch(rng):
    """The scalar call and brownian_score are batches of one, so they clamp as the batch does."""
    fn = BrownianScoreFn()
    for t in (0.01, 0.5, 2.0):
        poses = [brownian_sample(t, rng) for _ in range(3)] + _near_pi_poses([Pose.identity()], rng)
        batch = fn.score_batch(np.stack([h.r.q for h in poses]), np.stack([h.p for h in poses]), t)
        assert np.all(np.isfinite(batch))
        for h, row in zip(poses, batch):
            assert np.array_equal(fn(h, t).as_array(), row)
            assert np.array_equal(brownian_score(h, t).as_array(), row)


def test_brownian_score_batch_matches_scalar(rng):
    fn = BrownianScoreFn()
    t = 0.4
    poses = [brownian_sample(t, rng) for _ in range(20)]
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    batch = fn.score_batch(q, p, t)
    for i, g in enumerate(poses):
        assert np.array_equal(batch[i], fn(g, t).as_array())


# ---------------------------------------------------------------------------
# Contact origin selection and forward diffusion
# ---------------------------------------------------------------------------

def test_contact_weights_single_point():
    grasp = PointCloud(np.zeros((1, 3)))
    scene = PointCloud(np.array([[0.05, 0.0, 0.0]]))
    assert np.allclose(contact_origin_weights(grasp, scene, 0.1), [1.0])


def test_contact_weights_proportional():
    grasp = PointCloud(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
    scene = PointCloud(np.array([[0.01, 0.0, 0.0],
                                 [10.01, 0.0, 0.0], [9.99, 0.0, 0.0], [10.0, 0.02, 0.0]]))
    w = contact_origin_weights(grasp, scene, 0.1)
    assert np.allclose(w, [0.25, 0.75])


def test_contact_weights_uniform_fallback():
    grasp = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    scene = PointCloud(np.array([[100.0, 0.0, 0.0]]))
    assert np.allclose(contact_origin_weights(grasp, scene, 0.1), 1.0 / 3.0)


def test_contact_weights_equal_radius_count_loop(toy, rng):
    r = 0.5
    grasp = PointCloud(np.vstack([[[0.25, 0.0, 0.0]], rng.uniform(-1.0, 1.0, (40, 3))]))
    # one scene point exactly at distance r from the first grasp point
    scene = PointCloud(np.vstack([[[0.75, 0.0, 0.0]], rng.uniform(-1.5, 1.5, (300, 3))]))
    assert radius_count(grasp.positions[0], scene, r) >= 1
    toy_scene = transform(toy.scene, inverse(toy.demo_poses[0]))
    for grasp_pc, scene_pc, radius in ((grasp, scene, r), (toy.grasp, toy_scene, toy.config.r)):
        counts = np.array([radius_count(x, scene_pc, radius) for x in grasp_pc.positions], dtype=np.float64)
        expected = counts / counts.sum()
        got = contact_origin_weights(grasp_pc, scene_pc, radius)
        assert np.array_equal(got, expected)
    at_boundary = contact_origin_weights(PointCloud(grasp.positions[:1]), PointCloud(scene.positions[:1]), r)
    assert np.array_equal(at_boundary, [1.0])


def test_contact_weights_chunked_pass_counts_the_same(rng, monkeypatch):
    import se3diffuse.pointcloud as pointcloud

    grasp = PointCloud(rng.uniform(-1.0, 1.0, (41, 3)))
    scene = PointCloud(rng.uniform(-1.5, 1.5, (300, 3)))
    whole = contact_origin_weights(grasp, scene, 0.5)
    monkeypatch.setattr(pointcloud, "_PAIR_CHUNK", 1000)  # 3 grasp rows per chunk
    assert np.array_equal(contact_origin_weights(grasp, scene, 0.5), whole)


def test_contact_weights_empty_grasp_errors():
    with pytest.raises(ValueError):
        contact_origin_weights(PointCloud(np.zeros((0, 3))), PointCloud(np.zeros((1, 3))), 0.1)


def test_forward_diffuse_small_time(toy):
    cfg = DiffusionConfig(t=1e-8, r=toy.config.r, L=1.0)
    g0 = toy.demo_poses[0]
    g_t, _, _ = forward_diffuse(g0, toy.scene, toy.grasp, cfg, np.random.default_rng(0))
    assert np.linalg.norm(g_t.p - g0.p) < 1e-3
    assert quat_angle(np.array(g_t.r.q)) >= 0.0
    rel = compose(inverse(g0), g_t)
    assert rel.r.angle < 1e-3


def test_forward_diffuse_reproducible(toy):
    cfg = toy.config
    g0 = toy.demo_poses[1]
    a = forward_diffuse(g0, toy.scene, toy.grasp, cfg, np.random.default_rng(42))
    b = forward_diffuse(g0, toy.scene, toy.grasp, cfg, np.random.default_rng(42))
    assert np.array_equal(a[0].p, b[0].p) and np.array_equal(a[0].r.q, b[0].r.q)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2].p, b[2].p) and np.array_equal(a[2].r.q, b[2].r.q)


def test_forward_diffuse_conjugation_formula(toy):
    cfg = toy.config
    g0 = toy.demo_poses[2]
    g_t, p_de, dg = forward_diffuse(g0, toy.scene, toy.grasp, cfg, np.random.default_rng(3))
    tp = translation_pose(p_de)
    ref = compose(compose(compose(g0, tp), dg), inverse(tp))
    assert np.allclose(g_t.p, ref.p, atol=1e-14)
    assert g_t.r.allclose(ref.r, atol=1e-14)


def _sequential_draws(demo_poses, scene, grasp, cfg, rng, n, t_max=None):
    """Reference stream in the documented order: log-uniform t, demos by
    ``rng.choice(D, n)``, origin uniforms looked up as ``rng.choice(K, p=w)``
    does, then ``brownian_sample_batch``; each pose composed one product at a
    time with the quaternion helpers, renormalized after each as ``Rotation`` does."""
    t = np.full(n, cfg.t)
    if t_max is not None:
        t = np.exp(math.log(cfg.t) + rng.random(n) * (math.log(t_max) - math.log(cfg.t)))
    demos = rng.choice(len(demo_poses), n)
    u = rng.random(n)
    dq, dp = brownian_sample_batch(t, rng)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    one_inv = quat_unit(quat_conj(one))  # the rotation of T(p)^-1, signed zeros included
    rows = []
    for k in range(n):
        g0 = demo_poses[demos[k]]
        q0inv = quat_unit(quat_conj(g0.r.q))
        p0inv = -quat_rotate(q0inv, g0.p)
        cdf = np.cumsum(contact_origin_weights(grasp, PointCloud(quat_rotate(q0inv, scene.positions) + p0inv),
                                               cfg.r_nd))
        p_de = grasp.positions[int(np.searchsorted(cdf / cdf[-1], u[k], side="right"))]
        q, p = quat_unit(quat_mul(g0.r.q, one)), g0.p + quat_rotate(g0.r.q, p_de)
        q, p = quat_unit(quat_mul(q, dq[k])), p + quat_rotate(q, dp[k])
        q, p = quat_unit(quat_mul(q, one_inv)), p + quat_rotate(q, -quat_rotate(one_inv, p_de))
        rows.append((t[k], Pose(p, Rotation.from_unit(q)), p_de, Pose(dp[k], Rotation.from_unit(dq[k]))))
    return rows


def _assert_rows_are(d, rows):
    assert len(d.t) == len(rows)
    for k, (t, g_t, p_de, dg) in enumerate(rows):
        assert d.t[k] == t
        assert np.array_equal(d.q[k], g_t.r.q) and np.array_equal(d.p[k], g_t.p)
        assert np.array_equal(d.p_de[k], p_de)
        assert np.array_equal(d.delta_q[k], dg.r.q) and np.array_equal(d.delta_p[k], dg.p)


@pytest.mark.parametrize("t, t_max", [(0.5, None), (1e-4, 1.0)])
def test_forward_diffuse_batch_is_the_sequential_stream(toy, t, t_max):
    # the toy demos and nearby poses whose quaternions were normalized once
    # from raw values, so that normalizing them again moves bits in about a
    # third of them: the batch must renormalize exactly where Pose does
    rng = np.random.default_rng(5)
    demos = list(toy.demo_poses) + [
        Pose(toy.demo_poses[k % 3].p + 0.01 * rng.standard_normal(3),
             Rotation(toy.demo_poses[k % 3].r.q + 1e-4 * rng.standard_normal(4)))
        for k in range(9)]
    cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    d = forward_diffuse_batch(demos, toy.scene, toy.grasp, cfg, a, 100, t_max=t_max)
    _assert_rows_are(d, _sequential_draws(demos, toy.scene, toy.grasp, cfg, b, 100, t_max))
    assert set(d.demo) == set(range(len(demos)))
    assert a.random() == b.random()


def test_forward_diffuse_is_a_batch_of_one(toy):
    cfg = toy.config
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        g0 = toy.demo_poses[seed % 3]
        g_t, p_de, dg = forward_diffuse(g0, toy.scene, toy.grasp, cfg, a)
        d = forward_diffuse_batch((g0,), toy.scene, toy.grasp, cfg, b, 1)
        assert np.array_equal(g_t.r.q, d.q[0]) and np.array_equal(g_t.p, d.p[0])
        assert np.array_equal(p_de, d.p_de[0])
        assert np.array_equal(dg.r.q, d.delta_q[0]) and np.array_equal(dg.p, d.delta_p[0])
        assert d.demo[0] == 0 and a.random() == b.random()


def test_forward_diffuse_batch_contact_free_demo_draws_uniform_origins(toy):
    """A demo whose body-frame scene is out of reach falls back to uniform weights."""
    far = compose(translation_pose(np.array([100.0, 0.0, 0.0])), toy.demo_poses[0])
    demos = (toy.demo_poses[0], far)
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    d = forward_diffuse_batch(demos, toy.scene, toy.grasp, cfg, a, 200)
    _assert_rows_are(d, _sequential_draws(demos, toy.scene, toy.grasp, cfg, b, 200))
    w = contact_origin_weights(toy.grasp, transform(toy.scene, inverse(demos[0])), cfg.r_nd)
    in_contact = {tuple(x) for x in toy.grasp.positions[w > 0.0]}
    near = {tuple(x) for x in d.p_de[d.demo == 0]}
    far_origins = {tuple(x) for x in d.p_de[d.demo == 1]}
    assert near <= in_contact and len(in_contact) < len(toy.grasp)
    assert len(far_origins - in_contact) > 0 and len(far_origins) > 25


def test_forward_diffuse_batch_empty_and_invalid(toy):
    cfg = toy.config
    rng = np.random.default_rng(0)
    d = forward_diffuse_batch(toy.demo_poses, toy.scene, toy.grasp, cfg, rng, 0, t_max=2.0)
    assert d.q.shape == (0, 4) and d.p.shape == (0, 3) and d.t.shape == (0,)
    assert rng.random() == np.random.default_rng(0).random()
    with pytest.raises(ValueError):
        forward_diffuse_batch((), toy.scene, toy.grasp, cfg, rng, 1)
    with pytest.raises(ValueError):
        forward_diffuse_batch(toy.demo_poses, toy.scene, toy.grasp, cfg, rng, 1, t_max=0.5 * cfg.t)
    with pytest.raises(ValueError):
        forward_diffuse_batch(toy.demo_poses, PointCloud(np.zeros((0, 3))), toy.grasp, cfg, rng, 1)


def test_pure_translation_displacement_cancels_origin(rng):
    # g0 T(p) (d, I) T(p)^-1 = g0 (d, I): same rotation, translation p0 + R0 d
    g0 = random_pose(rng)
    d = rng.standard_normal(3)
    p_de = rng.standard_normal(3)
    tp = translation_pose(p_de)
    g_t = compose(compose(compose(g0, tp), translation_pose(d)), inverse(tp))
    assert g_t.r.allclose(g0.r, atol=1e-14)
    assert np.allclose(g_t.p, g0.p + g0.r.apply(d), atol=1e-12)


# ---------------------------------------------------------------------------
# Target score and loss
# ---------------------------------------------------------------------------

def test_target_score_zero_origin_reduces_to_brownian(rng):
    g0 = random_pose(rng)
    g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    t = 0.6
    a = target_score(g, g0, np.zeros(3), t).as_array()
    b = brownian_score(compose(inverse(g0), g), t).as_array()
    assert np.allclose(a, b, atol=1e-12)


def test_target_score_zero_at_demo(rng):
    g0 = random_pose(rng)
    s = target_score(g0, g0, rng.standard_normal(3), 0.5).as_array()
    assert np.allclose(s, 0.0, atol=1e-12)


def test_target_score_matches_finite_differences(rng):
    for t in (0.05, 0.5, 1.0):
        for _ in range(10):
            g0 = random_pose(rng)
            p_de = rng.standard_normal(3)
            g = compose(g0, exp_se3(Twist(0.3 * math.sqrt(t) * rng.standard_normal(3),
                                          0.3 * rng.standard_normal(3))))
            tp = translation_pose(p_de)

            def log_density(gg):
                h = compose(compose(compose(inverse(tp), inverse(g0)), gg), tp)
                return brownian_log_density(h, t)

            s = target_score(g, g0, p_de, t).as_array()
            fd = fd_score(log_density, g)
            assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4


def test_score_matching_loss_values(rng):
    g0 = random_pose(rng)
    g = compose(g0, exp_se3(Twist(0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))))
    p_de = rng.standard_normal(3)
    t = 0.5
    target = target_score(g, g0, p_de, t)
    assert score_matching_loss(target, g, g0, p_de, t) == 0.0
    bumped = Twist(target.nu + np.array([1.0, 0.0, 0.0]), target.omega)
    assert abs(score_matching_loss(bumped, g, g0, p_de, t) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Kernel density and the mixture oracle
# ---------------------------------------------------------------------------

def test_kernel_reduces_to_brownian_for_single_origin_at_zero(rng):
    scene = PointCloud(np.array([[0.05, 0.0, 0.0]]))
    grasp = PointCloud(np.zeros((1, 3)))
    g0 = Pose.identity()
    cfg = DiffusionConfig(t=0.5, r=1.0, L=1.0)
    g = random_pose(rng, scale=0.3)
    lhs = kernel_log_density(g.r.q[None], g.p[None], (g0,), scene, grasp, cfg)[0]
    rhs = brownian_log_density(compose(inverse(g0), g), cfg.t)
    assert abs(lhs - rhs) < 1e-12


def _kept_contacts(g0, scene, grasp, cfg):
    """The grasp points with nonzero contact weight for the demo g0, and their log weights."""
    from se3diffuse.diffusion import _contact_weights

    w = _contact_weights(DemoSet(((g0, scene, grasp),)), cfg)[0]
    return grasp.positions[w > 0.0], np.log(w[w > 0.0])


def _kernel_log_density_reference(g, g0, scene, grasp, cfg, log_f=None):
    """Scalar loop: log-sum-exp over components of logw + brownian_log_density.

    With ``log_f`` the rotational log density of each kernel argument is
    log_f(theta) instead, added to log N(p_h; 0, tI).
    """
    pts, logw = _kept_contacts(g0, scene, grasp, cfg)
    vals = []
    for k in range(pts.shape[0]):
        tp = translation_pose(pts[k])
        h = compose(compose(compose(inverse(tp), inverse(g0)), g), tp)
        if log_f is None:
            vals.append(logw[k] + brownian_log_density(h, cfg.t))
        else:
            vals.append(logw[k] - 1.5 * math.log(2.0 * math.pi * cfg.t) - h.p @ h.p / (2.0 * cfg.t)
                        + log_f(quat_angle(h.r.q)))
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def _poses_around(g0, rng, n):
    """Poses whose rotation relative to g0 is near 0 (first third), near pi
    (second third) or random (last third)."""
    poses = []
    for i in range(n):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        small = 10.0 ** rng.uniform(-9.0, -2.0)
        angle = (small, math.pi - small, rng.uniform(0.0, math.pi))[3 * i // n]
        poses.append(compose(g0, Pose(0.2 * rng.standard_normal(3), exp_so3(angle * axis))))
    return poses


def test_kernel_log_density_batch_matches_scalar_reference(toy, rng):
    for t in (0.5, 1.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        for g0 in toy.demo_poses[:2]:
            poses = _poses_around(g0, rng, 60)
            q = np.stack([g.r.q for g in poses])
            p = np.stack([g.p for g in poses])
            batch = kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg)
            assert batch.shape == (60,)
            ref = np.array([_kernel_log_density_reference(g, g0, toy.scene, toy.grasp, cfg)
                            for g in poses])
            assert np.max(np.abs(batch - ref)) < 1e-12


def test_kernel_log_density_batch_of_one_matches_row(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    g0 = toy.demo_poses[1]
    poses = _poses_around(g0, rng, 30)
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    full = kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg)
    for i in range(len(poses)):
        one = kernel_log_density(q[i:i + 1], p[i:i + 1], (g0,), toy.scene, toy.grasp, cfg)
        assert one.shape == (1,) and one[0] == full[i]


def test_kernel_log_density_of_one_demo_is_its_component_mixture(toy, rng):
    from se3diffuse.diffusion import _demo_components, _log_mixture

    g0 = toy.demo_poses[2]
    poses = _poses_around(g0, rng, 30)
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        want = _log_mixture(q, p, _demo_components(DemoSet(((g0, toy.scene, toy.grasp),)), cfg), t)
        assert np.array_equal(kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg), want)


def test_kernel_log_density_of_several_demos_is_their_uniform_mixture(toy, rng):
    poses = [g for g0 in toy.demo_poses for g in _poses_around(g0, rng, 12)]
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        per_demo = np.stack([kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg)
                             for g0 in toy.demo_poses])
        m = per_demo.max(axis=0)
        want = m + np.log(np.exp(per_demo - m).sum(axis=0) / len(per_demo))
        got = kernel_log_density(q, p, toy.demo_poses, toy.scene, toy.grasp, cfg)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_kernel_log_density_refuses_no_demos(toy):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    with pytest.raises(ValueError, match="no demo poses"):
        kernel_log_density(np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros((1, 3)), (), toy.scene,
                           toy.grasp, cfg)


def test_kernel_log_density_reads_a_single_pose_as_a_batch_of_one(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    g = _poses_around(toy.demo_poses[0], rng, 3)[2]
    one = kernel_log_density(g.r.q, g.p, toy.demo_poses, toy.scene, toy.grasp, cfg)
    assert one.shape == (1,)
    assert one[0] == kernel_log_density(g.r.q[None], g.p[None], toy.demo_poses, toy.scene, toy.grasp, cfg)[0]


def test_kernel_log_density_refuses_stacks_with_different_pose_counts(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    q = np.stack([random_rotation(rng).q for _ in range(3)])
    with pytest.raises(ValueError, match="need one translation per quaternion"):
        kernel_log_density(q, rng.standard_normal((2, 3)), toy.demo_poses, toy.scene, toy.grasp, cfg)


def test_density_and_score_batch_of_one_are_bitwise_their_rows(toy, rng):
    g0 = toy.demo_poses[0]
    poses = _poses_around(g0, rng, 12)
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        oracle = MixtureScore(toy.demo_set(), cfg)
        dens = kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg)
        scores = oracle.score_batch(q, p, t)
        for i in range(len(poses)):
            assert kernel_log_density(q[i:i + 1], p[i:i + 1], (g0,), toy.scene, toy.grasp, cfg)[0] == dens[i]
            assert np.array_equal(oracle.score_batch(q[i:i + 1], p[i:i + 1], t)[0], scores[i])


def _uneven_demo_set(toy):
    """Demos whose contact filtering keeps 15, 13 and 4 grasp points."""
    poses = [compose(toy.demo_poses[0], translation_pose(np.array([dx, 0.0, 0.0])))
             for dx in (0.0, 0.06, 0.1)]
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    kept = [len(_kept_contacts(g, toy.scene, toy.grasp, cfg)[0]) for g in poses]
    assert len(set(kept)) == 3
    return DemoSet(tuple((g, toy.scene, toy.grasp) for g in poses))


def _pose_stack(demos, rng, n):
    poses = [compose(demos.demos[k % len(demos)][0],
                     exp_se3(Twist(0.3 * rng.standard_normal(3), 0.8 * rng.standard_normal(3))))
             for k in range(n)]
    return np.stack([g.r.q for g in poses]), np.stack([g.p for g in poses])


def _score_by_demo(demos, cfg, q, p, t):
    """Reference: the mixture of one-demo scores, weighted by their log densities."""
    from se3diffuse.diffusion import _demo_components, _kernel_score, _log_mixture

    logs, scores = [], []
    for demo in demos.demos:
        comps = _demo_components(DemoSet((demo,)), cfg)
        comps = comps._replace(logw=comps.logw - math.log(len(demos)))
        logs.append(_log_mixture(q, p, comps, t))
        scores.append(_kernel_score(q, p, comps, t))
    logs = np.stack(logs, axis=1)
    w = np.exp(logs - logs.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return np.einsum("nd,ndi->ni", w, np.stack(scores, axis=1))


@pytest.mark.parametrize("which", ["toy", "uneven", "single"])
def test_fused_oracle_matches_a_loop_over_demos(toy, rng, which):
    demos = {"toy": toy.demo_set(), "uneven": _uneven_demo_set(toy),
             "single": DemoSet(((toy.demo_poses[2], toy.scene, toy.grasp),))}[which]
    q, p = _pose_stack(demos, rng, 60)
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        got = MixtureScore(demos, cfg).score_batch(q, p, t)
        ref = _score_by_demo(demos, cfg, q, p, t)
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(rel) < 1e-14, (t, np.max(rel))


def _many_demo_set(toy, count=12):
    """Demos near the toy's, enough that a sum over demos runs NumPy's pairwise (8-wide) summation."""
    rng = np.random.default_rng(5)
    return DemoSet(tuple((compose(toy.demo_poses[k % len(toy.demo_poses)],
                                  exp_se3(Twist(0.2 * rng.standard_normal(3), 0.05 * rng.standard_normal(3)))),
                          toy.scene, toy.grasp) for k in range(count)))


@pytest.mark.parametrize("n", [1, 7, 100])
def test_fused_oracle_rows_are_bitwise_one_pose_calls(toy, rng, n):
    one = DemoSet(((toy.demo_poses[1], toy.scene, toy.grasp),))
    for demos in (_uneven_demo_set(toy), one, _many_demo_set(toy)):
        q, p = _pose_stack(demos, rng, n)
        for t in (0.01, 1.0):
            oracle = MixtureScore(demos, DiffusionConfig(t=t, r=toy.config.r, L=1.0))
            full = oracle.score_batch(q, p, t)
            assert full.shape == (n, 6) and np.all(np.isfinite(full))
            for i in range(n):
                assert np.array_equal(oracle.score_batch(q[i:i + 1], p[i:i + 1], t)[0], full[i])


def _composed_log_terms(demos, cfg, q, p, t):
    """Rotation vectors (N, D, 3), angles (N, D) and -inf-padded (N, D, K) log terms of the
    mixture, composed one demo at a time through the ``lie`` helpers from the demo poses and
    their kept contacts, with |p_h|^2 from a loop over coordinates of p_h = p_m + R_m k - k."""
    from se3diffuse.igso3 import igso3_log_density
    from se3diffuse.lie import quat_log, quat_to_matrix, se3_inverse

    kept = [_kept_contacts(g0, demos.scene, demos.grasp, cfg) for g0, _, _ in demos.demos]
    q0inv, p0inv = se3_inverse(demos.q, demos.p)
    logs = np.full((q.shape[0], len(kept), max(len(pts) for pts, _ in kept)), -np.inf)
    rotvecs, thetas = [], []
    for d, (pts, logw) in enumerate(kept):
        qm = quat_mul(q0inv[d], q)
        pm = quat_rotate(q0inv[d], p) + p0inv[d]
        rotvecs.append(quat_log(qm))
        thetas.append(np.linalg.norm(rotvecs[-1], axis=-1))
        r = quat_to_matrix(qm)[..., None]
        k = pts.T
        p2 = 0.0
        for i in range(3):
            ph = pm[:, i, None] + (r[:, i, 0] * k[0] + r[:, i, 1] * k[1] + r[:, i, 2] * k[2]) - k[i]
            p2 = p2 + ph * ph
        log_f = igso3_log_density(np.minimum(thetas[-1], math.pi), IgParams(eps=0.5 * t))
        logs[:, d, :len(pts)] = ((logw - math.log(len(kept))) + (-1.5 * math.log(2.0 * math.pi * t) - p2 / (2.0 * t))
                                 + log_f[:, None])
    return np.stack(rotvecs, axis=1), np.stack(thetas, axis=1), logs


@pytest.mark.parametrize("n", [1, 7, 60])
def test_kernel_rotations_are_the_composed_helpers_and_log_terms_the_composed_loop(toy, rng, n):
    """The rotational frame keeps the bits of the ``lie`` helpers; the log terms, whose
    |p_h|^2 is a product of per-pose and per-component rows, stay at the coordinate loop."""
    from se3diffuse.diffusion import _kernel_terms, _log_mixture

    demos = _uneven_demo_set(toy)
    q, p = _pose_stack(demos, rng, n)
    q[::2] = -q[::2]  # quaternions on both hemispheres
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        comps = MixtureScore(demos, cfg)._components
        _, _, rotvec, theta, _, logs = _kernel_terms(q, p, comps, t)
        ref_rotvec, ref_theta, ref_logs = _composed_log_terms(demos, cfg, q, p, t)
        assert np.array_equal(np.moveaxis(rotvec, 0, -1), ref_rotvec)
        assert np.array_equal(theta, ref_theta)
        assert logs.shape == ref_logs.shape
        pad = np.isneginf(ref_logs)
        assert pad.any() and np.array_equal(np.isneginf(logs), pad)
        assert np.all(np.abs(logs[~pad] - ref_logs[~pad]) <= 1e-13 * np.maximum(1.0, np.abs(ref_logs[~pad])))
        m = np.max(logs, axis=(1, 2))
        assert np.array_equal(_log_mixture(q, p, comps, t),
                              m + np.log(np.sum(np.exp(logs - m[:, None, None]), axis=(1, 2))))


def _pose_by_pose_kernel_terms(comps, q, p, t):
    """Frames and log terms of ``_kernel_terms``, composed one pose at a time through the
    ``lie`` helpers, with R^T p' and |p'|^2 from loops over coordinates and |p_h|^2 from the
    pose's row [|p'|^2, R^T p', p', 1, vec R] times the component columns."""
    from se3diffuse.igso3 import igso3_log_density
    from se3diffuse.lie import quat_log, quat_to_matrix

    out = []
    for qn, pn in zip(q, p):
        r = quat_to_matrix(qn)
        pp = pn - comps.origin
        rtp, pp2 = 0.0, 0.0
        for i in range(3):
            rtp = rtp + r[i] * pp[i]
            pp2 = pp2 + pp[i] * pp[i]
        row = np.concatenate([[pp2], rtp, pp, [1.0], r.reshape(9)])
        p2 = np.matmul(row[None], comps.rows).reshape(comps.logw.shape)
        rotvec = quat_log(quat_mul(comps.q0inv, qn))
        theta = np.linalg.norm(rotvec, axis=-1)
        log_f = igso3_log_density(np.minimum(theta, math.pi), IgParams(eps=0.5 * t))
        logs = (-1.5 * math.log(2.0 * math.pi * t) - p2 / (2.0 * t)) + comps.logw + log_f[:, None]
        out.append((r, rtp, rotvec, theta, logs))
    return [np.stack(a) for a in zip(*out)]


@pytest.mark.parametrize("n", [1, 7, 60])
def test_kernel_frames_and_log_terms_are_the_composed_loop_bit_for_bit(toy, rng, n):
    """The density path keeps the bits of the helper-by-helper evaluation, one pose at a time."""
    from se3diffuse.diffusion import _kernel_terms, _log_mixture

    demos = _uneven_demo_set(toy)
    q, p = _pose_stack(demos, rng, n)
    q[::2] = -q[::2]  # quaternions on both hemispheres
    for t in (0.01, 0.5, 2.0):
        comps = MixtureScore(demos, DiffusionConfig(t=t, r=toy.config.r, L=1.0))._components
        r, rtp, rotvec, theta, _, logs = _kernel_terms(q, p, comps, t)
        ref = _pose_by_pose_kernel_terms(comps, q, p, t)
        got = (np.moveaxis(r, -1, 0), rtp.T, np.moveaxis(rotvec, 0, -1), theta, logs)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and np.array_equal(a, b)
        m = np.max(ref[-1], axis=(1, 2))
        assert np.array_equal(_log_mixture(q, p, comps, t),
                              m + np.log(np.sum(np.exp(ref[-1] - m[:, None, None]), axis=(1, 2))))


def test_oracle_keeps_its_accuracy_far_from_the_world_origin(toy, rng):
    """Lengths are taken about the mean demo translation, so moving the scene, the demos and
    the poses 100 length units away changes the score and the density only by rounding."""
    shift = 100.0 * np.array([0.6, -0.48, 0.64])
    far = PointCloud(toy.scene.positions + shift, toy.scene.colors)
    far_demos = [Pose(g0.p + shift, g0.r) for g0 in toy.demo_poses]
    q, p = _pose_stack(toy.demo_set(), rng, 60)
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        near = MixtureScore(toy.demo_set(), cfg).score_batch(q, p, t)
        moved = MixtureScore(DemoSet(tuple((g0, far, toy.grasp) for g0 in far_demos)), cfg).score_batch(
            q, p + shift, t)
        assert np.all(np.linalg.norm(moved - near, axis=1) <= 1e-10 * np.linalg.norm(near, axis=1)), t
        dens = kernel_log_density(q, p, toy.demo_poses, toy.scene, toy.grasp, cfg)
        moved = kernel_log_density(q, p + shift, far_demos, far, toy.grasp, cfg)
        assert np.all(np.abs(moved - dens) <= 1e-12 * np.abs(dens)), t


def _score_by_component(demos, cfg, q, p, t, log_f=None):
    """Reference: every component's score, summed with explicit weights, one pose at a time.

    Component (d, k) has the kernel argument h = T(-k) g0_d^-1 g T(k), with
    R_h = R_m and p_h = p_m + R_m k - k, and the scores s_nu = -R_h^T p_h / t
    and s_om = k x s_nu + s_rot; its log weight is log w_k - log D
    + log N(p_h; 0, tI) + log_f(theta_h), where ``log_f`` defaults to
    ``igso3_log_density`` at eps = t/2.
    """
    from se3diffuse.igso3 import igso3_log_density, igso3_score_batch
    from se3diffuse.lie import quat_log, quat_to_matrix

    params = IgParams(eps=0.5 * t)
    if log_f is None:
        def log_f(theta):
            return igso3_log_density(min(theta, math.pi), params)
    parts = [(g0, *_kept_contacts(g0, demos.scene, demos.grasp, cfg)) for g0, _, _ in demos.demos]
    out = np.empty((q.shape[0], 6))
    for n in range(q.shape[0]):
        logs, scores = [], []
        for g0, pts, logw in parts:
            qm = quat_mul(quat_conj(g0.r.q), q[n])
            rm = quat_to_matrix(qm)
            pm = quat_to_matrix(g0.r.q).T @ (p[n] - g0.p)
            rotvec = quat_log(qm)
            theta = np.linalg.norm(rotvec)
            s_rot = igso3_score_batch(rotvec[None], np.array([theta]), params)[0]
            for k, lw in zip(pts, logw):
                ph = pm + rm @ k - k
                s_nu = -rm.T @ ph / t
                scores.append(np.concatenate([s_nu, np.cross(k, s_nu) + s_rot]))
                logs.append(lw - math.log(len(parts)) - 1.5 * math.log(2.0 * math.pi * t)
                            - ph @ ph / (2.0 * t) + log_f(theta))
        w = np.exp(np.array(logs) - max(logs))
        out[n] = w @ np.array(scores) / np.sum(w)
    return out


def _near_pi_poses(bases, rng, gaps=(5e-7, 1e-7, 0.0)):
    """Poses g_j whose kernel angle to bases[j % len(bases)] is pi - gaps[j]."""
    poses = []
    for j, gap in enumerate(gaps):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        g0 = bases[j % len(bases)]
        poses.append(compose(g0, Pose(0.1 * rng.standard_normal(3), exp_so3((math.pi - gap) * axis))))
    return poses


@pytest.mark.parametrize("which", ["uneven", "toy", "one-component"])
@pytest.mark.parametrize("t", [2.0, 1.0, 0.3, 0.01])
def test_mixture_score_matches_a_per_component_reference(toy, rng, which, t):
    """The per-demo moment sums equal the explicit weighted sum of component scores.

    t = 2 and 1 use the IGSO(3) series (eps >= 0.5), 0.3 and 0.01 its image
    sum; the last rows have kernel angles within 1e-6 of pi.
    """
    p_de = toy.grasp.positions[5]
    demos = {"uneven": _uneven_demo_set(toy), "toy": toy.demo_set(),
             "one-component": DemoSet(((toy.demo_poses[1], toy.scene, PointCloud(p_de[None])),))}[which]
    q, p = _pose_stack(demos, rng, 30)
    near = _near_pi_poses([g0 for g0, _, _ in demos.demos], rng)
    q = np.concatenate([q, [g.r.q for g in near]])
    p = np.concatenate([p, [g.p for g in near]])
    cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
    got = MixtureScore(demos, cfg).score_batch(q, p, t)
    ref = _score_by_component(demos, cfg, q, p, t)
    rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(rel) < 1e-12, (t, np.max(rel))


def _mp_log_f(theta, eps):
    """log f(theta; eps) by direct summation of the character series in mpmath.

    The terms are up to e^{theta^2/(4 eps)} times the sum, so the working
    precision adds theta^2/(4 eps) / ln 10 digits to the 30 kept.
    """
    import mpmath

    decay = theta * theta / (4.0 * eps)
    dps = 30 + int(decay / math.log(10.0))
    lmax = int(math.sqrt((decay + 60.0 + 2.31 * dps) / eps)) + 10
    with mpmath.workdps(dps):
        th, e = mpmath.mpf(theta), mpmath.mpf(eps)
        s = mpmath.fsum((2 * l + 1) * mpmath.exp(-e * l * (l + 1)) * mpmath.sin((l + mpmath.mpf(1) / 2) * th)
                        for l in range(lmax + 1))
        return float(mpmath.log(s / mpmath.sin(th / 2)))


def test_mixture_weights_rotational_densities_below_the_double_range(toy):
    """At t = 0.002 and kernel angles above 2 rad f(theta) is below e^-900.

    The two demos' rotational log densities differ by about 340, which
    weights the mixture entirely toward the nearer demo; a density floored
    at the smallest double would weight both alike.
    """
    t = 0.002
    cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
    axis = np.array([0.0, 0.6, 0.8])
    g0s = (Pose(np.zeros(3), exp_so3(0.3 * axis)), Pose(np.zeros(3), exp_so3(-0.2 * axis)))
    demos = DemoSet(tuple((g0, toy.scene, toy.grasp) for g0 in g0s))
    g = Pose(np.array([0.004, -0.003, 0.002]), exp_so3(2.5 * axis))
    angles = [quat_angle(compose(inverse(g0), g).r.q) for g0 in g0s]
    assert min(angles) > 2.0
    log_f = {a: _mp_log_f(a, 0.5 * t) for a in angles}
    assert max(log_f.values()) < -900.0

    def mp_log_f(theta):
        nearest = min(log_f, key=lambda a: abs(a - theta))
        assert abs(nearest - theta) < 1e-12
        return log_f[nearest]

    q, p = g.r.q[None], g.p[None]
    for g0 in g0s:
        got = kernel_log_density(q, p, (g0,), toy.scene, toy.grasp, cfg)[0]
        ref = _kernel_log_density_reference(g, g0, toy.scene, toy.grasp, cfg, mp_log_f)
        assert abs(got - ref) < 1e-12 * abs(ref), (got, ref)
    got = MixtureScore(demos, cfg).score_batch(q, p, t)
    ref = _score_by_component(demos, cfg, q, p, t, mp_log_f)
    assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref), (got, ref)


def test_kernel_bi_equivariance(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    g0 = toy.demo_poses[0]
    g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
    base = kernel_log_density(g.r.q[None], g.p[None], (g0,), toy.scene, toy.grasp, cfg)[0]
    for _ in range(100):
        dg = random_pose(rng, scale=0.7)
        g_left = compose(dg, g)
        left = kernel_log_density(g_left.r.q[None], g_left.p[None], (compose(dg, g0),),
                                  transform(toy.scene, dg), toy.grasp, cfg)[0]
        assert abs(left - base) < 1e-9
        dgi = inverse(dg)
        g_right = compose(g, dgi)
        right = kernel_log_density(g_right.r.q[None], g_right.p[None], (compose(g0, dgi),),
                                   toy.scene, transform(toy.grasp, dg), cfg)[0]
        assert abs(right - base) < 1e-9


def test_oracle_single_component_equals_target(rng):
    scene = PointCloud(np.array([[0.3, 0.1, -0.2]]))
    grasp = PointCloud(np.array([[0.25, 0.05, -0.15]]))
    g0 = Pose.identity()
    cfg = DiffusionConfig(t=0.5, r=1.0, L=1.0)
    demos = DemoSet(((g0, scene, grasp),))
    g = random_pose(rng, scale=0.3)
    a = marginal_score_oracle(g, demos, cfg).as_array()
    b = target_score(g, g0, grasp.positions[0], cfg.t).as_array()
    assert np.allclose(a, b, atol=1e-12)


def test_oracle_matches_mixture_finite_differences(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    g = compose(toy.demo_poses[1],
                exp_se3(Twist(0.2 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))

    def mixture_log_density(gg):
        vals = [kernel_log_density(gg.r.q[None], gg.p[None], (g0,), toy.scene, toy.grasp, cfg)[0]
                for g0 in toy.demo_poses]
        m = max(vals)
        return m + math.log(sum(math.exp(v - m) for v in vals) / len(vals))

    s = marginal_score_oracle(g, demos, cfg).as_array()
    fd = fd_score(mixture_log_density, g)
    assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4


def test_oracle_density_weighted_average_consistency(toy, rng):
    """The oracle equals the manual density-weighted average of targets."""
    cfg = DiffusionConfig(t=0.4, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    for _ in range(5):
        g = compose(toy.demo_poses[0],
                    exp_se3(Twist(0.3 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
        logs, scores = [], []
        for g0 in toy.demo_poses:
            pts, logw = _kept_contacts(g0, toy.scene, toy.grasp, cfg)
            for k in range(pts.shape[0]):
                tp = translation_pose(pts[k])
                h = compose(compose(compose(inverse(tp), inverse(g0)), g), tp)
                logs.append(logw[k] - math.log(len(demos)) + brownian_log_density(h, cfg.t))
                scores.append(target_score(g, g0, pts[k], cfg.t).as_array())
        logs = np.array(logs)
        w = np.exp(logs - logs.max())
        w /= w.sum()
        manual = np.sum(w[:, None] * np.stack(scores), axis=0)
        oracle = marginal_score_oracle(g, demos, cfg).as_array()
        assert np.max(np.abs(manual - oracle)) < 1e-10


def test_oracle_left_invariance_and_right_covariance(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    g = compose(toy.demo_poses[2],
                exp_se3(Twist(0.2 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    base = marginal_score_oracle(g, demos, cfg).as_array()
    for _ in range(50):
        dg = random_pose(rng, scale=0.7)
        moved_left = DemoSet(tuple((compose(dg, gd), transform(s, dg), gr)
                                   for gd, s, gr in demos.demos))
        left = MixtureScore(moved_left, cfg)(compose(dg, g), cfg.t).as_array()
        assert np.max(np.abs(left - base)) < 1e-8
        dgi = inverse(dg)
        moved_right = DemoSet(tuple((compose(gd, dgi), s, transform(gr, dg))
                                    for gd, s, gr in demos.demos))
        right = MixtureScore(moved_right, cfg)(compose(g, dgi), cfg.t).as_array()
        assert np.max(np.abs(right - adjoint_inv_transpose(dg) @ base)) < 1e-8


def test_oracle_symmetric_two_mode_fixed_point():
    """A pi-rotation symmetry of clouds and demos pins the score to the axis."""
    rng = np.random.default_rng(3)
    half_s = rng.standard_normal((25, 3))
    scene = PointCloud(np.concatenate([half_s, half_s * np.array([-1.0, -1.0, 1.0])]))
    half_g = 0.5 * rng.standard_normal((15, 3))
    grasp = PointCloud(np.concatenate([half_g, half_g * np.array([-1.0, -1.0, 1.0])]))
    q_sym = exp_so3(np.array([0.0, 0.0, math.pi]))
    sym = Pose(np.zeros(3), q_sym)
    g0 = Pose(np.array([0.6, 0.2, 0.1]), random_rotation(rng))
    g0_mirror = compose(compose(sym, g0), inverse(sym))
    demos = DemoSet(((g0, scene, grasp), (g0_mirror, scene, grasp)))
    cfg = DiffusionConfig(t=0.8, r=0.6, L=1.0)
    # fixed points of conjugation by the symmetry: translation along z, rotation about z
    g_star = Pose(np.array([0.0, 0.0, 0.4]), exp_so3(np.array([0.0, 0.0, 0.7])))
    s = marginal_score_oracle(g_star, demos, cfg).as_array()
    scale = max(np.max(np.abs(s)), 1.0)
    assert abs(s[0]) / scale < 1e-9 and abs(s[1]) / scale < 1e-9  # nu off-axis
    assert abs(s[3]) / scale < 1e-9 and abs(s[4]) / scale < 1e-9  # omega off-axis


def test_demo_set_validation(toy):
    with pytest.raises(ValueError, match="no demo poses"):
        DemoSet(())
    empty = PointCloud(np.zeros((0, 3)))
    for scene, grasp in ((empty, toy.grasp), (toy.scene, empty)):
        with pytest.raises(ValueError, match="empty point cloud"):
            DemoSet(((toy.demo_poses[0], scene, grasp),))
    other = PointCloud(np.random.default_rng(0).standard_normal((5, 3)))
    with pytest.raises(ValueError, match="mixes different scene clouds"):
        DemoSet(((toy.demo_poses[0], toy.scene, toy.grasp), (toy.demo_poses[1], other, toy.grasp)))
    with pytest.raises(ValueError, match="mixes different grasp clouds"):
        DemoSet(((toy.demo_poses[0], toy.scene, toy.grasp), (toy.demo_poses[1], toy.scene, other)))


def test_demo_set_accepts_equal_clouds_in_separate_objects_and_stacks_the_poses(toy):
    """One cloud copied per demo, as a transformed set builds it, is the shared cloud."""
    demos = DemoSet(tuple((g0, PointCloud(toy.scene.positions.copy()), PointCloud(toy.grasp.positions.copy()))
                          for g0 in toy.demo_poses))
    assert len(demos) == len(toy.demo_poses)
    assert demos.scene is demos.demos[0][1] and demos.grasp is demos.demos[0][2]
    assert np.array_equal(demos.q, np.stack([g0.r.q for g0 in toy.demo_poses]))
    assert np.array_equal(demos.p, np.stack([g0.p for g0 in toy.demo_poses]))
    for stack in (demos.q, demos.p):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(t=0.0, r=1.0, L=1.0)
    with pytest.raises(ValueError):
        DiffusionConfig(t=1.0, r=-1.0, L=1.0)
    with pytest.raises(ValueError, match="t/2 rounds to 0"):
        DiffusionConfig(t=5e-324, r=1.0, L=1.0)  # the smallest double, whose half is 0
    cfg = DiffusionConfig(t=1.0, r=0.3, L=2.0)
    assert cfg.r_nd == 0.15


@pytest.mark.parametrize("field", ["t", "r", "L"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_config_refuses_non_finite_values(field, value):
    kwargs = {"t": 1.0, "r": 0.3, "L": 1.0} | {field: value}
    with pytest.raises(ValueError, match="positive and finite"):
        DiffusionConfig(**kwargs)


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0, 1e-310])  # below the smallest normal too
def test_scores_refuse_a_time_that_is_not_positive_and_finite(toy, t):
    q = np.stack([g.r.q for g in toy.demo_poses])
    p = np.stack([g.p for g in toy.demo_poses])
    oracle = MixtureScore(toy.demo_set(), DiffusionConfig(t=1.0, r=toy.config.r, L=1.0))
    for call in (oracle.score_batch, BrownianScoreFn().score_batch):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            call(q, p, t)
    with pytest.raises(ValueError, match="t must be positive and finite"):
        oracle(toy.demo_poses[0], t)


def test_kernel_terms_overflow_to_minus_inf_at_tiny_times_and_subnormal_times_are_refused(toy):
    """At t = 1e-200 every |p_h|^2 / (2t) of a pose 1e95 from the demos overflows, at 1e160 |p_h|^2 itself."""
    t, cfg = 1e-200, DiffusionConfig(t=1e-200, r=toy.config.r, L=1.0)
    q, p = np.stack([g.r.q for g in toy.demo_poses]), np.stack([g.p for g in toy.demo_poses])
    with pytest.raises(ValueError, match="smallest normal double"):  # DiffusionConfig admits 1e-310
        kernel_log_density(q, p, toy.demo_poses, toy.scene, toy.grasp, DiffusionConfig(1e-310, toy.config.r))
    far = p + [[0.0, 0.0, 0.0], [1e95, 0.0, 0.0], [0.0, -1e160, 0.0]]
    density = [kernel_log_density(q, x, toy.demo_poses, toy.scene, toy.grasp, cfg) for x in (far, p)]
    assert np.all(density[0][1:] == -math.inf) and density[0][0] == density[1][0]
    oracle = MixtureScore(toy.demo_set(), cfg)
    for score in (oracle, BrownianScoreFn()):  # with no RuntimeWarning either: the suite makes them errors
        got = score.score_batch(q, far, t)
        assert np.all(np.isnan(got[1:])) and np.array_equal(got[0], score.score_batch(q, p, t)[0])
    frozen = run_denoising(oracle, q, far, build_schedule([(t, t, 1)], eps=0.05), np.random.default_rng(0))
    assert np.all(frozen.error[1:] == "non-finite score") and np.all(frozen.failed_step[1:] == 0)
