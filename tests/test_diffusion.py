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
    brownian_score,
    contact_origin_weights,
    forward_diffuse,
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
    random_rotation,
    translation_pose,
)
from se3diffuse.pointcloud import PointCloud, radius_count, transform


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
    rng = np.random.default_rng(3)
    angles = np.array([brownian_sample(t, rng).r.angle for _ in range(4000)])
    assert stats.kstest(angles / math.sqrt(t), stats.chi(3).cdf).pvalue > 1e-3


def test_brownian_sample_moments_and_angle_marginal():
    rng = np.random.default_rng(1)
    n = 100_000
    ps = np.empty((n, 3))
    angs = np.empty(n)
    for i in range(n):
        g = brownian_sample(1.0, rng)
        ps[i] = g.p
        angs[i] = g.r.angle
    cov = np.cov(ps.T)
    assert np.max(np.abs(cov - np.eye(3))) < 0.05
    angs.sort()
    grid, cdf = angle_cdf_quadrature(IgParams(eps=0.5))
    ca = np.interp(angs, grid, cdf)
    ks = np.max(np.maximum(np.arange(1, n + 1) / n - ca, ca - np.arange(n) / n))
    assert ks < 0.01


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
    """The scalar call is a batch of one; brownian_score itself still raises."""
    fn = BrownianScoreFn()
    t = 0.5
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    g = Pose(0.1 * rng.standard_normal(3), exp_so3((math.pi - 1e-7) * axis))
    poses = [brownian_sample(t, rng) for _ in range(3)] + [g]
    batch = fn.score_batch(np.stack([h.r.q for h in poses]), np.stack([h.p for h in poses]), t)
    one = fn(g, t).as_array()
    assert np.all(np.isfinite(one))
    assert np.allclose(one, batch[3], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="pi"):
        brownian_score(g, t)


def test_brownian_score_batch_matches_scalar(rng):
    fn = BrownianScoreFn()
    t = 0.4
    poses = [brownian_sample(t, rng) for _ in range(20)]
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    batch = fn.score_batch(q, p, t)
    for i, g in enumerate(poses):
        assert np.allclose(batch[i], fn(g, t).as_array(), atol=1e-12)


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
    lhs = kernel_log_density(g.r.q[None], g.p[None], g0, scene, grasp, cfg)[0]
    rhs = brownian_log_density(compose(inverse(g0), g), cfg.t)
    assert abs(lhs - rhs) < 1e-12


def _kernel_log_density_reference(g, g0, scene, grasp, cfg):
    """Scalar loop: log-sum-exp over components of logw + brownian_log_density."""
    from se3diffuse.diffusion import _component_log_weights

    pts, logw = _component_log_weights(g0, scene, grasp, cfg)
    vals = []
    for k in range(pts.shape[0]):
        tp = translation_pose(pts[k])
        h = compose(compose(compose(inverse(tp), inverse(g0)), g), tp)
        vals.append(logw[k] + brownian_log_density(h, cfg.t))
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
            batch = kernel_log_density(q, p, g0, toy.scene, toy.grasp, cfg)
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
    full = kernel_log_density(q, p, g0, toy.scene, toy.grasp, cfg)
    for i in range(len(poses)):
        one = kernel_log_density(q[i:i + 1], p[i:i + 1], g0, toy.scene, toy.grasp, cfg)
        # not bitwise: the series' matrix-vector product rounds differently
        # for one row than for many (about 1e-14 relative)
        assert one.shape == (1,) and abs(one[0] - full[i]) < 1e-12


def test_density_and_score_batch_of_one_are_bitwise_their_rows(toy, rng):
    g0 = toy.demo_poses[0]
    poses = _poses_around(g0, rng, 12)
    q = np.stack([g.r.q for g in poses])
    p = np.stack([g.p for g in poses])
    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        oracle = MixtureScore(toy.demo_set(), cfg)
        dens = kernel_log_density(q, p, g0, toy.scene, toy.grasp, cfg)
        scores = oracle.score_batch(q, p, t)
        for i in range(len(poses)):
            assert kernel_log_density(q[i:i + 1], p[i:i + 1], g0, toy.scene, toy.grasp, cfg)[0] == dens[i]
            assert np.array_equal(oracle.score_batch(q[i:i + 1], p[i:i + 1], t)[0], scores[i])


def test_pose_level_kernel_calls_are_bitwise_rows_of_their_batches(toy, rng):
    """brownian_log_density, brownian_score and target_score are batches of one.

    Their stack forms: kernel_log_density of an identity demo with one grasp
    point at the origin, BrownianScoreFn.score_batch, and MixtureScore with
    a single grasp point (one component of weight 1).
    """
    g0 = toy.demo_poses[0]
    p_de = toy.grasp.positions[5]
    origin = PointCloud(np.zeros((1, 3)))

    def poses_and_stacks(base):
        # the scalar calls raise within 1e-6 of pi, so keep a margin there
        poses = [g for g in _poses_around(base, rng, 15)
                 if quat_angle(compose(inverse(base), g).r.q) < math.pi - 2e-6]
        return poses, np.stack([g.r.q for g in poses]), np.stack([g.p for g in poses])

    for t in (0.01, 0.5, 2.0):
        cfg = DiffusionConfig(t=t, r=toy.config.r, L=1.0)
        hs, q, p = poses_and_stacks(Pose.identity())
        dens = kernel_log_density(q, p, Pose.identity(), toy.scene, origin, cfg)
        scores = BrownianScoreFn().score_batch(q, p, t)
        for i, h in enumerate(hs):
            assert brownian_log_density(h, t) == dens[i]
            assert np.array_equal(brownian_score(h, t).as_array(), scores[i])
        gs, q, p = poses_and_stacks(g0)
        oracle = MixtureScore(DemoSet(((g0, toy.scene, PointCloud(p_de[None])),)), cfg)
        scores = oracle.score_batch(q, p, t)
        for i, g in enumerate(gs):
            assert np.array_equal(target_score(g, g0, p_de, t).as_array(), scores[i])


def test_target_score_raises_within_1e6_of_pi(rng):
    g0 = random_pose(rng)
    p_de = rng.standard_normal(3)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    for gap in (1e-7, 5e-7, 2e-6):
        g = compose(g0, Pose(0.1 * rng.standard_normal(3), exp_so3((math.pi - gap) * axis)))
        if gap < 1e-6:
            with pytest.raises(ValueError, match="pi"):
                target_score(g, g0, p_de, 0.5)
        else:
            assert np.all(np.isfinite(target_score(g, g0, p_de, 0.5).as_array()))


def test_kernel_bi_equivariance(toy, rng):
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    g0 = toy.demo_poses[0]
    g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
    base = kernel_log_density(g.r.q[None], g.p[None], g0, toy.scene, toy.grasp, cfg)[0]
    for _ in range(100):
        dg = random_pose(rng, scale=0.7)
        g_left = compose(dg, g)
        left = kernel_log_density(g_left.r.q[None], g_left.p[None], compose(dg, g0),
                                  transform(toy.scene, dg), toy.grasp, cfg)[0]
        assert abs(left - base) < 1e-9
        dgi = inverse(dg)
        g_right = compose(g, dgi)
        right = kernel_log_density(g_right.r.q[None], g_right.p[None], compose(g0, dgi),
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
        vals = [kernel_log_density(gg.r.q[None], gg.p[None], g0, toy.scene, toy.grasp, cfg)[0]
                for g0 in toy.demo_poses]
        m = max(vals)
        return m + math.log(sum(math.exp(v - m) for v in vals) / len(vals))

    s = marginal_score_oracle(g, demos, cfg).as_array()
    fd = fd_score(mixture_log_density, g)
    assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4


def test_oracle_density_weighted_average_consistency(toy, rng):
    """The oracle equals the manual density-weighted average of targets."""
    from se3diffuse.diffusion import _component_log_weights

    cfg = DiffusionConfig(t=0.4, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    for _ in range(5):
        g = compose(toy.demo_poses[0],
                    exp_se3(Twist(0.3 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
        logs, scores = [], []
        for g0 in toy.demo_poses:
            pts, logw = _component_log_weights(g0, toy.scene, toy.grasp, cfg)
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
    with pytest.raises(ValueError):
        DemoSet(())
    other_scene = PointCloud(np.random.default_rng(0).standard_normal((5, 3)))
    mixed = DemoSet(((toy.demo_poses[0], toy.scene, toy.grasp),
                     (toy.demo_poses[1], other_scene, toy.grasp)))
    with pytest.raises(ValueError):
        mixed.shared_clouds()


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(t=0.0, r=1.0, L=1.0)
    with pytest.raises(ValueError):
        DiffusionConfig(t=1.0, r=-1.0, L=1.0)
    cfg = DiffusionConfig(t=1.0, r=0.3, L=2.0)
    assert cfg.r_nd == 0.15


def test_frame_target_score_generalizes_translation_frames(rng):
    from se3diffuse.diffusion import frame_target_score

    for _ in range(10):
        g0 = random_pose(rng)
        p_de = rng.standard_normal(3)
        g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3),
                                      0.2 * rng.standard_normal(3))))
        a = target_score(g, g0, p_de, 0.6).as_array()
        b = frame_target_score(g, g0, translation_pose(p_de), 0.6).as_array()
        assert np.allclose(a, b, atol=1e-12)


def test_frame_target_score_full_frame_matches_finite_differences(rng):
    from se3diffuse.diffusion import frame_target_score

    t = 0.5
    for _ in range(5):
        g0 = random_pose(rng)
        g_de = random_pose(rng, scale=0.5)
        g = compose(g0, exp_se3(Twist(0.2 * rng.standard_normal(3),
                                      0.2 * rng.standard_normal(3))))

        def log_density(gg):
            h = compose(compose(compose(inverse(g_de), inverse(g0)), gg), g_de)
            return brownian_log_density(h, t)

        s = frame_target_score(g, g0, g_de, t).as_array()
        fd = fd_score(log_density, g)
        assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4


def test_mixture_score_scalar_call_clamps_near_pi_like_batch(toy, rng):
    """The scalar call is a batch of one, so both clamp kernel angles near pi."""
    demos = DemoSet(toy.demo_set().demos[:1])
    g0 = demos.demos[0][0]
    cfg = DiffusionConfig(t=0.5, r=toy.config.r, L=1.0)
    oracle = MixtureScore(demos, cfg)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    g = compose(g0, Pose(0.1 * rng.standard_normal(3), exp_so3((math.pi - 1e-7) * axis)))
    assert quat_angle(compose(inverse(g0), g).r.q) > math.pi - 1e-6
    others = _poses_around(g0, rng, 6)
    poses = others[:3] + [g] + others[3:]
    batch = oracle.score_batch(np.stack([h.r.q for h in poses]),
                               np.stack([h.p for h in poses]), cfg.t)
    one = oracle(g, cfg.t).as_array()
    assert np.all(np.isfinite(one))
    assert np.allclose(one, batch[3], rtol=1e-12, atol=1e-12)
