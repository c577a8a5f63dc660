import numpy as np
import pytest

from se3diffuse.fields import (
    ModelScore,
    QuerySet,
    ScoreModelParams,
    assemble_score,
    assemble_score_parts,
    build_query_set,
    fps_select,
    query_weights,
    random_edf_params,
    random_model_params,
    score_field,
    synthetic_edf,
)
from se3diffuse.irreps import IrrepsLayout, rep_apply
from se3diffuse.lie import (
    Pose,
    Twist,
    adjoint_inv_transpose,
    apply,
    compose,
    exp_se3,
    inverse,
    random_rotation,
)
from se3diffuse.pointcloud import PointCloud, transform


def random_pose(rng, scale=1.0):
    return Pose(scale * rng.standard_normal(3), random_rotation(rng))


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

def test_fps_all_points_visit_order():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    out = fps_select(PointCloud(pts), 3, start_index=0)
    assert np.array_equal(out, pts[[0, 2, 1]])


def test_fps_single_point_is_start():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(fps_select(PointCloud(pts), 1, start_index=1), pts[[1]])


def test_fps_collinear_example():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    out = fps_select(PointCloud(pts), 2, start_index=0)
    assert np.array_equal(out, pts[[0, 2]])


def test_fps_count_validation():
    pc = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        fps_select(pc, 3)


def test_fps_equivariance(rng):
    pc = PointCloud(rng.standard_normal((40, 3)))
    sel = fps_select(pc, 7, start_index=2)
    for _ in range(20):
        g = random_pose(rng)
        sel_moved = fps_select(transform(pc, g), 7, start_index=2)
        assert np.allclose(sel_moved, apply(g, sel), atol=1e-12)


# ---------------------------------------------------------------------------
# Synthetic descriptor fields
# ---------------------------------------------------------------------------

def test_edf_zero_outside_cutoff(rng):
    layout = IrrepsLayout(((0, 1), (1, 1)))
    params = random_edf_params(layout, rng, cutoff=0.5)
    pc = PointCloud(np.array([[10.0, 0.0, 0.0]]))
    v = synthetic_edf(np.zeros(3), pc, params, t=0.5)
    assert np.allclose(v.coeffs, 0.0)


def test_edf_skips_coincident_point(rng):
    layout = IrrepsLayout(((0, 1), (1, 1)))
    params = random_edf_params(layout, rng, cutoff=1.0)
    x = np.array([0.2, -0.1, 0.4])
    pc_with = PointCloud(np.array([x, [0.5, 0.0, 0.0]]))
    pc_without = PointCloud(np.array([[0.5, 0.0, 0.0]]))
    a = synthetic_edf(x, pc_with, params, t=0.5)
    b = synthetic_edf(x, pc_without, params, t=0.5)
    assert np.allclose(a.coeffs, b.coeffs)


def test_edf_linear_in_channel_weights(rng):
    layout = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    params = random_edf_params(layout, rng, cutoff=1.2)
    from se3diffuse.fields import SyntheticEdfParams

    params2 = SyntheticEdfParams(params.layout, params.cutoff, params.radial_widths,
                                 2.0 * params.channel_weights, params.time_gate_centers)
    pc = PointCloud(rng.standard_normal((30, 3)), colors=rng.random((30, 3)))
    x = 0.3 * rng.standard_normal(3)
    a = synthetic_edf(x, pc, params, t=0.7)
    b = synthetic_edf(x, pc, params2, t=0.7)
    assert np.allclose(b.coeffs, 2.0 * a.coeffs, atol=1e-12)


def test_edf_equivariance(rng):
    layout = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    params = random_edf_params(layout, rng, cutoff=1.5)
    pc = PointCloud(rng.standard_normal((40, 3)), colors=rng.random((40, 3)))
    x = 0.4 * rng.standard_normal(3)
    base = synthetic_edf(x, pc, params, t=0.5)
    for _ in range(50):
        dg = random_pose(rng)
        moved = synthetic_edf(apply(dg, x), transform(pc, dg), params, t=0.5)
        ref = rep_apply(layout, dg.r, base)
        assert np.max(np.abs(moved.coeffs - ref.coeffs)) < 1e-9


def test_edf_time_gates():
    layout = IrrepsLayout(((0, 1),))
    from se3diffuse.fields import SyntheticEdfParams

    params = SyntheticEdfParams(layout, 1.0, (0.5,), np.ones((1, 1, 4, 2)),
                                time_gate_centers=(-2.0, 0.0))
    assert np.allclose(params.gate_values(None), 1.0)
    gates = params.gate_values(1.0)  # log t = 0: second gate at its peak
    assert gates[1] == 1.0 and gates[0] < 1.0


def test_edf_time_gate_centers_must_increase():
    layout = IrrepsLayout(((0, 1),))
    from se3diffuse.fields import SyntheticEdfParams

    # equal centers used to give NaN gates at t = 1 and zero fields elsewhere
    for centers in ((0.0, 0.0), (0.0, -1.0), (-2.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            SyntheticEdfParams(layout, 1.0, (0.5,), np.ones((1, 1, 4, len(centers))),
                               time_gate_centers=centers)


@pytest.mark.parametrize("pair_chunk", [None, 100], ids=["one-chunk", "chunked"])
def test_edf_batch_rows_are_bitwise_single_query_calls(rng, monkeypatch, pair_chunk):
    import se3diffuse.fields as fields
    import se3diffuse.pointcloud as pointcloud

    params = random_edf_params(IrrepsLayout(((0, 2), (1, 2), (2, 1), (3, 1))), rng, cutoff=0.9)
    pc = PointCloud(0.5 * rng.standard_normal((40, 3)), colors=rng.random((40, 3)))
    # queries on cloud points (the coincident pair is skipped) and one far from the cloud
    xs = np.concatenate([0.5 * rng.standard_normal((30, 3)), pc.positions[:3], [[9.0, 9.0, 9.0]]])
    if pair_chunk is not None:  # 2 query rows per chunk
        monkeypatch.setattr(pointcloud, "_PAIR_CHUNK", pair_chunk)
    batch = fields._edf_batch(xs, pc, params, 0.4)
    assert np.all(np.any(batch[:-1] != 0.0, axis=1)) and np.all(batch[-1] == 0.0)
    for x, row in zip(xs, batch):
        assert np.array_equal(row, synthetic_edf(x, pc, params, t=0.4).coeffs)


# ---------------------------------------------------------------------------
# Score field and assembled score
# ---------------------------------------------------------------------------

def test_score_field_zero_for_empty_grasp_neighborhood(toy, rng):
    model = toy.model
    x = np.array([50.0, 0.0, 0.0])  # far outside the grasp cloud's cutoff
    g = random_pose(rng)
    out = score_field(g, x, toy.scene, toy.grasp, 0.5, model.scene, model.grasp,
                      model.weights_nu)
    assert np.allclose(out, 0.0)


def test_score_field_left_invariance_right_equivariance(toy, rng):
    model = toy.model
    g = compose(toy.demo_poses[0],
                exp_se3(Twist(0.1 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    x = toy.grasp.positions[40] + 0.02 * rng.standard_normal(3)
    base = score_field(g, x, toy.scene, toy.grasp, 0.5, model.scene, model.grasp,
                       model.weights_nu)
    for _ in range(30):
        dg = random_pose(rng, scale=0.6)
        left = score_field(compose(dg, g), x, transform(toy.scene, dg), toy.grasp, 0.5,
                           model.scene, model.grasp, model.weights_nu)
        assert np.max(np.abs(left - base)) < 1e-9
        dgi = inverse(dg)
        right = score_field(compose(g, dgi), apply(dg, x), toy.scene,
                            transform(toy.grasp, dg), 0.5,
                            model.scene, model.grasp, model.weights_nu)
        assert np.max(np.abs(right - dg.r.matrix() @ base)) < 1e-9


def test_query_weight_invariance(toy, rng):
    model = toy.model
    pts = fps_select(toy.grasp, 6)
    base = query_weights(pts, toy.grasp, model.weight_field)
    for _ in range(20):
        dg = random_pose(rng)
        moved = query_weights(apply(dg, pts), transform(toy.grasp, dg), model.weight_field)
        assert np.max(np.abs(moved - base)) < 1e-9


def test_assemble_zero_weights_gives_zero(toy):
    model = toy.model
    query = QuerySet(toy.grasp.positions[:4], np.zeros(4))
    s = assemble_score(toy.demo_poses[0], toy.scene, toy.grasp, 0.5, 1.0, query, model)
    assert np.allclose(s.as_array(), 0.0)


def test_assemble_empty_query_warns_and_zeroes(toy):
    model = toy.model
    query = QuerySet(np.zeros((0, 3)), np.zeros(0))
    with pytest.warns(RuntimeWarning):
        s = assemble_score(toy.demo_poses[0], toy.scene, toy.grasp, 0.5, 1.0, query, model)
    assert np.allclose(s.as_array(), 0.0)


def test_assemble_single_origin_query_has_no_orbital_term(toy):
    model = toy.model
    query = QuerySet(np.zeros((1, 3)), np.ones(1))
    s_nu, spin, orbital = assemble_score_parts(toy.demo_poses[0], toy.scene, toy.grasp,
                                               0.5, 1.0, query, model)
    assert np.allclose(orbital, 0.0)
    full = assemble_score(toy.demo_poses[0], toy.scene, toy.grasp, 0.5, 1.0, query, model)
    assert np.allclose(full.omega, spin)


def test_assemble_score_bi_equivariance(toy, rng):
    model = toy.model
    g = compose(toy.demo_poses[1],
                exp_se3(Twist(0.1 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    query = build_query_set(toy.grasp, model)
    base = assemble_score(g, toy.scene, toy.grasp, 0.5, 1.0, query, model).as_array()
    for _ in range(50):
        dg = random_pose(rng, scale=0.6)
        left = assemble_score(compose(dg, g), transform(toy.scene, dg), toy.grasp,
                              0.5, 1.0, query, model).as_array()
        assert np.max(np.abs(left - base)) < 1e-8
        dgi = inverse(dg)
        grasp_moved = transform(toy.grasp, dg)
        query_moved = build_query_set(grasp_moved, model)
        right = assemble_score(compose(g, dgi), toy.scene, grasp_moved,
                               0.5, 1.0, query_moved, model).as_array()
        assert np.max(np.abs(right - adjoint_inv_transpose(dg) @ base)) < 1e-8


def test_spin_and_orbital_transform_separately(toy, rng):
    model = toy.model
    g = compose(toy.demo_poses[1],
                exp_se3(Twist(0.1 * rng.standard_normal(3), 0.2 * rng.standard_normal(3))))
    query = build_query_set(toy.grasp, model)
    s_nu, spin, orbital = assemble_score_parts(g, toy.scene, toy.grasp, 0.5, 1.0, query, model)
    for _ in range(20):
        dg = random_pose(rng, scale=0.6)
        dgi = inverse(dg)
        grasp_moved = transform(toy.grasp, dg)
        query_moved = build_query_set(grasp_moved, model)
        s_nu2, spin2, orbital2 = assemble_score_parts(
            compose(g, dgi), toy.scene, grasp_moved, 0.5, 1.0, query_moved, model)
        rm = dg.r.matrix()
        assert np.max(np.abs(spin2 - rm @ spin)) < 1e-8  # spin: rotation only
        cross = np.cross(dg.p, rm @ s_nu)  # orbital picks up the lever-arm term
        assert np.max(np.abs(orbital2 - (rm @ orbital + cross))) < 1e-8


def test_query_set_validation():
    with pytest.raises(ValueError):
        QuerySet(np.zeros((2, 3)), np.array([1.0]))
    with pytest.raises(ValueError):
        QuerySet(np.zeros((1, 3)), np.array([-0.5]))


def test_weight_field_must_be_scalar(toy, rng):
    bad = random_edf_params(IrrepsLayout(((1, 1),)), rng, cutoff=0.5)
    with pytest.raises(ValueError, match="scalar"):
        query_weights(np.zeros((1, 3)), toy.grasp, bad)


def test_separate_omega_fields_supported(toy, rng):
    model = toy.model
    other = random_edf_params(model.scene.layout, rng, cutoff=model.scene.cutoff)
    split = ScoreModelParams(
        scene=model.scene, grasp=model.grasp,
        weights_nu=model.weights_nu, weights_omega=model.weights_omega,
        weight_field=model.weight_field, scene_omega=other,
        query_count=model.query_count)
    query = build_query_set(toy.grasp, split)
    g = toy.demo_poses[0]
    a = assemble_score(g, toy.scene, toy.grasp, 0.5, 1.0, query, model).as_array()
    b = assemble_score(g, toy.scene, toy.grasp, 0.5, 1.0, query, split).as_array()
    assert np.allclose(a[:3], b[:3])  # shared nu branch
    assert not np.allclose(a[3:], b[3:])  # distinct omega branch


def _poses_near_demos(toy, rng, n):
    return [compose(toy.demo_poses[k % len(toy.demo_poses)],
                    exp_se3(Twist(0.2 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
            for k in range(n)]


def _stacks(poses):
    return np.stack([g.r.q for g in poses]), np.stack([g.p for g in poses])


def _split_model(model, rng):
    """The toy model with un-shared omega-branch scene and grasp fields."""
    layout = model.scene.layout
    return ScoreModelParams(
        scene=model.scene, grasp=model.grasp,
        weights_nu=model.weights_nu, weights_omega=model.weights_omega,
        weight_field=model.weight_field,
        scene_omega=random_edf_params(layout, rng, cutoff=model.scene.cutoff),
        grasp_omega=random_edf_params(layout, rng, cutoff=model.grasp.cutoff),
        query_count=model.query_count)


@pytest.mark.parametrize("split", [False, True], ids=["shared", "split-omega"])
def test_model_score_batch_matches_assembled_score(toy, rng, split):
    from se3diffuse.fields import score_design_matrix

    model = _split_model(toy.model, rng) if split else toy.model
    query = build_query_set(toy.grasp, model)
    score = ModelScore(toy.scene, toy.grasp, 0.8, query, model)
    stacked = np.concatenate([model.weights_nu, model.weights_omega])
    for t in rng.uniform(0.01, 1.0, size=6):
        poses = _poses_near_demos(toy, rng, 8)
        batch = score.score_batch(*_stacks(poses), float(t))
        assert batch.shape == (8, 6)
        for g, row in zip(poses, batch):
            ref = assemble_score(g, toy.scene, toy.grasp, float(t), 0.8, query, model).as_array()
            assert np.linalg.norm(ref) > 0.0
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
            # the design matrix contracts per path, apart from the branch sharing
            design = score_design_matrix(g, toy.scene, toy.grasp, float(t), 0.8, query, model)
            assert np.max(np.abs(design @ stacked - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_model_score_batch_of_one_equals_row(toy, rng):
    query = build_query_set(toy.grasp, toy.model)
    score = ModelScore(toy.scene, toy.grasp, 1.0, query, toy.model)
    poses = _poses_near_demos(toy, rng, 5)
    batch = score.score_batch(*_stacks(poses), 0.3)
    for g, row in zip(poses, batch):
        one = score.score_batch(g.r.q[None], g.p[None], 0.3)
        assert one.shape == (1, 6)
        assert np.allclose(one[0], row, rtol=1e-12, atol=0.0)
        assert np.allclose(score(g, 0.3).as_array(), row, rtol=1e-12, atol=0.0)


def test_model_score_batch_bi_equivariance(toy, rng):
    model = toy.model
    query = build_query_set(toy.grasp, model)
    poses = _poses_near_demos(toy, rng, 6)
    base = ModelScore(toy.scene, toy.grasp, 1.0, query, model).score_batch(*_stacks(poses), 0.5)
    for _ in range(10):
        dg = random_pose(rng, scale=0.6)
        left = ModelScore(transform(toy.scene, dg), toy.grasp, 1.0, query, model).score_batch(
            *_stacks([compose(dg, g) for g in poses]), 0.5)
        assert np.max(np.abs(left - base)) < 1e-8
        grasp_moved = transform(toy.grasp, dg)
        moved = ModelScore(toy.scene, grasp_moved, 1.0, build_query_set(grasp_moved, model), model)
        right = moved.score_batch(*_stacks([compose(g, inverse(dg)) for g in poses]), 0.5)
        assert np.max(np.abs(right - base @ adjoint_inv_transpose(dg).T)) < 1e-8


def test_model_score_evaluates_grasp_field_once_per_params(toy, rng, monkeypatch):
    import se3diffuse.fields as fields

    calls = []
    real = fields._edf_batch

    def counting(xs, pc, params, t):
        calls.append((pc is toy.grasp, params))
        return real(xs, pc, params, t)

    monkeypatch.setattr(fields, "_edf_batch", counting)
    for model, distinct in ((toy.model, 1), (_split_model(toy.model, rng), 2)):
        query = build_query_set(toy.grasp, model)
        calls.clear()
        score = ModelScore(toy.scene, toy.grasp, 1.0, query, model)
        for t in (0.9, 0.5, 0.1):
            score.score_batch(*_stacks(_poses_near_demos(toy, rng, 4)), t)
        grasp_params = [params for on_grasp, params in calls if on_grasp]
        assert len(grasp_params) == distinct
        assert len({id(p) for p in grasp_params}) == distinct
        assert len(calls) - len(grasp_params) == 3 * distinct  # one scene field per call


@pytest.mark.parametrize("split", [False, True], ids=["shared", "split-omega"])
def test_model_score_makes_one_wigner_d_call_per_block(toy, rng, monkeypatch, split):
    from se3diffuse import irreps

    model = _split_model(toy.model, rng) if split else toy.model
    score = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, model), model)
    q, p = _stacks(_poses_near_demos(toy, rng, 5))
    score.score_batch(q, p, 0.5)  # fill the CG-tensor and steering caches
    calls = []
    real = irreps.wigner_d

    def counting(l, r):
        calls.append(l)
        return real(l, r)

    monkeypatch.setattr(irreps, "wigner_d", counting)
    score.score_batch(q, p, 0.5)
    # one Wigner-D stack per block of each distinct scene field, for all poses at once
    assert calls == [l for l, _ in model.scene.layout.blocks] * (2 if split else 1)


def test_model_score_validation(toy):
    query = build_query_set(toy.grasp, toy.model)
    score = ModelScore(toy.scene, toy.grasp, 1.0, query, toy.model)
    g = toy.demo_poses[0]
    with pytest.raises(ValueError, match="t must be positive"):
        score.score_batch(g.r.q[None], g.p[None], 0.0)
    empty = ModelScore(toy.scene, toy.grasp, 1.0, QuerySet(np.zeros((0, 3)), np.zeros(0)),
                       toy.model)
    with pytest.warns(RuntimeWarning, match="empty query set"):
        out = empty.score_batch(np.stack([g.r.q] * 3), np.stack([g.p] * 3), 0.5)
    assert out.shape == (3, 6) and np.all(out == 0.0)


def test_score_design_matrix_matches_assembled_score(toy, rng):
    from se3diffuse.fields import score_design_matrix

    model = toy.model
    query = build_query_set(toy.grasp, model)
    for _ in range(5):
        g = compose(toy.demo_poses[0],
                    exp_se3(Twist(0.2 * rng.standard_normal(3),
                                  0.2 * rng.standard_normal(3))))
        a = score_design_matrix(g, toy.scene, toy.grasp, 0.5, 1.0, query, model)
        stacked = np.concatenate([model.weights_nu, model.weights_omega])
        direct = assemble_score(g, toy.scene, toy.grasp, 0.5, 1.0, query, model).as_array()
        assert np.allclose(a @ stacked, direct, atol=1e-10)


def test_fit_path_weights_recovers_model_scores(toy, rng):
    from se3diffuse.fields import fit_path_weights

    truth = toy.model
    query = build_query_set(toy.grasp, truth)
    poses_times = []
    targets = []
    for _ in range(40):
        g = compose(toy.demo_poses[int(rng.integers(3))],
                    exp_se3(Twist(0.3 * rng.standard_normal(3),
                                  0.3 * rng.standard_normal(3))))
        t = float(rng.uniform(0.1, 1.0))
        poses_times.append((g, t))
        targets.append(assemble_score(g, toy.scene, toy.grasp, t, 1.0, query, truth).as_array())
    start = ScoreModelParams(
        scene=truth.scene, grasp=truth.grasp,
        weights_nu=np.zeros_like(truth.weights_nu),
        weights_omega=np.zeros_like(truth.weights_omega),
        weight_field=truth.weight_field, query_count=truth.query_count)
    fitted = fit_path_weights(poses_times, np.stack(targets), toy.scene, toy.grasp,
                              1.0, query, start)
    for g, t in poses_times[:8]:
        a = assemble_score(g, toy.scene, toy.grasp, t, 1.0, query, fitted).as_array()
        b = assemble_score(g, toy.scene, toy.grasp, t, 1.0, query, truth).as_array()
        assert np.max(np.abs(a - b)) < 1e-6


def test_fit_path_weights_evaluates_the_grasp_field_once(toy, rng, monkeypatch):
    import se3diffuse.fields as fields

    model = toy.model
    query = build_query_set(toy.grasp, model)
    poses_times = [(random_pose(rng), float(rng.uniform(0.1, 1.0))) for _ in range(6)]
    calls = {"grasp": 0}
    real = fields._edf_batch

    def counting(xs, pc, params, t):
        calls["grasp"] += pc is toy.grasp
        return real(xs, pc, params, t)

    monkeypatch.setattr(fields, "_edf_batch", counting)
    fields.fit_path_weights(poses_times, rng.standard_normal((6, 6)), toy.scene, toy.grasp,
                            1.0, query, model)
    assert calls["grasp"] == 1


def test_fit_path_weights_solves_on_the_design_matrix_rows(toy, rng):
    from se3diffuse.fields import fit_path_weights, score_design_matrix

    model = toy.model
    query = build_query_set(toy.grasp, model)
    poses_times = [(random_pose(rng), float(rng.uniform(0.1, 1.0))) for _ in range(4)]
    targets = rng.standard_normal((4, 6))
    fitted = fit_path_weights(poses_times, targets, toy.scene, toy.grasp, 1.0, query, model)
    a = np.concatenate([score_design_matrix(g, toy.scene, toy.grasp, t, 1.0, query, model)
                        for g, t in poses_times])
    sol = np.linalg.solve(a.T @ a + 1e-10 * np.eye(a.shape[1]), a.T @ targets.reshape(-1))
    assert np.array_equal(np.concatenate([fitted.weights_nu, fitted.weights_omega]), sol)
