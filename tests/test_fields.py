import warnings

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
from se3diffuse.diffusion import BrownianScoreFn, DiffusionConfig, MixtureScore
from se3diffuse.irreps import IrrepsLayout, cg_contract_batch, rep_apply, rep_apply_batch, sh_batch
from se3diffuse.lie import (
    Pose,
    Twist,
    adjoint_inv_transpose,
    apply,
    compose,
    exp_se3,
    inverse,
    quat_conj,
    quat_rotate,
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


def _edf_per_slot(xs, pc, params, t):
    """The field pass as one lobe per slot, mixing the radial terms one at a time."""
    import se3diffuse.fields as fields
    from se3diffuse.irreps import sh_batch
    from se3diffuse.pointcloud import pair_offsets

    out = np.zeros((xs.shape[0], params.layout.dim))
    table = np.einsum("pc,sbcg,g->pbs", fields._color_features(pc), params.channel_weights,
                      params.gate_values(t))
    scale = -0.5 / np.asarray(params.radial_widths) ** 2
    for rows, d in pair_offsets(xs, pc.positions):
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        keep = (d2 <= params.cutoff ** 2) & (d2 > 0.0)
        qi, pi = np.nonzero(keep)
        d2_k = d2[keep]
        dirs = -d[keep] / np.sqrt(d2_k)[:, None]
        radial = np.exp(d2_k[:, None] * scale)
        scal = sum(r[:, None] * tab for r, tab in zip(radial.T, np.swapaxes(table[pi], 0, 1)))
        sh = {l: sh_batch(l, dirs) for l, _ in params.layout.blocks}
        lobes = np.concatenate([scal[:, [s]] * sh[l] for s, l in enumerate(params.layout.slots())],
                               axis=1)
        starts = np.flatnonzero(np.diff(qi, prepend=-1))
        out[rows.start + qi[starts]] = np.add.reduceat(lobes, starts, axis=0)
    return out


@pytest.mark.parametrize("colored", [True, False], ids=["colored", "uncolored"])
@pytest.mark.parametrize("pair_chunk", [None, 100], ids=["one-chunk", "chunked"])
def test_edf_batch_is_bitwise_the_per_slot_field_pass(rng, monkeypatch, colored, pair_chunk):
    import se3diffuse.fields as fields
    import se3diffuse.pointcloud as pointcloud

    # repeated degrees in separate blocks, degrees out of order, up to l = 3
    layout = IrrepsLayout(((1, 1), (0, 2), (3, 1), (1, 2), (2, 1), (0, 1)))
    params = random_edf_params(layout, rng, cutoff=0.9)
    pts = 0.5 * rng.standard_normal((40, 3))
    pc = PointCloud(pts, colors=rng.random((40, 3)) if colored else None)
    # queries near the cloud, on cloud points, and one with no neighbour in the cutoff
    xs = np.concatenate([0.5 * rng.standard_normal((30, 3)), pts[:3], [[9.0, 9.0, 9.0]]])
    if pair_chunk is not None:
        monkeypatch.setattr(pointcloud, "_PAIR_CHUNK", pair_chunk)
    for t in (0.4, None):
        batch = fields._edf_batch(xs, pc, params, t)
        assert np.all(batch[-1] == 0.0) and np.all(np.any(batch[:-1] != 0.0, axis=1))
        assert np.array_equal(batch, _edf_per_slot(xs, pc, params, t))


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


def _poses_near_demos(toy, rng, n):
    return [compose(toy.demo_poses[k % len(toy.demo_poses)],
                    exp_se3(Twist(0.2 * rng.standard_normal(3), 0.3 * rng.standard_normal(3))))
            for k in range(n)]


def _stacks(poses):
    return np.stack([g.r.q for g in poses]), np.stack([g.p for g in poses])


@pytest.mark.parametrize("branches", ["shared"])  # both read the same scene and grasp fields
def test_model_score_batch_matches_assembled_score(toy, rng, branches):
    from se3diffuse.fields import score_design_matrix

    model = toy.model
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
            # the design matrix contracts per path
            design = score_design_matrix(g, toy.scene, toy.grasp, float(t), 0.8, query, model)
            assert np.max(np.abs(design @ stacked - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_model_score_batch_of_one_equals_row(toy, rng):
    query = build_query_set(toy.grasp, toy.model)
    score = ModelScore(toy.scene, toy.grasp, 1.0, query, toy.model)
    for n in (1, 5, 7, 32, 100):
        poses = _poses_near_demos(toy, rng, n)
        batch = score.score_batch(*_stacks(poses), 0.3)
        for g, row in zip(poses, batch):
            one = score.score_batch(g.r.q[None], g.p[None], 0.3)
            assert one.shape == (1, 6)
            assert np.array_equal(one[0], row)
            assert np.array_equal(score(g, 0.3).as_array(), row)


@pytest.mark.parametrize("pair_chunk", [100, 1000], ids=["rows-of-a-frame", "whole-frames"])
def test_model_score_is_bitwise_the_same_in_pair_chunks(toy, rng, monkeypatch, pair_chunk):
    import se3diffuse.pointcloud as pointcloud

    score = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, toy.model),
                       toy.model)
    q, p = _stacks(_poses_near_demos(toy, rng, 7))
    whole = score.score_batch(q, p, 0.3)
    # 2 query rows of one pose, or 2 whole poses (Q = 10, 50 scene points) per chunk
    monkeypatch.setattr(pointcloud, "_PAIR_CHUNK", pair_chunk)
    assert np.array_equal(score.score_batch(q, p, 0.3), whole)


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

    def counting(xs, pc, params, t, frames=None):
        calls.append((pc is toy.grasp, params))
        return real(xs, pc, params, t, frames)

    monkeypatch.setattr(fields, "_edf_batch", counting)
    model = toy.model
    query = build_query_set(toy.grasp, model)
    calls.clear()
    score = ModelScore(toy.scene, toy.grasp, 1.0, query, model)
    for t in (0.9, 0.5, 0.1):
        score.score_batch(*_stacks(_poses_near_demos(toy, rng, 4)), t)
    grasp_params = [params for on_grasp, params in calls if on_grasp]
    assert grasp_params == [model.grasp]
    assert len(calls) - len(grasp_params) == 3  # one scene field per call


@pytest.mark.parametrize("branches", ["shared"])  # both read the same scene and grasp fields
def test_model_score_makes_no_wigner_d_or_rep_apply_call(toy, rng, monkeypatch, branches):
    from se3diffuse import fields, irreps

    model = toy.model
    score = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, model), model)
    q, p = _stacks(_poses_near_demos(toy, rng, 5))
    calls = []

    def counting(name):
        real = getattr(irreps, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("wigner_d", "rep_apply_batch"):
        monkeypatch.setattr(irreps, name, counting(name))
    score.score_batch(q, p, 0.5)
    fields._design_matrix(score, toy.demo_poses[0], 0.5)
    # the scene is taken into each body frame, so no field is rotated
    assert calls == []
    irreps.rep_apply(model.scene.layout, toy.demo_poses[0].r,
                     synthetic_edf(toy.demo_poses[0].p, toy.scene, model.scene, 0.5))
    assert calls == ["rep_apply_batch"] + ["wigner_d"] * len(model.scene.layout.blocks)


def _score_field_reference(toy, model, query, length_unit, g, t):
    """(s_nu, spin, orbital) summed from ``score_field`` one query point at a time."""
    def field(branch, x):
        weights = model.weights_nu if branch == "nu" else model.weights_omega
        return score_field(g, x, toy.scene, toy.grasp, t, model.scene, model.grasp, weights)

    inv_sqrt_t = 1.0 / np.sqrt(t)
    f_nu = np.stack([field("nu", x) for x in query.points])
    f_om = np.stack([field("omega", x) for x in query.points])
    w = query.weights[:, None]
    return (inv_sqrt_t / length_unit * np.sum(w * f_nu, axis=0),
            inv_sqrt_t * np.sum(w * f_om, axis=0),
            inv_sqrt_t * np.sum(w * np.cross(query.points / length_unit, f_nu), axis=0))


@pytest.mark.parametrize("branches", ["shared"])  # both read the same scene and grasp fields
def test_model_score_read_out_matches_per_query_score_fields(toy, rng, branches):
    model = toy.model
    query = build_query_set(toy.grasp, model)
    score = ModelScore(toy.scene, toy.grasp, 0.8, query, model)
    for t in rng.uniform(0.01, 1.0, size=4):
        poses = _poses_near_demos(toy, rng, 3)
        parts = score.score_parts(*_stacks(poses), float(t))
        for k, g in enumerate(poses):
            ref = _score_field_reference(toy, model, query, 0.8, g, float(t))
            for got, want in zip(parts, ref):
                assert np.max(np.abs(want)) > 0.0
                assert np.max(np.abs(got[k] - want)) <= 1e-12 * np.max(np.abs(want))


def _world_edf(xs, pc, params, t):
    """Field at world points xs, one lobe per pair and slot: the pass before the body frame."""
    n_slots = len(params.layout.slots())
    weights = np.einsum("sbcg,g->sbc", params.channel_weights,
                        params.gate_values(t)).reshape(n_slots, -1).T
    colors = np.ones((len(pc), 4))
    if pc.colors is not None:
        colors[:, 1:] = pc.colors
    widths = np.asarray(params.radial_widths)
    d = pc.positions[None, :, :] - xs[:, None, :]
    dist = np.linalg.norm(d, axis=-1)
    keep = (dist <= params.cutoff) & (dist > 0.0)
    qi, pi = np.nonzero(keep)
    dirs = -d[keep] / dist[keep][:, None]
    radial = np.exp(-dist[keep][:, None] ** 2 / (2.0 * widths**2))
    scal = (radial[:, :, None] * colors[pi][:, None, :]).reshape(qi.size, -1) @ weights
    out = np.zeros((xs.shape[0], params.layout.dim))
    for s, (l, off) in enumerate(params.layout.slot_offsets()):
        np.add.at(out[:, off:off + 2 * l + 1], qi, scal[:, s, None] * sh_batch(l, dirs))
    return out


def _world_frame_score_parts(scene, grasp, query, model, length_unit, q, p, t):
    """(s_nu, spin, orbital) from world-frame fields rotated back by Wigner-D stacks."""
    n, qs = q.shape[0], query.points
    xs = quat_rotate(q[:, None, :], qs[None, :, :]) + p[:, None, :]

    def field(weights):
        sp, gp = model.scene, model.grasp
        psi = _world_edf(qs, grasp, gp, None)
        phi = _world_edf(xs.reshape(-1, 3), scene, sp, t).reshape(n, len(qs), -1)
        phi_body = rep_apply_batch(sp.layout, quat_conj(q), phi)
        return cg_contract_batch(gp.layout, np.tile(psi, (n, 1)), sp.layout,
                                 phi_body.reshape(n * len(qs), -1), weights).reshape(n, len(qs), 3)

    f_nu, f_om = field(model.weights_nu), field(model.weights_omega)
    w = query.weights[None, :, None] / np.sqrt(t)
    return (np.sum(w * f_nu, axis=1) / length_unit, np.sum(w * f_om, axis=1),
            np.sum(w * np.cross(qs / length_unit, f_nu), axis=1))


@pytest.mark.parametrize("branches", ["shared"])  # both read the same scene and grasp fields
def test_body_frame_score_matches_the_world_frame_pass(toy, rng, branches):
    # colored clouds, so the (point, radial, slot) table carries the colors
    scene = PointCloud(toy.scene.positions, colors=rng.random((len(toy.scene), 3)))
    grasp = PointCloud(toy.grasp.positions, colors=rng.random((len(toy.grasp), 3)))
    model = toy.model
    query = build_query_set(grasp, model)
    score = ModelScore(scene, grasp, 0.8, query, model)
    for n in (1, 2, 32, 100):
        q, p = _stacks(_poses_near_demos(toy, rng, n))
        for t in (0.01, 0.3, 1.0):
            got = score.score_parts(q, p, t)
            want = _world_frame_score_parts(scene, grasp, query, model, 0.8, q, p, t)
            for a, b in zip(got, want):
                assert np.max(np.abs(b)) > 0.0
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (n, t)


@pytest.mark.parametrize("kind", ["model", "mixture", "brownian"])
def test_score_rows_of_non_finite_poses_are_nan(toy, rng, kind):
    if kind == "model":
        score = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, toy.model),
                           toy.model)
    elif kind == "mixture":
        score = MixtureScore(toy.demo_set(), DiffusionConfig(t=1.0, r=toy.config.r, L=1.0))
    else:
        score = BrownianScoreFn()
    q, p = _stacks(_poses_near_demos(toy, rng, 7))
    healthy = score.score_batch(q, p, 0.3)
    q[1, 2], q[2, 0], p[3, 0], p[4, 1] = np.nan, np.inf, np.nan, -np.inf
    q[5] = [1.0, 0.2, -0.1, 0.3]  # norm 1.07: off 1 by more than the Rotation rule's 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bad pose costs no floating-point warning
        out = score.score_batch(q, p, 0.3)
    bad = np.array([False, True, True, True, True, True, False])
    assert np.all(np.isnan(out[bad]))
    assert np.array_equal(out[~bad], healthy[~bad])  # the other rows keep their bits


def test_sampler_freezes_a_nan_model_chain_and_keeps_the_others(toy, rng):
    from se3diffuse.sampler import build_schedule, run_denoising

    class NanChainOnce:
        """The model score, with chain 1's translation NaN at the first batched call."""

        def __init__(self, inner):
            self.inner, self.calls = inner, 0

        def score_batch(self, q, p, t):
            p = p.copy()
            if self.calls == 0:
                p[1] = np.nan
            self.calls += 1
            return self.inner.score_batch(q, p, t)

    score = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, toy.model),
                       toy.model)
    schedule = build_schedule([(1.0, 0.1, 10)], eps=0.05)
    q0, p0 = _stacks(_poses_near_demos(toy, rng, 3))
    plain = run_denoising(score, q0, p0, schedule, np.random.default_rng(5))
    hit = run_denoising(NanChainOnce(score), q0, p0, schedule, np.random.default_rng(5))
    assert hit.failed_step.tolist() == [-1, 0, -1] and hit.error[1] == "non-finite score"
    assert np.array_equal(hit.trajectory[1, -1], hit.trajectory[1, 0])  # frozen at its start
    for k in (0, 2):
        assert np.array_equal(hit.trajectory[k], plain.trajectory[k])


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

    def counting(xs, pc, params, t, frames=None):
        calls["grasp"] += pc is toy.grasp
        return real(xs, pc, params, t, frames)

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
