import numpy as np
import pytest

from se3diffuse.lie import Pose, apply, compose, inverse, random_rotation
from se3diffuse.pointcloud import PointCloud, radius_count, transform, voxel_downsample


def random_pose(rng):
    return Pose(rng.standard_normal(3), random_rotation(rng))


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 3)), colors=np.zeros((3, 3)))
    assert len(PointCloud(np.zeros((0, 3)))) == 0


def test_transform_identity_and_round_trip(rng):
    pc = PointCloud(rng.standard_normal((30, 3)), colors=rng.random((30, 3)))
    assert np.array_equal(transform(pc, Pose.identity()).positions, pc.positions)
    g = random_pose(rng)
    back = transform(transform(pc, g), inverse(g))
    assert np.allclose(back.positions, pc.positions, atol=1e-12)
    assert np.array_equal(back.colors, pc.colors)


def test_transform_matches_pose_composition(rng):
    pc = PointCloud(rng.standard_normal((20, 3)))
    a, b = random_pose(rng), random_pose(rng)
    lhs = transform(transform(pc, b), a)
    rhs = transform(pc, compose(a, b))
    assert np.allclose(lhs.positions, rhs.positions, atol=1e-12)


def test_voxel_single_cell_centroid():
    pc = PointCloud(np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))
    out = voxel_downsample(pc, 1.0)
    assert out.positions.shape == (1, 3)
    assert np.allclose(out.positions[0], [0.15, 0.0, 0.0])


def test_voxel_preserves_separated_grid():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    out = voxel_downsample(PointCloud(pts), 1.0)
    assert len(out) == 3


def test_voxel_deterministic_ordering_and_colors(rng):
    pts = rng.standard_normal((200, 3))
    pc = PointCloud(pts, colors=rng.random((200, 3)))
    a = voxel_downsample(pc, 0.5)
    b = voxel_downsample(PointCloud(pts.copy(), pc.colors.copy()), 0.5)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.colors, b.colors)
    idx = np.floor(a.positions / 0.5).astype(int)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    assert np.array_equal(order, np.arange(len(a)))


def test_voxel_idempotent_when_separated(rng):
    pc = voxel_downsample(PointCloud(rng.standard_normal((100, 3))), 0.7)
    again = voxel_downsample(pc, 0.7)
    assert np.allclose(again.positions, pc.positions, atol=1e-12)


def test_voxel_rejects_bad_edge():
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)


def test_radius_count_basics():
    empty = PointCloud(np.zeros((0, 3)))
    assert radius_count(np.zeros(3), empty, 1.0) == 0
    pc = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    assert radius_count(np.array([1.0, 2.0, 3.0]), pc, 1e-9) == 1


def test_radius_count_inclusive_boundary():
    pc = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    assert radius_count(np.zeros(3), pc, 1.0) == 1


def test_radius_count_rigid_invariance(rng):
    pc = PointCloud(rng.standard_normal((200, 3)))
    for _ in range(50):
        g = random_pose(rng)
        x = rng.standard_normal(3)
        r = rng.uniform(0.2, 1.0)
        assert radius_count(apply(g, x), transform(pc, g), r) == radius_count(x, pc, r)
