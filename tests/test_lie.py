import math
import warnings

import numpy as np
import pytest

from se3diffuse import lie
from se3diffuse.lie import (
    Pose,
    Rotation,
    Twist,
    adjoint,
    adjoint_inv_transpose,
    apply,
    compose,
    cross,
    exp_se3,
    exp_so3,
    inverse,
    log_se3,
    log_so3,
    quat_angle,
    quat_exp,
    quat_log,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
    quat_unit,
    random_quats,
    random_rotation,
    se3_compose,
    se3_inverse,
    skew,
    translation_pose,
)


def random_pose(rng, scale=1.0):
    return Pose(scale * rng.standard_normal(3), random_rotation(rng))


def test_exp_so3_zero_is_identity():
    r = exp_so3(np.zeros(3))
    assert np.allclose(r.q, [1.0, 0.0, 0.0, 0.0])


def test_exp_so3_quarter_turn_about_z():
    r = exp_so3(np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(r.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-14)


def test_exp_so3_rejects_non_finite():
    with pytest.raises(ValueError):
        exp_so3(np.array([np.nan, 0.0, 0.0]))


def test_log_so3_identity_and_half_turn():
    assert np.allclose(log_so3(Rotation.identity()), 0.0)
    w = log_so3(exp_so3(np.array([math.pi, 0.0, 0.0])))
    assert np.allclose(w, [math.pi, 0.0, 0.0], atol=1e-12)


def test_so3_round_trips(rng):
    for _ in range(200):
        w = rng.standard_normal(3)
        w *= rng.uniform(0.0, math.pi - 1e-3) / np.linalg.norm(w)
        assert np.allclose(log_so3(exp_so3(w)), w, atol=1e-10)


def test_exp_se3_pure_translation():
    g = exp_se3(Twist(np.array([1.0, 2.0, 3.0]), np.zeros(3)))
    assert np.allclose(g.p, [1.0, 2.0, 3.0])
    assert g.r.allclose(Rotation.identity())


def test_exp_se3_quarter_turn_closed_form():
    g = exp_se3(Twist(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, math.pi / 2])))
    c = 2.0 / math.pi  # sin(t)/t and (1-cos(t))/t at t = pi/2
    assert np.allclose(g.p, [c, c, 0.0], atol=1e-12)
    assert abs(g.r.angle - math.pi / 2) < 1e-12


def test_se3_round_trips(rng):
    for _ in range(200):
        w = rng.standard_normal(3)
        w *= rng.uniform(1e-3, math.pi - 1e-3) / np.linalg.norm(w)
        xi = Twist(rng.standard_normal(3), w)
        back = log_se3(exp_se3(xi))
        assert np.allclose(back.as_array(), xi.as_array(), atol=1e-10)


def test_log_se3_near_pi_is_branch_error():
    g = Pose(np.zeros(3), exp_so3(np.array([math.pi - 1e-9, 0.0, 0.0])))
    with pytest.raises(ValueError, match="pi"):
        log_se3(g)


def test_log_se3_pure_translation():
    xi = log_se3(translation_pose(np.array([0.3, -0.1, 2.0])))
    assert np.allclose(xi.nu, [0.3, -0.1, 2.0])
    assert np.allclose(xi.omega, 0.0)


def test_compose_identity_and_inverse(rng):
    for _ in range(50):
        g = random_pose(rng)
        assert compose(g, Pose.identity()).allclose(g)
        gi = compose(g, inverse(g))
        assert np.max(np.abs(gi.p)) < 1e-12 and gi.r.angle < 1e-12


def test_apply_inverse_action(rng):
    for _ in range(50):
        g = random_pose(rng)
        x = rng.standard_normal(3)
        assert np.allclose(apply(inverse(g), apply(g, x)), x, atol=1e-12)


def test_compose_associativity(rng):
    for _ in range(100):
        a, b, c = (random_pose(rng) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert np.allclose(lhs.p, rhs.p, atol=1e-12)
        assert lhs.r.allclose(rhs.r, atol=1e-12)


def test_adjoint_identity_and_pure_rotation(rng):
    assert np.allclose(adjoint(Pose.identity()), np.eye(6))
    r = random_rotation(rng)
    ad = adjoint(Pose(np.zeros(3), r))
    rm = r.matrix()
    assert np.allclose(ad[:3, :3], rm) and np.allclose(ad[3:, 3:], rm)
    assert np.allclose(ad[:3, 3:], 0.0) and np.allclose(ad[3:, :3], 0.0)


def test_adjoint_block_layout(rng):
    g = random_pose(rng)
    ad = adjoint(g)
    rm = g.r.matrix()
    assert np.allclose(ad[:3, 3:], skew(g.p) @ rm)
    ait = adjoint_inv_transpose(g)
    assert np.allclose(ait, np.linalg.inv(adjoint(g)).T, atol=1e-12)


def test_adjoint_homomorphism(rng):
    for _ in range(100):
        a, b = random_pose(rng), random_pose(rng)
        err = np.max(np.abs(adjoint(compose(a, b)) - adjoint(a) @ adjoint(b)))
        assert err < 1e-10


def test_adjoint_conjugation_identity(rng):
    for _ in range(100):
        g = random_pose(rng)
        h = exp_se3(Twist(0.01 * rng.standard_normal(3), 0.01 * rng.standard_normal(3)))
        lhs = adjoint(g) @ log_se3(h).as_array()
        rhs = log_se3(compose(compose(g, h), inverse(g))).as_array()
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_rotation_canonical_hemisphere():
    r = Rotation(np.array([-1.0, 0.0, 0.0, 0.0]))
    assert r.q[0] == 1.0
    r2 = Rotation(np.array([-0.5, 0.5, 0.5, 0.5]))
    assert r2.q[0] > 0.0


def test_rotation_rejects_bad_norm():
    with pytest.raises(ValueError):
        Rotation(np.array([0.5, 0.0, 0.0, 0.0]))


def test_random_rotation_deterministic():
    a = random_rotation(np.random.default_rng(5))
    b = random_rotation(np.random.default_rng(5))
    assert np.array_equal(a.q, b.q)


def test_random_rotation_haar_mean_and_angle_marginal():
    rng = np.random.default_rng(0)
    n = 100_000
    q = random_quats(rng, n)
    assert np.max(np.abs(quat_to_matrix(q).sum(axis=0) / n)) < 0.02
    angles = np.sort(quat_angle(q))
    cdf = (angles - np.sin(angles)) / math.pi  # integral of (1 - cos)/pi
    ks = np.max(np.maximum(np.arange(1, n + 1) / n - cdf, cdf - np.arange(n) / n))
    assert ks < 0.01


def test_random_rotation_draws_are_rows_of_one_stack_draw():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scalar = np.stack([random_rotation(rng).q for _ in range(50)])
        assert np.array_equal(scalar, random_quats(np.random.default_rng(seed), 50))
        assert np.array_equal(scalar[:7], random_quats(np.random.default_rng(seed), 7))


def test_twist_ordering_linear_first():
    xi = Twist(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert np.array_equal(xi.as_array(), [1, 2, 3, 4, 5, 6])
    assert np.array_equal(Twist.from_array(xi.as_array()).nu, xi.nu)


def test_rotation_from_matrix_near_pi(rng):
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = exp_so3((math.pi - 1e-8) * axis)
        r2 = Rotation.from_matrix(r.matrix())
        assert r2.allclose(r, atol=1e-6)


def test_cross_matches_numpy_bitwise_on_broadcast_stacks(rng):
    shapes = [((3,), (3,)), ((50, 3), (50, 3)), ((50, 1, 3), (1, 7, 3)),
              ((3,), (20, 3)), ((4, 5, 3), (5, 3))]
    for sa, sb in shapes:
        a = rng.standard_normal(sa) * 10.0 ** rng.integers(-8, 8, size=sa)
        b = rng.standard_normal(sb) * 10.0 ** rng.integers(-8, 8, size=sb)
        ref = np.cross(a, b)
        out = cross(a, b)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)


def test_cross_kernel_is_np_cross_bitwise_on_the_operands_its_callers_pass(rng):
    """``lie._cross`` over the first axis, with either operand also passed as its (5, ...)
    ``_CYCLIC`` take, against ``np.cross(..., axis=0)``: swapaxes views (the vee of the oracle's kernel
    score), (3, D, 1) x (3, 1, N) broadcasts, one vector, (3,) or as a (3, 1) column,
    against another or a (3, N) stack, and entries that are signed zeros, infinities or NaN."""
    n, d = 7, 3
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
    moments = rng.standard_normal((n, 15)).T  # a transposed view, as the moments are
    pairs = [
        (moments[6:].reshape(3, 3, n).swapaxes(0, 1), rng.standard_normal((3, 3, n)).swapaxes(0, 1)),
        (rng.standard_normal((3, d, 1)), rng.standard_normal((3, 1, n))),
        (rng.standard_normal(3), rng.standard_normal(3)),
        (rng.standard_normal((3, 1)), rng.standard_normal((3, n))),
        (rng.standard_normal((3, n)), rng.standard_normal((3, 1))),
        (rng.standard_normal((3, n)).T.copy().T, rng.standard_normal((n, 3)).T),
        (special[rng.integers(0, special.size, (3, 60))], special[rng.integers(0, special.size, (3, 60))]),
        (special[rng.integers(0, special.size, (3, 4, 1))], special[rng.integers(0, special.size, (3, 1, 9))]),
    ]
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
        for a, b in pairs:
            ref = np.cross(a, b, axis=0)
            a5, b5 = a.take(lie._CYCLIC, axis=0), b.take(lie._CYCLIC, axis=0)
            for got in (lie._cross(a, b), lie._cross(a5, b), lie._cross(a, b5), lie._cross(a5, b5)):
                assert got.shape == ref.shape
                assert np.array_equal(_bits(got), _bits(ref))  # signed zeros and NaN bits included


def test_quat_unit_rows_are_the_rotation_constructor_bitwise(rng):
    q = rng.standard_normal((3000, 4))
    q *= (1.0 + 1e-4 * rng.standard_normal((3000, 1))) / np.linalg.norm(q, axis=1, keepdims=True)
    # the sign rule's edges: w = 0 with leading zero components, and signed zeros
    q[:6] = [[0.0, 0.0, -0.6, 0.8], [-0.0, -0.0, 0.6, 0.8], [0.0, 0.0, 0.0, -1.0],
             [0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0]]
    rows = quat_unit(q)
    for k in range(len(q)):
        # the scalar rule: divide by float(norm), then flip so the first nonzero entry is positive
        ref = q[k] / float(np.linalg.norm(q[k]))
        if next(c for c in ref if c != 0.0) < 0.0:
            ref = -ref
        for got in (rows[k], Rotation(q[k]).q):
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(Rotation.from_unit(rows[7]).q, rows[7])
    assert np.array_equal(_bits(quat_unit(np.asfortranarray(q))), _bits(rows))  # any memory layout
    assert quat_unit(q[:7].reshape(7, 1, 4)).shape == (7, 1, 4)


def test_from_unit_checks_rows_like_the_constructor():
    for bad in ([np.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.01, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            Rotation.from_unit(np.array(bad))
        with pytest.raises(ValueError):
            Rotation(np.array(bad))
    row = np.array([0.5, 0.5, -0.5, 0.5])
    r = Rotation.from_unit(row)
    row[0] = 2.0
    assert r.q[0] == 0.5 and not r.q.flags.writeable


def test_quat_angle_keeps_angles_whose_squares_underflow(rng):
    # the squares of 2e-162 and 1e-162 are 0 in double precision
    assert abs(quat_angle(quat_exp([[2e-162, 1e-162, 0.0]]))[0] / (math.sqrt(5.0) * 1e-162) - 1.0) < 1e-15
    assert quat_angle(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    # every other row keeps the plain norm, bit for bit
    q = rng.standard_normal((500, 4))
    q[:, 1:] *= 10.0 ** rng.uniform(-140.0, 0.0, (500, 1))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    plain = 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=-1), np.abs(q[:, 0]))
    assert np.array_equal(quat_angle(q), plain)


def _stacks(rng, batch):
    """Non-unit quaternions with both signs of w, rotation vectors on both sides of
    ``SMALL_ANGLE``, and points; about a quarter of the entries are signed zeros."""
    q = rng.standard_normal(batch + (4,)) * 10.0 ** rng.uniform(-1.0, 1.0, batch + (1,))
    b = rng.standard_normal(batch + (4,))
    v = rng.standard_normal(batch + (3,)) * 10.0 ** rng.uniform(-8.0, 1.0, batch + (1,))
    x = rng.standard_normal(batch + (3,))
    for a in (q, b, v, x):
        zero = rng.random(a.shape) < 0.25
        a[zero] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[zero]
    q[np.all(q == 0.0, axis=-1)] = 0.5  # a zero quaternion has no direction
    return q, b, v, x


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _first(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _last(a):
    return np.moveaxis(a, 0, -1)


def _quat(w, v):
    return np.concatenate([np.asarray(w)[..., None], _last(v)], axis=-1)


@pytest.mark.parametrize("batch", [(), (1,), (9,), (3, 7)])
def test_quaternion_helpers_are_their_kernels_bit_for_bit(rng, batch):
    """The trailing-axis helpers are layout adapters over the component-first kernels."""
    for _ in range(20):
        q, b, v, x = _stacks(rng, batch)
        fq, fb, fv, fx = _first(q), _first(b), _first(v), _first(x)
        theta = lie._norm(fv)
        with np.errstate(invalid="ignore", divide="ignore"):  # sin(0)/0 before the series
            exp = _quat(*lie._exp(fv, theta, lie._small_angles(theta)))
        for got, ref in [
            (cross(v, x), _last(lie._cross(fv, fx))),
            (quat_mul(q, b), _quat(*lie._mul(fq[0], fq[1:], fb[0], fb[1:]))),
            (quat_rotate(q, x), _last(lie._rotate(fq[0], fq[1:], fx))),
            (quat_exp(v), exp),
            (quat_log(q), _last(lie._log(fq[0], fq[1:]))),
            (quat_normalize(q), _last(lie._normalize(fq))),
            (quat_to_matrix(q), np.moveaxis(lie._matrix(fq[0], fq[1:]), (0, 1), (-2, -1))),
        ]:
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.array_equal(_bits(got), _bits(ref))  # signed zeros included


@pytest.mark.parametrize("batch", [(), (1,), (9,), (3, 7)])
def test_quaternion_kernels_keep_the_bits_of_the_trailing_axis_formulas(rng, batch):
    """Each kernel in the operation order of its formula over the last axis, with
    the sums and norms of ``np.sum`` and ``np.linalg.norm``."""
    for _ in range(20):
        q, b, v, x = _stacks(rng, batch)
        w, u = q[..., :1], q[..., 1:]
        t = 2.0 * np.cross(u, x)
        theta = np.linalg.norm(v, axis=-1, keepdims=True)
        c = np.where(w < 0.0, -q, q)
        s = np.linalg.norm(c[..., 1:], axis=-1, keepdims=True)
        y = np.moveaxis(q, -1, 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(theta < 1e-6, 0.5 - theta**2 / 48.0 + theta**4 / 3840.0,
                            np.sin(0.5 * theta) / np.where(theta < 1e-6, 1.0, theta))
            log = np.where(s < 1e-9, 2.0 / np.where(c[..., :1] == 0.0, 1.0, c[..., :1]),
                           2.0 * np.arctan2(s, c[..., :1]) / np.where(s < 1e-9, 1.0, s)) * c[..., 1:]
        matrix = np.moveaxis(np.array([
            [1.0 - 2.0 * (y[2] * y[2] + y[3] * y[3]), 2.0 * (y[1] * y[2] - y[0] * y[3]),
             2.0 * (y[1] * y[3] + y[0] * y[2])],
            [2.0 * (y[1] * y[2] + y[0] * y[3]), 1.0 - 2.0 * (y[1] * y[1] + y[3] * y[3]),
             2.0 * (y[2] * y[3] - y[0] * y[1])],
            [2.0 * (y[1] * y[3] - y[0] * y[2]), 2.0 * (y[2] * y[3] + y[0] * y[1]),
             1.0 - 2.0 * (y[1] * y[1] + y[2] * y[2])]]), (0, 1), (-2, -1))
        for got, ref in [
            (quat_mul(q, b), np.concatenate([w * b[..., :1] - np.sum(u * b[..., 1:], axis=-1, keepdims=True),
                                             w * b[..., 1:] + b[..., :1] * u + np.cross(u, b[..., 1:])], axis=-1)),
            (quat_rotate(q, x), x + w * t + np.cross(u, t)),
            (quat_exp(v), np.concatenate([np.cos(0.5 * theta), coef * v], axis=-1)),
            (quat_log(q), log),
            (quat_normalize(q), q / np.linalg.norm(q, axis=-1, keepdims=True)),
            (quat_to_matrix(q), matrix),
        ]:
            assert got.shape == ref.shape and np.array_equal(_bits(got), _bits(ref))


def test_se3_stack_rows_are_compose_inverse_and_exp_se3_bit_for_bit(rng):
    """exp_se3, compose and inverse are batches of one of ``_exp_se3``, ``se3_compose``
    and ``se3_inverse``: the identity, angles below ``SMALL_ANGLE`` and near pi."""
    axes = rng.standard_normal((60, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([np.zeros(4), 10.0 ** rng.uniform(-10.0, -6.1, 16),
                             math.pi - 10.0 ** rng.uniform(-12.0, -3.0, 16), rng.uniform(0.0, math.pi, 24)])
    om = angles[:, None] * axes
    nu = rng.standard_normal((60, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, (60, 1))
    om[:4] = nu[:4] = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]]
    with np.errstate(invalid="ignore", divide="ignore"):  # theta = 0 before the series
        w, v, p = lie._exp_se3(_first(nu), _first(om))
    q, p = quat_unit(_quat(w, v)), _last(p)
    poses = [exp_se3(Twist(nu[k], om[k])) for k in range(60)]
    # rotations whose w is 0, and signed zeros, for the sign rule of the renormalization
    for row in ([0.0, 0.0, -0.6, 0.8], [0.0, -1.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0]):
        poses.append(Pose(rng.standard_normal(3), Rotation.from_unit(np.array(row))))
    for k in range(60):
        assert np.array_equal(_bits(poses[k].r.q), _bits(q[k])) and np.array_equal(_bits(poses[k].p), _bits(p[k]))
    qs, ps = np.stack([g.r.q for g in poses]), np.stack([g.p for g in poses])
    other = rng.permutation(len(poses))
    cq, cp = se3_compose(qs, ps, qs[other], ps[other])
    iq, ip = se3_inverse(qs, ps)
    for k, g in enumerate(poses):
        for got, ref in ((compose(g, poses[other[k]]), (cq[k], cp[k])), (inverse(g), (iq[k], ip[k]))):
            assert np.array_equal(_bits(got.r.q), _bits(ref[0])) and np.array_equal(_bits(got.p), _bits(ref[1]))


def test_quat_exp_takes_the_series_on_small_angles_alone():
    """A huge angle beside a small one: the series used to run on every row and overflow."""
    v = np.array([[0.0, 0.0, 0.0], [1e80, 0.0, 0.0], [3e-7, -2e-7, 1e-7], [0.4, 0.0, -1.0]])
    got = quat_exp(v)  # RuntimeWarning is an error in this suite
    for k, row in enumerate(v):
        assert np.array_equal(_bits(got[k]), _bits(quat_exp(row)))  # each row keeps its own bits
    assert np.array_equal(got[0], [1.0, 0.0, 0.0, 0.0])
    theta = np.sqrt(np.add.reduce(v[2] * v[2]))
    assert np.array_equal(got[2, 1:], (0.5 - theta**2 / 48.0 + theta**4 / 3840.0) * v[2])


def test_finite_poses_reads_an_overflowing_quaternion_norm_as_bad_with_no_warning():
    """Entries of 1e200 square to inf in the norm, which no errstate guards: einsum raises no warning."""
    q = np.array([[1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    p = np.array([[0.0, 0.0, 0.0], [1e308, -1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qs, ps, bad = lie.finite_poses(q, p)
    assert bad.tolist() == [True, False]
    assert np.array_equal(qs, [[1.0, 0.0, 0.0, 0.0], q[1]]) and np.array_equal(ps, p)
