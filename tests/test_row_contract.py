"""The row contract (README, "The row contract"): properties (a)-(d) over one table of the stack
entry points, which a new entry point joins with one row.  The random draws (forward_diffuse_batch,
brownian_sample_batch, igso3_sample_rotvecs, random_quats) stay out: they take whole arrays from one
stream, so a row depends on its batch."""

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from se3diffuse import diffusion as dn, igso3 as ig, irreps as ir, lie
from se3diffuse.fields import ModelScore, build_query_set
from se3diffuse.lie import Pose, Rotation
from se3diffuse.pointcloud import PointCloud
from se3diffuse.sampler import _step_batch
from se3diffuse.scenario import make_toy_scenario

# a failing batch is reported as drawn: shrinking a 100-row batch takes minutes
HARNESS = settings(derandomize=True, deadline=None, database=None, max_examples=3, phases=[Phase.generate])


class Entry(NamedTuple):
    """``batch`` draws (ctx, rows), each row a tuple of arrays; ``call(ctx, *stacks)`` returns a row
    per input row; ``single(ctx, *row)`` lists the scalar or Pose-level values of one row."""

    name: str
    batch: st.SearchStrategy
    call: Callable
    single: Callable = lambda ctx, *row: []
    poses: bool = False  # a (q, p) pose stack: bad poses, and property (d)


def _same(a, b) -> bool:
    """Same shape and the same bits, signed zeros included."""
    a, b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def vectors(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


# near 0 (below lie.SMALL_ANGLE too), within 1e-6 of pi, and anywhere
ANGLES = st.floats(0.0, 1e-2) | st.floats(0.0, 1e-6).map(lambda gap: math.pi - gap) | st.floats(0.0, math.pi)
UNIT = st.builds(lambda a, b: np.array([math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), math.cos(a)]),
                 st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
QUATS = st.builds(lambda angle, axis: lie.exp_so3(angle * axis).q, ANGLES, UNIT)
VECTORS = vectors(3, st.floats(-5.0, 5.0))
TIMES = st.floats(0.004, 0.99) | st.floats(1.0, 4.0)  # eps = t/2 on both sides of EPS_SERIES = 0.5
# and an eps whose images k != 0 are below e^-700 (f(0) ~ eps^-3/2 overflows below about 1e-206)
EPS = st.floats(1e-4, 0.49) | st.floats(0.5, 5.0) | st.just(1e-100)


def batch(ctx, row):
    """(ctx, rows): 1, 2, 3 or 7 rows, or 7 rows repeated to 100, where a BLAS call could change kernels."""
    few = st.sampled_from([1, 2, 3, 7]).flatmap(lambda n: st.lists(row, min_size=n, max_size=n))
    return st.tuples(ctx, few | st.lists(row, min_size=7, max_size=7).map(lambda rows: (rows * 15)[:100]))


def poses_about(bases):
    """(q, p) rows of poses about one of ``bases``, rotated from it by an angle of ANGLES."""
    def pose(k, angle, axis, offset):
        g = lie.compose(bases[k], Pose(offset, lie.exp_so3(angle * axis)))
        return g.r.q, g.p

    return st.builds(pose, st.integers(0, len(bases) - 1), ANGLES, UNIT, vectors(3, st.floats(-0.3, 0.3)))


def as_pose(q, p):
    return Pose(p, Rotation.from_unit(q))


TOY = make_toy_scenario(seed=7)
CFG = dn.DiffusionConfig(t=1.0, r=TOY.config.r, L=1.0)  # a score's components take only r and L from it
ORIGIN, IDENTITY, G0 = PointCloud(np.zeros((1, 3))), [Pose.identity()], TOY.demo_poses[0]
# the toy demos; three whose contact filtering keeps 15, 13 and 4 grasp points; one
DEMOS = {"toy": list(TOY.demo_poses), "single": [TOY.demo_poses[1]],
         "uneven": [lie.compose(G0, Pose(np.array([dx, 0.0, 0.0]), Rotation.identity())) for dx in (0.0, 0.06, 0.1)]}


def mixture(poses, grasp=TOY.grasp):
    return dn.MixtureScore(dn.DemoSet(tuple((g, TOY.scene, grasp) for g in poses)), CFG)


def score_entry(name, score, bases, *more):
    """``score.score_batch``, whose Pose-level calls are ``score(g, t)`` and ``more``."""
    return Entry(name, batch(TIMES, poses_about(bases)), lambda t, q, p: score.score_batch(q, p, t),
                 lambda t, q, p: [f(as_pose(q, p), t).as_array() for f in (score, *more)], poses=True)


def density_entry(name, demo_poses, grasp=TOY.grasp, *pose_level):
    """``kernel_log_density`` over ``demo_poses``, whose Pose-level calls are ``pose_level``."""
    return Entry(name, batch(TIMES, poses_about(demo_poses)), lambda t, q, p: dn.kernel_log_density(
        q, p, demo_poses, TOY.scene, grasp, dn.DiffusionConfig(t, CFG.r, 1.0)),
                 lambda t, q, p: [f(as_pose(q, p), t) for f in pose_level], poses=True)


POSE_ENTRIES = [
    *[score_entry(f"MixtureScore[{w}]", mixture(DEMOS[w]), DEMOS[w]) for w in ("toy", "uneven", "single")],
    score_entry("BrownianScoreFn", dn.BrownianScoreFn(), IDENTITY, dn.brownian_score),
    score_entry("ModelScore", ModelScore(TOY.scene, TOY.grasp, 1.0, build_query_set(TOY.grasp, TOY.model), TOY.model),
                DEMOS["toy"]),
    # toy demo 0 with the one grasp point p_de: target_score's batch
    Entry("MixtureScore[one-component]", batch(st.tuples(TIMES, VECTORS), poses_about([G0])),
          lambda c, q, p: mixture([G0], PointCloud(c[1][None])).score_batch(q, p, c[0]),
          lambda c, q, p: [dn.target_score(as_pose(q, p), G0, c[1], c[0]).as_array()], poses=True),
    *[density_entry(f"kernel_log_density[{w}]", DEMOS[w]) for w in ("toy", "single")],
    # an identity demo with one grasp point at the origin: the plain kernel B_t
    density_entry("kernel_log_density[brownian]", IDENTITY, ORIGIN, dn.brownian_log_density),
]


def step_entry(integrator):
    """Alpha and temperature; rotation, translation, score and noise rows.  (``langevin_step`` is no
    Pose-level form: it renormalizes the stepped quaternion in ``Rotation``.)"""
    return Entry(f"_step_batch[{integrator}]", batch(st.tuples(st.floats(1e-4, 0.1), st.floats(0.0, 2.0)), st.tuples(
        QUATS, VECTORS, vectors(6, st.floats(-50.0, 50.0)), vectors(6, st.floats(-4.0, 4.0)))),
                 lambda ctx, q, p, s, noise: np.concatenate(_step_batch(q, p, s, *ctx, noise, integrator), axis=1))


def lie_entry(name, fn, *columns):
    """A ``lie`` stack kernel; its scalar call is the kernel on one row's (4,)/(3,) arrays."""
    return Entry(name, batch(st.none(), st.tuples(*columns)), lambda _, *s: fn(*s), lambda _, *row: [fn(*row)])


LAYOUTS = (ir.IrrepsLayout(((0, 2), (1, 2), (2, 1))), ir.IrrepsLayout(((1, 1), (2, 1), (3, 1))))
KERNEL_ENTRIES = [
    # log f, f'/f and f; their scalar calls
    Entry("igso3_log_density_and_ratio", batch(st.builds(ig.IgParams, EPS), st.tuples(ANGLES.map(np.float64))),
          lambda ps, th: np.stack([*ig.igso3_log_density_and_ratio(th, ps), ig.igso3_density(th, ps)], axis=-1),
          lambda ps, th: [[ig.igso3_log_density(float(th), ps), float(ig.score_ratio(float(th), ps)),
                           ig.igso3_density(float(th), ps)]]),
    # the oracle's entry, on angles already in [0, pi]; its one-row call is the public entry's
    Entry("_log_density_and_ratio", batch(EPS, st.tuples(ANGLES.map(np.float64))),
          lambda eps, th: np.stack(ig._log_density_and_ratio(th, eps), axis=-1),
          lambda eps, th: [np.stack(ig.igso3_log_density_and_ratio(th, ig.IgParams(eps)), axis=-1)]),
    Entry("igso3_score_batch", batch(st.builds(ig.IgParams, EPS), st.tuples(QUATS)),
          lambda ps, q: ig.igso3_score_batch(lie.quat_log(q), np.linalg.norm(lie.quat_log(q), axis=-1), ps),
          lambda ps, q: [ig.igso3_score(Rotation.from_unit(q), ps)]),
    # any degrees, repeated too; unit directions, and axes with signed zeros
    Entry("sh_stack", batch(st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple), st.tuples(
        UNIT | st.sampled_from([np.array(u) for u in ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [0.6, -0.0, -0.8])]))),
          lambda degrees, u: ir.sh_stack(degrees, np.ascontiguousarray(u.T)).T,
          lambda degrees, u: [np.concatenate([ir.spherical_harmonics(l, u) for l in degrees])]),
    # an (N, 2, 4) stack: each row a pair of rotations
    Entry("wigner_d", batch(st.integers(0, 6), st.tuples(st.tuples(QUATS, QUATS).map(np.stack))), ir.wigner_d,
          lambda l, q: [np.stack([ir.wigner_d(l, Rotation.from_unit(x)) for x in q])]),
    # path weights with zeros among them
    Entry("cg_contract_batch", batch(vectors(len(ir.cg_paths(*LAYOUTS)), st.just(0.0) | st.floats(-2.0, 2.0)),
                                     st.tuples(*(vectors(lay.dim, st.floats(-2.0, 2.0)) for lay in LAYOUTS))),
          lambda w, a, b: ir.cg_contract_batch(LAYOUTS[0], a, LAYOUTS[1], b, w),
          lambda w, a, b: [ir.cg_contract_to1(ir.IrrepsVector(LAYOUTS[0], a), ir.IrrepsVector(LAYOUTS[1], b), w)]),
    step_entry("exact"),
    step_entry("quat-trans"),
    lie_entry("quat_mul", lie.quat_mul, QUATS, QUATS),
    lie_entry("quat_rotate", lie.quat_rotate, QUATS, VECTORS),
    lie_entry("quat_exp", lie.quat_exp, st.builds(lambda angle, axis: angle * axis, ANGLES, UNIT)),
    lie_entry("quat_log", lie.quat_log, QUATS),
    # raw quaternions: norms from 0.5 to 2, either sign, and w = 0
    lie_entry("quat_unit", lie.quat_unit, st.builds(lambda q, s: s * q, QUATS, st.floats(0.5, 2) | st.floats(-2, -0.5))
              | st.builds(lambda u: np.array([0.0, *u]), UNIT)),
    lie_entry("quat_to_matrix", lie.quat_to_matrix, QUATS),
    # (Pose-level compose and inverse: test_lie.py::test_se3_stack_rows_are_compose_inverse_and_exp_se3_bit_for_bit)
    lie_entry("se3_compose", lambda *a: np.concatenate(lie.se3_compose(*a), axis=-1), QUATS, VECTORS, QUATS, VECTORS),
    lie_entry("se3_inverse", lambda *a: np.concatenate(lie.se3_inverse(*a), axis=-1), QUATS, VECTORS),
]
ENTRIES = POSE_ENTRIES + KERNEL_ENTRIES


def over(entries):
    """A property test over the ``entries``, with a ``data`` draw and the harness settings."""
    return lambda test: pytest.mark.parametrize("entry", entries, ids=[e.name for e in entries])(
        HARNESS(given(data=st.data())(test)))


def _draw(entry, data):
    ctx, rows = data.draw(entry.batch)
    return ctx, rows, tuple(np.stack(column) for column in zip(*rows))


@over(ENTRIES)
def test_rows_are_their_one_row_calls(entry, data):
    """(a): every row finite, and bitwise its one-row and its scalar or Pose-level calls (eight rows of 100)."""
    ctx, rows, stacks = _draw(entry, data)
    out = entry.call(ctx, *stacks)
    assert np.shape(out)[0] == len(rows) and np.all(np.isfinite(out))
    for i in np.unique(np.linspace(0, len(rows) - 1, 8).astype(int)):
        assert _same(entry.call(ctx, *(s[i:i + 1] for s in stacks))[0], out[i]), i
        for value in entry.single(ctx, *rows[i]):
            assert _same(value, out[i]), i


@over(ENTRIES)
def test_permuting_rows_permutes_the_output(entry, data):
    ctx, rows, stacks = _draw(entry, data)
    order = np.array(data.draw(st.permutations(range(len(rows)))))
    assert _same(entry.call(ctx, *(s[order] for s in stacks)), entry.call(ctx, *stacks)[order])


@over(ENTRIES)
def test_a_bad_row_leaves_the_others_alone(entry, data):
    """(c), with no floating-point warning: NaN, +-inf or a quaternion off unit norm by more than 1e-3
    in a pose stack, whose row then reads NaN; a NaN row in a kernel's stack (+-inf is outside the
    kernels' domain: igso3 refuses it, and sh_stack and wigner_d warn on it)."""
    ctx, rows, stacks = _draw(entry, data)
    bad = [s.copy() for s in stacks]
    j, k = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(bad) - 1))
    if not entry.poses:
        bad[k][j] = math.nan
    elif data.draw(st.booleans()):
        bad[0][j] *= data.draw(st.sampled_from([0.5, 1.002, 2.0]))
    else:
        bad[k][j, data.draw(st.integers(0, bad[k].shape[1] - 1))] = data.draw(st.sampled_from([math.nan, math.inf,
                                                                                             -math.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entry.call(ctx, *bad)
    others = np.arange(len(rows)) != j
    assert _same(got[others], entry.call(ctx, *stacks)[others])
    if entry.poses:
        assert np.all(np.isnan(got[j]))


@over(POSE_ENTRIES)
def test_single_pose_and_mismatched_stacks(entry, data):
    """(d): a single (4,)/(3,) pose is a batch of one; stacks of different lengths raise ValueError."""
    ctx, rows, (q, p) = _draw(entry, data)
    assert _same(entry.call(ctx, q[0], p[0]), entry.call(ctx, q[:1], p[:1]))
    k = data.draw(st.integers(0, 2 * len(rows)).filter(lambda k: k != len(rows)))
    with pytest.raises(ValueError, match="one translation per quaternion"):
        entry.call(ctx, q, np.concatenate([p, p])[:k])


@pytest.mark.parametrize("eps", [1e-300, 1e-4, 0.025, np.nextafter(ig.EPS_SERIES, 0.0), ig.EPS_SERIES, 2.0])
def test_private_igso3_entry_is_the_public_one_on_angles_in_range(eps):
    """``igso3._log_density_and_ratio`` skips the public entry's range checks and clip, and keeps its bits
    on [0, pi], at eps on both sides of EPS_SERIES."""
    theta = np.concatenate([[0.0, 1e-300, 1e-9, 1e-3, math.pi - 1e-6, math.pi], np.linspace(0.0, math.pi, 301)])
    for got, ref in zip(ig._log_density_and_ratio(theta, eps), ig.igso3_log_density_and_ratio(theta, ig.IgParams(eps))):
        assert _same(got, ref)


def test_the_harness_fails_a_score_whose_rows_depend_on_the_batch():
    """The negative control: a score that adds the batch mean of the translations fails (a)."""
    def score(t, q, p):
        out = dn.BrownianScoreFn().score_batch(q, p, t)
        out[:, :3] += np.mean(p, axis=0)
        return out

    with pytest.raises(AssertionError):
        test_rows_are_their_one_row_calls(entry=Entry("batch-mean", batch(TIMES, poses_about(IDENTITY)), score))
