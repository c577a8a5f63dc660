import math
import warnings
import sys

import numpy as np
import pytest

from se3diffuse.diffusion import BrownianScoreFn, DemoSet, DiffusionConfig, MixtureScore
from se3diffuse.lie import (
    Pose,
    Rotation,
    Twist,
    compose,
    cross,
    quat_exp,
    quat_mul,
    quat_normalize,
    quat_rotate,
    random_rotation,
)
from se3diffuse.pointcloud import bounding_box, transform
from se3diffuse.sampler import (
    MAX_SEGMENT_STEPS,
    NOISE_BLOCK,
    AnnealSchedule,
    _step_batch,
    build_schedule,
    langevin_step,
    run_denoising,
)
from se3diffuse.scenario import sample_initial_poses


def test_schedule_defaults_and_power_laws():
    sched = build_schedule([(1.0, 0.1, 50), (0.1, 0.01, 50)], eps=0.05)
    assert sched.k1 == 0.5 and sched.k2 == 1.0
    assert sched.steps == 100
    assert np.allclose(sched.alpha, 0.05 * sched.t**0.5)
    assert np.allclose(sched.temperature, sched.t)
    # monotone within each segment
    assert np.all(np.diff(sched.t[:50]) <= 0) and np.all(np.diff(sched.t[50:]) <= 0)


def test_schedule_constant_segment():
    sched = build_schedule([(1.0, 1.0, 10)], eps=0.3, k1=0.5, k2=1.0)
    assert np.allclose(sched.t, 1.0)
    assert np.allclose(sched.alpha, 0.3)
    assert np.allclose(sched.temperature, 1.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule([(1.0, 0.0, 10)], eps=0.1)
    with pytest.raises(ValueError):
        build_schedule([(1.0, 0.5, 0)], eps=0.1)
    with pytest.raises(ValueError):
        build_schedule([(1.0, 0.5, 10)], eps=-1.0)
    # non-finite times, step scales and exponents used to give NaN or inf schedules
    for seg in ((1.0, math.nan, 3), (math.inf, 0.5, 3), (1.0, math.inf, 3), (math.nan, 0.1, 3), (0.1, 1e-310, 3)):
        with pytest.raises(ValueError, match="positive and finite"):
            build_schedule([seg], eps=0.05)
    assert build_schedule([(1.0, sys.float_info.min, 2)], eps=0.05).t[-1] == sys.float_info.min
    with pytest.raises(ValueError, match=f"1 to {MAX_SEGMENT_STEPS} steps"):
        build_schedule([(1.0, 0.5, MAX_SEGMENT_STEPS + 1)], eps=0.05)
    assert build_schedule([(1.0, 0.5, MAX_SEGMENT_STEPS)], eps=0.05).steps == MAX_SEGMENT_STEPS
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            build_schedule([(1.0, 0.5, 10)], eps=eps)
    for k1, k2 in ((math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            build_schedule([(1.0, 0.5, 10)], eps=0.05, k1=k1, k2=k2)
    with pytest.raises(ValueError, match="must be finite"):  # finite inputs, overflowing t^k2
        build_schedule([(1e10, 1.0, 3)], eps=0.05, k2=40.0)


def test_langevin_step_zero_score_zero_temperature(rng):
    g = Pose(rng.standard_normal(3), random_rotation(rng))
    out = langevin_step(g, Twist.zero(), alpha=0.1, temperature=0.0,
                        rng=np.random.default_rng(0))
    assert np.allclose(out.p, g.p) and out.r.allclose(g.r)


def test_langevin_step_pure_linear_drift(rng):
    g = Pose(rng.standard_normal(3), random_rotation(rng))
    v = np.array([0.4, -0.2, 0.1])
    alpha = 0.05
    out = langevin_step(g, Twist(v, np.zeros(3)), alpha, 0.0, np.random.default_rng(0))
    assert np.allclose(out.p, g.p + g.r.apply(0.5 * alpha * v), atol=1e-14)
    assert out.r.allclose(g.r)


def test_integrators_agree_to_first_order(rng):
    alpha = 1e-3
    for _ in range(30):
        g = Pose(rng.standard_normal(3), random_rotation(rng))
        s = Twist(rng.standard_normal(3), rng.standard_normal(3))
        a = langevin_step(g, s, alpha, 0.0, np.random.default_rng(1), integrator="exact")
        b = langevin_step(g, s, alpha, 0.0, np.random.default_rng(1), integrator="quat-trans")
        assert np.linalg.norm(a.p - b.p) < 1e-4
        assert a.r.compose(b.r.inverse()).angle < 1e-4


def test_langevin_step_validation(rng):
    g = Pose.identity()
    with pytest.raises(ValueError):
        langevin_step(g, Twist.zero(), alpha=0.0, temperature=1.0, rng=rng)
    with pytest.raises(ValueError):
        langevin_step(g, Twist.zero(), alpha=0.1, temperature=-1.0, rng=rng)
    with pytest.raises(ValueError):
        langevin_step(g, Twist.zero(), alpha=0.1, temperature=1.0, rng=rng,
                      integrator="verlet")


def _composed_step(q, p, scores, alpha, temperature, noise, integrator):
    """The Langevin update composed through the ``lie`` stack helpers."""
    xi = 0.5 * alpha * scores + math.sqrt(alpha * max(temperature, 0.0)) * noise
    nu, omega = xi[:, :3], xi[:, 3:]
    if integrator == "exact":
        theta = np.linalg.norm(omega, axis=1)
        t2 = theta * theta
        small = theta < 1e-6
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
            b = np.where(small, 1.0 / 6.0 - t2 / 120.0,
                         (theta - np.sin(theta)) / np.where(small, 1.0, t2 * theta))
        wx = cross(omega, nu)
        body = nu + a[:, None] * wx + b[:, None] * cross(omega, wx)
        return quat_normalize(quat_mul(q, quat_exp(omega))), p + quat_rotate(q, body)
    dq = np.concatenate([np.zeros((omega.shape[0], 1)), omega], axis=1)
    return quat_normalize(q + 0.5 * quat_mul(q, dq)), p + quat_rotate(q, nu)


@pytest.mark.parametrize("integrator", ["exact", "quat-trans"])
@pytest.mark.parametrize("n", [1, 2, 100])
def test_step_batch_is_the_composed_update_bit_for_bit(rng, n, integrator):
    for alpha, temperature in ((0.01, 0.3), (0.5, 0.0), (1e-4, 2.0)):
        q = rng.standard_normal((n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        p = rng.standard_normal((n, 3))
        scores = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-3.0, 2.0, (n, 1))
        noise = rng.standard_normal((n, 6))
        scores[0, 3:] = noise[0, 3:] = 0.0  # omega = 0
        q[0] = [1.0, 0.0, 0.0, 0.0]
        if n > 1:  # |omega| < 1e-6
            scores[-1, 3:] = 0.0
            noise[-1, 3:] = 1e-9 * rng.standard_normal(3)
        got = _step_batch(q, p, scores, alpha, temperature, noise, integrator)
        ref = _composed_step(q, p, scores, alpha, temperature, noise, integrator)
        for a, b in zip(got, ref):  # signed zeros included
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("integrator", ["exact", "quat-trans"])
def test_step_batch_without_small_angles_is_the_composed_update_bit_for_bit(rng, integrator):
    # no |omega| below 1e-6, so the step skips the small-angle series
    q = quat_normalize(rng.standard_normal((50, 4)))
    p = rng.standard_normal((50, 3))
    scores = rng.standard_normal((50, 6)) * 10.0 ** rng.uniform(-2.0, 2.0, (50, 1))
    noise = rng.standard_normal((50, 6))
    scores[0, 3:], noise[0, 3:] = 0.0, [1e-5, 0.0, -0.0]  # |omega| just above the series
    got = _step_batch(q, p, scores, 0.1, 0.5, noise, integrator)
    ref = _composed_step(q, p, scores, 0.1, 0.5, noise, integrator)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _identity_stacks(chains):
    return np.tile([1.0, 0.0, 0.0, 0.0], (chains, 1)), np.zeros((chains, 3))


class ZeroScore:
    def score_batch(self, q, p, t):
        return np.zeros((q.shape[0], 6))


def test_run_denoising_constant_with_zero_score():
    sched = build_schedule([(1.0, 0.5, 20)], eps=0.1, k2=1.0)
    zero_temp = AnnealSchedule(sched.segments, sched.eps, sched.k1, sched.k2,
                               sched.t, sched.alpha, np.zeros_like(sched.temperature))
    q0, _ = _identity_stacks(3)
    p0 = np.tile([1.0, 2.0, 3.0], (3, 1))
    res = run_denoising(ZeroScore(), q0, p0, zero_temp, np.random.default_rng(0))
    assert np.array_equal(res.p, p0) and np.array_equal(res.q, q0)
    assert res.trajectory.shape == (3, 21, 7)
    assert np.all(res.trajectory[:, :, 4:] == p0[:, None])
    assert np.array_equal(res.failed_step, [-1, -1, -1])
    assert list(res.error) == ["", "", ""]


def test_run_denoising_validates_its_stacks():
    sched = build_schedule([(1.0, 0.5, 2)], eps=0.1)
    q0, p0 = _identity_stacks(2)
    with pytest.raises(ValueError, match="initial stacks"):
        run_denoising(ZeroScore(), q0[:0], p0[:0], sched, np.random.default_rng(0))
    with pytest.raises(ValueError, match="initial stacks"):
        run_denoising(ZeroScore(), q0, p0[:1], sched, np.random.default_rng(0))
    with pytest.raises(ValueError, match="record"):
        run_denoising(ZeroScore(), q0, p0, sched, np.random.default_rng(0), record="some")


def test_run_denoising_draws_each_chains_spawned_stream_in_blocks():
    chains, steps = 3, 2 * NOISE_BLOCK + 6  # crosses two refills
    sched = build_schedule([(1.0, 0.5, steps)], eps=0.05)
    res = run_denoising(BrownianScoreFn(), *_identity_stacks(chains), sched,
                        np.random.default_rng(6))
    children = np.random.default_rng(6).spawn(chains)
    draws = [np.concatenate([c.standard_normal((NOISE_BLOCK, 6)) for _ in range(3)])
             for c in children]
    q, p = _identity_stacks(chains)
    for n in range(steps):
        scores = BrownianScoreFn().score_batch(q, p, float(sched.t[n]))
        q, p = _step_batch(q, p, scores, float(sched.alpha[n]), float(sched.temperature[n]),
                           np.stack([d[n] for d in draws]), "exact")
        assert np.array_equal(res.trajectory[:, n + 1], np.concatenate([q, p], axis=1))
    for i in range(chains):  # the final quaternion is the Rotation constructor's
        assert np.array_equal(res.q[i], Rotation(q[i]).q)


def test_run_denoising_deterministic(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)
    sched = build_schedule([(1.0, 0.1, 30)], eps=0.05)
    q0, p0 = sample_initial_poses(toy, np.random.default_rng(1), 4)
    a = run_denoising(oracle, q0, p0, sched, np.random.default_rng(9))
    b = run_denoising(oracle, q0, p0, sched, np.random.default_rng(9))
    assert np.array_equal(a.trajectory, b.trajectory)


def test_sample_initial_poses_stacks_are_the_per_chain_draws(toy):
    q, p = sample_initial_poses(toy, np.random.default_rng(3), 7)
    rng = np.random.default_rng(3)
    lo, hi = bounding_box(toy.scene)
    lo, hi = lo - 0.2, hi + 0.2
    for i in range(7):
        assert np.array_equal(p[i], lo + rng.random(3) * (hi - lo))
        assert np.array_equal(q[i], random_rotation(rng).q)


def test_run_denoising_isolates_failing_chain():
    class Flaky:
        def score_batch(self, q, p, t):
            if np.any(p[:, 0] > 0.5):  # fails for any batch holding chain 1
                raise RuntimeError("score blew up")
            return np.zeros((q.shape[0], 6))

    sched = build_schedule([(1.0, 1.0, 5)], eps=0.01, k2=1.0)
    q0, p0 = _identity_stacks(2)
    p0[1, 0] = 1.0
    res = run_denoising(Flaky(), q0, p0, sched, np.random.default_rng(0))
    assert res.failed_step.tolist() == [-1, 0]
    assert res.error[0] == "" and res.error[1] == "RuntimeError: score blew up"
    assert np.array_equal(res.p[1], [1.0, 0.0, 0.0])  # frozen at failure


def _far_chain_inits(chains, far):
    """Stacks of chains at the identity except chain ``far``, which starts at x = 10."""
    q0, p0 = _identity_stacks(chains)
    p0[far, 0] = 10.0
    return q0, p0


def test_run_denoising_freezes_chain_with_non_finite_score():
    class NanForFarChain(BrownianScoreFn):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            if t < 0.8:
                out[p[:, 0] > 5.0] = np.nan
            return out

    sched = build_schedule([(1.0, 0.5, 50)], eps=0.01)
    res = run_denoising(NanForFarChain(), *_far_chain_inits(10, 3), sched,
                        np.random.default_rng(0))
    step = int(np.argmax(sched.t < 0.8))
    assert np.flatnonzero(res.failed_step >= 0).tolist() == [3]
    assert res.error[3] == "non-finite score" and res.failed_step[3] == step
    assert np.all(res.trajectory[3, step:] == res.trajectory[3, step])
    assert np.all(np.isfinite(res.trajectory))


def test_run_denoising_freezes_chain_with_non_finite_step():
    class HugeForFarChain(BrownianScoreFn):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            out[p[:, 0] > 5.0] = 1e300  # finite, but the step overflows
            return out

    sched = build_schedule([(1.0, 0.5, 20)], eps=0.01)
    q0, p0 = _far_chain_inits(4, 1)
    res = run_denoising(HugeForFarChain(), q0, p0, sched, np.random.default_rng(0))
    assert np.flatnonzero(res.failed_step >= 0).tolist() == [1]
    assert res.error[1] == "non-finite step" and res.failed_step[1] == 0
    assert np.array_equal(res.q[1], q0[1]) and np.array_equal(res.p[1], p0[1])


def test_run_denoising_freezes_a_non_finite_score_and_a_non_finite_step_at_one_step():
    class TwoFaults(BrownianScoreFn):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            if t < 0.8:
                out[p[:, 0] > 5.0] = np.nan  # chain 1
                out[p[:, 1] > 5.0] = 1e300  # chain 3: finite, but the step overflows
            return out

    chains = 6
    sched = build_schedule([(1.0, 0.5, 30)], eps=0.01)
    q0, p0 = _identity_stacks(chains)
    p0[1, 0] = p0[3, 1] = 10.0
    res = run_denoising(TwoFaults(), q0, p0, sched, np.random.default_rng(3))
    ref = run_denoising(BrownianScoreFn(), q0, p0, sched, np.random.default_rng(3))
    step = int(np.argmax(sched.t < 0.8))
    assert np.flatnonzero(res.failed_step >= 0).tolist() == [1, 3]
    assert res.failed_step[1] == res.failed_step[3] == step
    assert res.error[1] == "non-finite score" and res.error[3] == "non-finite step"
    for k in (1, 3):
        assert np.all(res.trajectory[k, step:] == ref.trajectory[k, step])
    keep = [0, 2, 4, 5]
    assert np.array_equal(res.trajectory[keep], ref.trajectory[keep])
    assert np.all(np.isfinite(res.trajectory))


def test_run_denoising_keeps_the_first_fault_reason_of_a_non_finite_pose():
    q0, p0 = _identity_stacks(3)
    p0[1, 2] = np.nan  # scores NaN, and its step is not finite either
    sched = build_schedule([(1.0, 0.5, 5)], eps=0.01)
    res = run_denoising(BrownianScoreFn(), q0, p0, sched, np.random.default_rng(0))
    assert res.failed_step.tolist() == [-1, 0, -1]
    assert res.error.tolist() == ["", "non-finite score", ""]


def test_run_denoising_refuses_a_score_result_with_one_row_for_three_chains():
    class OneRow:
        def score_batch(self, q, p, t):
            return np.zeros((1, 6))

    sched = build_schedule([(1.0, 0.5, 5)], eps=0.01)
    with pytest.raises(ValueError, match=r"shape \(1, 6\) for 3 poses, not \(3, 6\)"):
        run_denoising(OneRow(), *_identity_stacks(3), sched, np.random.default_rng(0))


def test_run_denoising_refuses_a_wrong_shaped_score_result_after_a_chain_froze():
    class ThreeRows:
        def score_batch(self, q, p, t):
            return np.zeros((3, 6))

    q0, p0 = _identity_stacks(3)
    p0[2, 0] = np.nan  # its first step is not finite, so the next call scores two chains
    sched = build_schedule([(1.0, 0.5, 5)], eps=0.01)
    with pytest.raises(ValueError, match=r"shape \(3, 6\) for 2 poses, not \(2, 6\)"):
        run_denoising(ThreeRows(), q0, p0, sched, np.random.default_rng(0))


class _Counted(BrownianScoreFn):
    """The Brownian score, counting ``score_batch`` calls per diffusion time."""

    def __init__(self):
        self.calls: dict[float, int] = {}

    def score_batch(self, q, p, t):
        self.calls[t] = self.calls.get(t, 0) + 1
        return super().score_batch(q, p, t)


def test_run_denoising_bisects_to_one_raising_chain_among_100():
    class RaisesForFarChain(_Counted):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            if t < 0.8 and np.any(p[:, 0] > 5.0):
                raise FloatingPointError("far chain")
            return out

    chains, far = 100, 37
    sched = build_schedule([(1.0, 0.5, 40)], eps=0.01)
    score = RaisesForFarChain()
    res = run_denoising(score, *_far_chain_inits(chains, far), sched, np.random.default_rng(2))
    ref = run_denoising(BrownianScoreFn(), *_far_chain_inits(chains, far), sched,
                        np.random.default_rng(2))
    step = int(np.argmax(sched.t < 0.8))
    assert np.flatnonzero(res.failed_step >= 0).tolist() == [far]
    assert res.failed_step[far] == step and res.error[far] == "FloatingPointError: far chain"
    assert np.all(res.trajectory[far, step:] == ref.trajectory[far, step])
    # 1 + 2 ceil(log2 100) calls at the failing step, one call at every other step
    assert score.calls[float(sched.t[step])] <= 15
    assert all(c == 1 for t, c in score.calls.items() if t != float(sched.t[step]))
    keep = np.arange(chains) != far
    assert np.array_equal(res.trajectory[keep], ref.trajectory[keep])
    assert np.array_equal(res.q[keep], ref.q[keep]) and np.array_equal(res.p[keep], ref.p[keep])


def test_run_denoising_never_silences_a_warning_of_the_score():
    """A warning raised as an error in the score's own arithmetic (pytest's error::RuntimeWarning,
    set here as well) freezes the chain that causes it, with the warning as its reason: no
    floating-point state is changed around the score call.  The other chains keep their bits."""
    class OverflowsForFarChain(BrownianScoreFn):
        def score_batch(self, q, p, t):
            np.exp(100.0 * p[:, 0])  # overflows, and warns, only for the chain at x = 10
            return super().score_batch(q, p, t)

    chains, far = 8, 5
    sched = build_schedule([(1.0, 0.5, 40)], eps=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_denoising(OverflowsForFarChain(), *_far_chain_inits(chains, far), sched, np.random.default_rng(5))
    ref = run_denoising(BrownianScoreFn(), *_far_chain_inits(chains, far), sched, np.random.default_rng(5))
    assert np.flatnonzero(res.failed_step >= 0).tolist() == [far] and res.failed_step[far] == 0
    assert res.error[far] == "RuntimeWarning: overflow encountered in exp"
    keep = np.arange(chains) != far
    assert np.array_equal(res.trajectory[keep], ref.trajectory[keep])
    assert np.array_equal(res.q[keep], ref.q[keep]) and np.array_equal(res.p[keep], ref.p[keep])


def test_run_denoising_transient_batch_failure_keeps_every_bit():
    class FlakyOnce(_Counted):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            if sum(self.calls.values()) == 2:
                raise RuntimeError("transient")
            return out

    sched = build_schedule([(1.0, 0.5, 50)], eps=0.01)
    flaky = FlakyOnce()
    res = run_denoising(flaky, *_identity_stacks(10), sched, np.random.default_rng(4))
    ref = run_denoising(BrownianScoreFn(), *_identity_stacks(10), sched, np.random.default_rng(4))
    assert flaky.calls[float(sched.t[1])] == 3  # the raise, then one call per half
    assert np.all(res.failed_step == -1)
    assert np.array_equal(res.trajectory, ref.trajectory)
    assert np.array_equal(res.q, ref.q) and np.array_equal(res.p, ref.p)


def test_run_denoising_record_final_only(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)
    sched = build_schedule([(1.0, 0.5, 10)], eps=0.05)
    full = run_denoising(oracle, *_identity_stacks(2), sched, np.random.default_rng(3))
    res = run_denoising(oracle, *_identity_stacks(2), sched, np.random.default_rng(3),
                        record="final")
    assert res.trajectory is None
    assert np.array_equal(res.p, full.trajectory[:, -1, 4:])
    assert np.array_equal(res.q, full.q) and np.array_equal(res.p, full.p)


def test_sampling_equivariance_replay(toy, rng):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    sched = build_schedule([(1.0, 0.1, 30), (0.1, 0.01, 30)], eps=0.05)
    chains = 5
    q0, p0 = sample_initial_poses(toy, np.random.default_rng(11), chains)
    base = run_denoising(MixtureScore(demos, cfg), q0, p0, sched, np.random.default_rng(77))
    dg = Pose(np.array([0.5, -0.3, 0.8]), random_rotation(rng))
    moved_demos = DemoSet(tuple((compose(dg, g0), transform(s, dg), gr)
                                for g0, s, gr in demos.demos))
    moved = run_denoising(MixtureScore(moved_demos, cfg), quat_mul(dg.r.q, q0),
                          quat_rotate(dg.r.q, p0) + dg.p, sched, np.random.default_rng(77))
    for rb, rm in zip(base.trajectory, moved.trajectory):
        for n in range(rb.shape[0]):
            gb = Pose(rb[n, 4:], Rotation(rb[n, :4]))
            gm = Pose(rm[n, 4:], Rotation(rm[n, :4]))
            ref = compose(dg, gb)
            assert np.max(np.abs(ref.p - gm.p)) < 1e-8
            assert ref.r.compose(gm.r.inverse()).angle < 1e-8
