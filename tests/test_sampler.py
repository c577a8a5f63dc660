import numpy as np
import pytest

from se3diffuse.diffusion import BrownianScoreFn, DemoSet, DiffusionConfig, MixtureScore
from se3diffuse.lie import Pose, Rotation, Twist, compose, random_rotation
from se3diffuse.pointcloud import transform
from se3diffuse.sampler import (
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


def zero_score(g, t):
    return Twist.zero()


def test_run_denoising_constant_with_zero_score():
    sched = build_schedule([(1.0, 0.5, 20)], eps=0.1, k2=1.0)
    g0 = Pose(np.array([1.0, 2.0, 3.0]), Rotation.identity())

    def zero_temp_sched():
        return AnnealSchedule(sched.segments, sched.eps, sched.k1, sched.k2,
                              sched.t, sched.alpha, np.zeros_like(sched.temperature))

    res = run_denoising(zero_score, g0, zero_temp_sched(), np.random.default_rng(0), 3)
    for r in res:
        assert np.allclose(r.final.p, g0.p)
        assert r.trajectory.shape == (21, 7)
        assert np.allclose(r.trajectory[:, 4:], g0.p)


def test_run_denoising_draws_each_chains_spawned_stream_in_blocks():
    chains, steps = 3, 2 * NOISE_BLOCK + 6  # crosses two refills
    sched = build_schedule([(1.0, 0.5, steps)], eps=0.05)
    res = run_denoising(BrownianScoreFn(), Pose.identity(), sched, np.random.default_rng(6), chains)
    children = np.random.default_rng(6).spawn(chains)
    draws = [np.concatenate([c.standard_normal((NOISE_BLOCK, 6)) for _ in range(3)])
             for c in children]
    q, p = np.tile([1.0, 0.0, 0.0, 0.0], (chains, 1)), np.zeros((chains, 3))
    for n in range(steps):
        scores = BrownianScoreFn().score_batch(q, p, float(sched.t[n]))
        q, p = _step_batch(q, p, scores, float(sched.alpha[n]), float(sched.temperature[n]),
                           np.stack([d[n] for d in draws]), "exact")
        for i in range(chains):
            assert np.array_equal(res[i].trajectory[n + 1], np.concatenate([q[i], p[i]]))


def test_run_denoising_deterministic(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)
    sched = build_schedule([(1.0, 0.1, 30)], eps=0.05)
    inits = sample_initial_poses(toy, np.random.default_rng(1), 4)
    a = run_denoising(oracle, inits, sched, np.random.default_rng(9), 4)
    b = run_denoising(oracle, inits, sched, np.random.default_rng(9), 4)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.trajectory, rb.trajectory)


def test_run_denoising_batched_equals_scalar(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)

    class ScalarOnly:
        def __call__(self, g, t):
            return oracle(g, t)

    sched = build_schedule([(1.0, 0.2, 25)], eps=0.05)
    inits = sample_initial_poses(toy, np.random.default_rng(2), 3)
    a = run_denoising(oracle, inits, sched, np.random.default_rng(5), 3)
    b = run_denoising(ScalarOnly(), inits, sched, np.random.default_rng(5), 3)
    for ra, rb in zip(a, b):
        assert np.allclose(ra.trajectory, rb.trajectory, atol=1e-12)


def test_run_denoising_model_score_batched_equals_scalar(toy):
    from se3diffuse.fields import ModelScore, build_query_set

    model = ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, toy.model),
                       toy.model)

    class ScalarOnly:
        def __call__(self, g, t):
            return model(g, t)

    sched = build_schedule([(1.0, 0.05, 40)], eps=0.05)
    inits = sample_initial_poses(toy, np.random.default_rng(4), 3)
    a = run_denoising(model, inits, sched, np.random.default_rng(8), 3)
    b = run_denoising(ScalarOnly(), inits, sched, np.random.default_rng(8), 3)
    for ra, rb in zip(a, b):
        assert not ra.failed and not rb.failed
        assert np.allclose(ra.trajectory, rb.trajectory, rtol=0.0, atol=1e-12)
        assert not np.allclose(ra.trajectory[-1], ra.trajectory[0])


def test_run_denoising_isolates_failing_chain():
    calls = {"n": 0}

    def flaky(g, t):
        # fails only for states near one specific chain's start
        if g.p[0] > 0.5:
            raise RuntimeError("score blew up")
        return Twist.zero()

    sched = build_schedule([(1.0, 1.0, 5)], eps=0.01, k2=1.0)
    inits = [Pose(np.array([0.0, 0.0, 0.0]), Rotation.identity()),
             Pose(np.array([1.0, 0.0, 0.0]), Rotation.identity())]
    res = run_denoising(flaky, inits, sched, np.random.default_rng(0), 2)
    assert not res[0].failed
    assert res[1].failed and "score blew up" in res[1].error
    assert res[1].failed_step == 0
    assert np.allclose(res[1].final.p, [1.0, 0.0, 0.0])  # frozen at failure


def _far_chain_inits(chains, far):
    """Chains start at the identity except chain ``far``, which starts at x = 10."""
    return [Pose(np.array([10.0 if i == far else 0.0, 0.0, 0.0]), Rotation.identity())
            for i in range(chains)]


def test_run_denoising_freezes_chain_with_non_finite_score():
    class NanForFarChain(BrownianScoreFn):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            if t < 0.8:
                out[p[:, 0] > 5.0] = np.nan
            return out

    sched = build_schedule([(1.0, 0.5, 50)], eps=0.01)
    res = run_denoising(NanForFarChain(), _far_chain_inits(10, 3), sched,
                        np.random.default_rng(0), 10)
    step = int(np.argmax(sched.t < 0.8))
    assert [r.index for r in res if r.failed] == [3]
    assert res[3].error == "non-finite score" and res[3].failed_step == step
    assert np.all(res[3].trajectory[step:] == res[3].trajectory[step])
    assert np.all(np.isfinite(res[3].trajectory))


def test_run_denoising_freezes_chain_with_non_finite_step():
    class HugeForFarChain(BrownianScoreFn):
        def score_batch(self, q, p, t):
            out = super().score_batch(q, p, t)
            out[p[:, 0] > 5.0] = 1e300  # finite, but the step overflows
            return out

    sched = build_schedule([(1.0, 0.5, 20)], eps=0.01)
    inits = _far_chain_inits(4, 1)
    res = run_denoising(HugeForFarChain(), inits, sched, np.random.default_rng(0), 4)
    assert [r.index for r in res if r.failed] == [1]
    assert res[1].error == "non-finite step" and res[1].failed_step == 0
    assert res[1].final.allclose(inits[1], atol=0.0)


def test_run_denoising_batch_exception_retries_one_step_per_chain():
    class FlakyOnce(BrownianScoreFn):
        def __init__(self):
            self.batch_calls = 0
            self.scalar_calls = 0

        def score_batch(self, q, p, t):
            self.batch_calls += 1
            if self.batch_calls == 2:
                raise RuntimeError("transient")
            return super().score_batch(q, p, t)

        def __call__(self, g, t):
            self.scalar_calls += 1
            return super().__call__(g, t)

    sched = build_schedule([(1.0, 0.5, 50)], eps=0.01)
    flaky = FlakyOnce()
    res = run_denoising(flaky, Pose.identity(), sched, np.random.default_rng(4), 10)
    ref = run_denoising(BrownianScoreFn(), Pose.identity(), sched, np.random.default_rng(4), 10)
    assert flaky.scalar_calls == 10  # only the failed step, once per chain
    assert flaky.batch_calls == 50
    assert not any(r.failed for r in res)
    for a, b in zip(res, ref):
        assert np.allclose(a.trajectory, b.trajectory, atol=1e-12)


def test_run_denoising_record_final_only(toy):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    oracle = MixtureScore(toy.demo_set(), cfg)
    sched = build_schedule([(1.0, 0.5, 10)], eps=0.05)
    res = run_denoising(oracle, Pose.identity(), sched, np.random.default_rng(3), 2,
                        record="final")
    assert all(r.trajectory is None for r in res)


def test_sampling_equivariance_replay(toy, rng):
    cfg = DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
    demos = toy.demo_set()
    sched = build_schedule([(1.0, 0.1, 30), (0.1, 0.01, 30)], eps=0.05)
    chains = 5
    inits = sample_initial_poses(toy, np.random.default_rng(11), chains)
    base = run_denoising(MixtureScore(demos, cfg), inits, sched,
                         np.random.default_rng(77), chains)
    dg = Pose(np.array([0.5, -0.3, 0.8]), random_rotation(rng))
    moved_demos = DemoSet(tuple((compose(dg, g0), transform(s, dg), gr)
                                for g0, s, gr in demos.demos))
    moved_inits = [compose(dg, g) for g in inits]
    moved = run_denoising(MixtureScore(moved_demos, cfg), moved_inits, sched,
                          np.random.default_rng(77), chains)
    for rb, rm in zip(base, moved):
        for n in range(rb.trajectory.shape[0]):
            gb = Pose(rb.trajectory[n, 4:], Rotation(rb.trajectory[n, :4]))
            gm = Pose(rm.trajectory[n, 4:], Rotation(rm.trajectory[n, :4]))
            ref = compose(dg, gb)
            assert np.max(np.abs(ref.p - gm.p)) < 1e-8
            assert ref.r.compose(gm.r.inverse()).angle < 1e-8
