"""Langevin dynamics on SE(3) and the annealed denoising loop.

The discrete update is

    g_{n+1} = g_n exp[(alpha[n]/2) s(g_n, t[n]) + sqrt(alpha[n] T[n]) z],
    z ~ N(0, I_6)

with per-step time t[n], step size alpha[n] = eps * t[n]^k1, and
temperature T[n] = t[n]^k2; temperature scales only the noise, never the
drift.  Two integrators are provided: ``exact`` applies the group
exponential, ``quat-trans`` performs the additive quaternion-translation
Euler step (q += q*(0, omega)/2, then renormalize); they agree to first
order in the step size.

The loop works on stacks: ``run_denoising`` takes (N, 4) quaternion and
(N, 3) translation stacks and returns final stacks, trajectories and
per-chain failures as one ``Denoised``.  Its score is anything with
``score_batch(q, p, t) -> (N, 6)`` whose rows each depend on their own
pose only, bit for bit.  A batch call that raises is repeated on each
half of the chains, recursively, so a chain that raises on its own is
frozen after O(log N) calls and the others keep the bits of a clean run.

Chains draw noise from generator streams spawned deterministically from
the caller's root generator, consumed in fixed blocks, so runs are
bit-reproducible and replaying the same seed against a transformed
problem reproduces transformed trajectories exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .diffusion import check_time
from .lie import Pose, Rotation, Twist, _exp_se3, _mul, _normalize, _rotate, quat_unit

__all__ = ["AnnealSchedule", "build_schedule", "langevin_step", "run_denoising", "Denoised"]

NOISE_BLOCK = 32
MAX_SEGMENT_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class AnnealSchedule:
    """Materialized per-step (t, alpha, temperature) arrays."""

    segments: tuple[tuple[float, float, int], ...]
    eps: float
    k1: float
    k2: float
    t: np.ndarray
    alpha: np.ndarray
    temperature: np.ndarray

    @property
    def steps(self) -> int:
        return self.t.size


def build_schedule(segments: Sequence[tuple[float, float, int]], eps: float,
                   k1: float = 0.5, k2: float = 1.0) -> AnnealSchedule:
    """Piecewise-linear diffusion-time schedule with power-law step/temperature.

    Each (start, end, steps) segment contributes ``steps`` values
    interpolated linearly from start to end inclusive; a fractional or
    boolean step count, or one outside 1 to MAX_SEGMENT_STEPS, is refused,
    and so is any ``eps``, ``k1`` or ``k2`` that is not finite and any time
    that the scores refuse (``check_time``).  Defaults k1=0.5, k2=1.0.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("base step scale eps must be positive and finite")
    if not (math.isfinite(k1) and math.isfinite(k2)):
        raise ValueError("the exponents k1 and k2 must be finite")
    parts = []
    segs = []
    for seg in segments:
        if len(seg) != 3:
            raise ValueError(f"a schedule segment is [start, end, steps], got {list(seg)!r}")
        if any(isinstance(x, bool) for x in seg):
            raise ValueError(f"a schedule segment holds numbers, got {list(seg)!r}")
        t0, t1, steps = float(seg[0]), float(seg[1]), int(seg[2])
        if steps != seg[2]:
            raise ValueError(f"a segment's step count must be a whole number, got {seg[2]!r}")
        check_time(t0)
        check_time(t1)
        if not 1 <= steps <= MAX_SEGMENT_STEPS:
            raise ValueError(f"a segment takes 1 to {MAX_SEGMENT_STEPS} steps, got {steps}")
        parts.append(np.linspace(t0, t1, steps))
        segs.append((t0, t1, steps))
    if not parts:
        raise ValueError("schedule needs at least one segment")
    t = np.concatenate(parts)
    with np.errstate(over="ignore"):  # refused just below
        alpha = eps * t**k1
        temperature = t**k2
    if not (np.isfinite(alpha).all() and np.isfinite(temperature).all()):
        raise ValueError("step sizes eps t^k1 and temperatures t^k2 must be finite")
    for arr in (t, alpha, temperature):
        arr.setflags(write=False)
    return AnnealSchedule(tuple(segs), eps, k1, k2, t, alpha, temperature)


def _step_batch(q: np.ndarray, p: np.ndarray, scores: np.ndarray, alpha: float, temperature: float,
                noise: np.ndarray, integrator: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Langevin update on quaternion/translation stacks.

    Works on the transposed stacks, (3, N) vector parts and (N,) scalar rows, through the kernels
    of ``lie``, so the update is ``quat_mul``, ``quat_normalize`` and ``quat_rotate`` bit for bit,
    the exact one of the group exponential ``_exp_se3`` (the kernel of ``exp_se3``).  The new q
    and p are the (N, 4) and (N, 3) transposed views of one (7, N) array.  Floating point errors
    are ignored throughout: a step too large to integrate gives non-finite rows, which the caller reports.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi = np.ascontiguousarray((0.5 * alpha * scores + math.sqrt(alpha * max(temperature, 0.0)) * noise).T)
        nu, om = xi[:3], xi[3:]
        qt = np.ascontiguousarray(q.T)
        w, qv = qt[0], qt[1:]
        m = np.empty_like(qt)  # the product before normalization
        if integrator == "exact":
            ew, ev, body = _exp_se3(nu, om)
            m[0], m[1:] = _mul(w, qv, ew, ev)
        elif integrator == "quat-trans":
            body = nu
            mw, mv = _mul(w, qv, 0.0, om)  # q + quat_mul(q, (0, omega)) / 2
            m[0], m[1:] = w + 0.5 * mw, qv + 0.5 * mv
        else:
            raise ValueError(f"unknown integrator {integrator!r}")
        out = np.empty((7, q.shape[0]))
        np.add(p.T, _rotate(w, qv, body), out=out[4:])
        return _normalize(m, out[:4]).T, out[4:].T


def langevin_step(g: Pose, s: Twist, alpha: float, temperature: float,
                  rng: np.random.Generator, integrator: str = "exact") -> Pose:
    """Single Langevin update of one pose; a NaN or infinite ``alpha`` or ``temperature`` is refused."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be nonnegative and finite, got {temperature!r}")
    noise = rng.standard_normal(6)[None, :]
    q, p = _step_batch(g.r.q[None, :], g.p[None, :], s.as_array()[None, :],
                       alpha, temperature, noise, integrator)
    return Pose(p[0], Rotation(q[0]))


class Denoised(NamedTuple):
    """Outcome of ``run_denoising``, one row per chain."""

    q: np.ndarray  # (N, 4) final quaternions, unit with w >= 0 (``quat_unit``)
    p: np.ndarray  # (N, 3) final translations
    trajectory: np.ndarray | None  # (N, steps+1, 7): quaternion then translation
    failed_step: np.ndarray  # (N,) step at which the chain froze, -1 if it did not
    error: np.ndarray  # (N,) why the chain froze, "" if it did not


def _score_rows(score, q: np.ndarray, p: np.ndarray, t: float,
                idx: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """(rows, faults): ``score.score_batch`` at the chains ``idx``, bisecting ``idx`` while a call raises.

    ``rows`` holds one float64 row per chain in ``idx``; a chain whose call
    raises on its own gets a zero row, and the exception's text in
    ``faults``, by index.  A call over every chain passes the stacks as
    they are and hands its result back as it is.  A result that is not one
    6-vector per pose is a broken score, not a bad chain: it raises
    ``ValueError``.
    """
    try:
        rows = score.score_batch(q, p, t) if idx.size == q.shape[0] else score.score_batch(q[idx], p[idx], t)
    except Exception as exc:
        if idx.size == 1:
            return np.zeros((1, 6)), {int(idx[0]): f"{type(exc).__name__}: {exc}"}
        half = idx.size // 2
        first, faults = _score_rows(score, q, p, t, idx[:half])
        second, more = _score_rows(score, q, p, t, idx[half:])
        return np.concatenate([first, second]), faults | more
    if np.shape(rows) != (idx.size, 6):
        raise ValueError(f"score_batch returned shape {np.shape(rows)} for {idx.size} poses, not ({idx.size}, 6)")
    return np.asarray(rows, dtype=np.float64), {}


def run_denoising(score, q0: np.ndarray, p0: np.ndarray, schedule: AnnealSchedule,
                  rng: np.random.Generator, integrator: str = "exact",
                  record: str = "full") -> Denoised:
    """Run annealed Langevin chains from (N, 4) quaternion and (N, 3) translation stacks.

    A failure freezes only the offending chain, with the step and reason
    recorded, while the others continue: a chain whose ``score_batch`` call
    raises on its own, a non-finite score row, or a step that overflows;
    the first of these is its reason.  A ``score_batch`` result that is not
    one 6-vector per pose raises ``ValueError``.  Each chain draws its
    noise from its own spawned generator, ``NOISE_BLOCK`` steps at a time.
    ``record`` is ``"full"`` for whole trajectories or ``"final"`` to keep
    only the endpoints.
    """
    q = np.asarray(q0, dtype=np.float64)
    p = np.asarray(p0, dtype=np.float64)
    chains = q.shape[0]
    if chains < 1 or q.shape != (chains, 4) or p.shape != (chains, 3):
        raise ValueError(f"need (N, 4) and (N, 3) initial stacks, N >= 1; got {q.shape}, {p.shape}")
    if record not in ("full", "final"):
        raise ValueError("record must be 'full' or 'final'")
    streams = rng.spawn(chains)
    noise_block = np.empty((chains, NOISE_BLOCK, 6))
    alive = np.ones(chains, dtype=bool)
    idx = np.arange(chains)  # the chains still running
    failed_step = np.full(chains, -1)
    error = np.full(chains, "", dtype=object)
    traj = None
    if record == "full":
        traj = np.empty((chains, schedule.steps + 1, 7))
        traj[:, 0, :4] = q
        traj[:, 0, 4:] = p

    for n, (t_n, alpha, temperature) in enumerate(zip(
            schedule.t.tolist(), schedule.alpha.tolist(), schedule.temperature.tolist())):
        if n % NOISE_BLOCK == 0:  # every chain refills at the same step
            for stream, block in zip(streams, noise_block):
                stream.standard_normal(out=block)
        noise = noise_block[:, n % NOISE_BLOCK]
        if idx.size == chains:
            scores, faults = _score_rows(score, q, p, t_n, idx)
        else:  # a frozen chain's row is 0, and so is a raising chain's
            scores, faults = np.zeros((chains, 6)), {}
            if idx.size:
                scores[idx], faults = _score_rows(score, q, p, t_n, idx)
        q_new, p_new = _step_batch(q, p, scores, alpha, temperature, noise, integrator)
        # a non-finite score row steps to a non-finite pose, and so does a finite score too
        # large to integrate; a chain that raised keeps that reason
        if not np.isfinite(q_new.base).all():  # q_new and p_new are views of one (7, N) array
            finite = np.isfinite(q_new).all(axis=1) & np.isfinite(p_new).all(axis=1)
            scored = np.isfinite(scores).all(axis=1)
            for i in (alive & ~finite).nonzero()[0]:
                faults.setdefault(i, "non-finite step" if scored[i] else "non-finite score")
        if faults:
            for i, reason in faults.items():
                alive[i], failed_step[i], error[i] = False, n, reason
            idx = alive.nonzero()[0]
        if idx.size == chains:
            q, p = q_new, p_new
        else:
            q = np.where(alive[:, None], q_new, q)
            p = np.where(alive[:, None], p_new, p)
        if traj is not None:
            traj[:, n + 1, :4] = q
            traj[:, n + 1, 4:] = p
    return Denoised(quat_unit(q), p, traj, failed_step, error)
