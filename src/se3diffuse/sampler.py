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

from .lie import (
    Pose,
    Rotation,
    Twist,
    cross,
    quat_exp,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_unit,
)

__all__ = ["AnnealSchedule", "build_schedule", "langevin_step", "run_denoising", "Denoised"]

NOISE_BLOCK = 32


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
    interpolated linearly from start to end inclusive.  Defaults k1=0.5,
    k2=1.0.
    """
    if eps <= 0.0:
        raise ValueError("base step scale eps must be positive")
    parts = []
    segs = []
    for seg in segments:
        if len(seg) != 3:
            raise ValueError(f"a schedule segment is [start, end, steps], got {list(seg)!r}")
        t0, t1, steps = float(seg[0]), float(seg[1]), int(seg[2])
        if t0 <= 0.0 or t1 <= 0.0:
            raise ValueError("diffusion times must be positive")
        if steps < 1:
            raise ValueError("each segment needs at least one step")
        parts.append(np.linspace(t0, t1, steps))
        segs.append((t0, t1, steps))
    if not parts:
        raise ValueError("schedule needs at least one segment")
    t = np.concatenate(parts)
    alpha = eps * t**k1
    temperature = t**k2
    for arr in (t, alpha, temperature):
        arr.setflags(write=False)
    return AnnealSchedule(tuple(segs), eps, k1, k2, t, alpha, temperature)


def _step_batch(q: np.ndarray, p: np.ndarray, scores: np.ndarray, alpha: float,
                temperature: float, noise: np.ndarray, integrator: str
                ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Langevin update on quaternion/translation stacks."""
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
        p_new = p + quat_rotate(q, body)
        q_new = quat_normalize(quat_mul(q, quat_exp(omega)))
    elif integrator == "quat-trans":
        p_new = p + quat_rotate(q, nu)
        dq = np.concatenate([np.zeros((omega.shape[0], 1)), omega], axis=1)
        q_new = quat_normalize(q + 0.5 * quat_mul(q, dq))
    else:
        raise ValueError(f"unknown integrator {integrator!r}")
    return q_new, p_new


def langevin_step(g: Pose, s: Twist, alpha: float, temperature: float,
                  rng: np.random.Generator, integrator: str = "exact") -> Pose:
    """Single Langevin update of one pose."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
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


def _score_rows(score, q: np.ndarray, p: np.ndarray, t: float, idx: np.ndarray,
                out: np.ndarray) -> dict[int, str]:
    """Fill ``out[idx]`` from ``score.score_batch``, bisecting ``idx`` while a call raises.

    Returns the exception's text for each chain whose call raises on its
    own, by index; their rows are left as they were.
    """
    try:
        out[idx] = score.score_batch(q[idx], p[idx], t)
        return {}
    except Exception as exc:
        if idx.size == 1:
            return {int(idx[0]): f"{type(exc).__name__}: {exc}"}
        half = idx.size // 2
        faults = _score_rows(score, q, p, t, idx[:half], out)
        return faults | _score_rows(score, q, p, t, idx[half:], out)


def run_denoising(score, q0: np.ndarray, p0: np.ndarray, schedule: AnnealSchedule,
                  rng: np.random.Generator, integrator: str = "exact",
                  record: str = "full") -> Denoised:
    """Run annealed Langevin chains from (N, 4) quaternion and (N, 3) translation stacks.

    A failure freezes only the offending chain, with the step and reason
    recorded, while the others continue: a chain whose ``score_batch`` call
    raises on its own, a non-finite score row, or a step that overflows.
    Each chain draws its noise from its own spawned generator,
    ``NOISE_BLOCK`` steps at a time.  ``record`` is ``"full"`` for whole
    trajectories or ``"final"`` to keep only the endpoints.
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
    failed_step = np.full(chains, -1)
    error = np.full(chains, "", dtype=object)
    steps = schedule.steps
    traj = None
    if record == "full":
        traj = np.empty((chains, steps + 1, 7))
        traj[:, 0, :4] = q
        traj[:, 0, 4:] = p

    for n in range(steps):
        t_n = float(schedule.t[n])
        if n % NOISE_BLOCK == 0:  # every chain refills at the same step
            for stream, block in zip(streams, noise_block):
                stream.standard_normal(out=block)
        noise = noise_block[:, n % NOISE_BLOCK]
        scores = np.zeros((chains, 6))
        idx = np.nonzero(alive)[0]
        faults: dict[int, str] = {}
        if idx.size:
            faults = _score_rows(score, q, p, t_n, idx, scores)  # a raising chain's row stays 0
            for i in idx[~np.all(np.isfinite(scores[idx]), axis=1)]:
                faults[i], scores[i] = "non-finite score", 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # reported per chain below
            q_new, p_new = _step_batch(q, p, scores, float(schedule.alpha[n]),
                                       float(schedule.temperature[n]), noise, integrator)
        finite = np.all(np.isfinite(q_new), axis=1) & np.all(np.isfinite(p_new), axis=1)
        for i in np.nonzero(alive & ~finite)[0]:  # a finite score too large to integrate
            faults[i] = "non-finite step"
        for i, reason in faults.items():
            alive[i], failed_step[i], error[i] = False, n, reason
        q = np.where(alive[:, None], q_new, q)
        p = np.where(alive[:, None], p_new, p)
        if traj is not None:
            traj[:, n + 1, :4] = q
            traj[:, n + 1, 4:] = p
    return Denoised(quat_unit(q), p, traj, failed_step, error)
