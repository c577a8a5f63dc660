"""Per-layer tracing from outside the program.

Wrappers are installed at the name through which each function is looked
up at call time: a module attribute for calls through a module, or the
importing module's own binding for ``from ... import`` names.  Each
wrapper records calls, inclusive seconds and self seconds (inclusive
minus the time of wrapped callees), plus counts derived from the call
arguments.  Nothing inside se3diffuse is edited.
"""

from __future__ import annotations

import os

import numpy as np


class Stat:
    __slots__ = ("calls", "s", "self_s", "count", "peak")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0.0  # layer-specific work count (poses, points, terms, bytes)
        self.peak = 0  # layer-specific maximum (series truncation order)


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr``; ``after(stat, args, kwargs, seconds)`` adds counts."""
        orig = getattr(owner, attr)
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[0]
                if after is not None:
                    after(stat, args, kwargs, elapsed)

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()


def _series_terms(stat: Stat, args, kwargs, _elapsed) -> None:
    theta, _eps, lmax = args[:3]
    stat.count += np.size(theta) * (int(lmax) + 1)
    stat.peak = max(stat.peak, int(lmax))


def _batch_poses(stat: Stat, args, kwargs, _elapsed) -> None:
    stat.count += np.shape(args[1])[0]  # (self, q, p, t)


def _edf_points(stat: Stat, args, kwargs, _elapsed) -> None:
    stat.count += np.size(args[0]) // 3


def _bytes_written(stat: Stat, args, kwargs, _elapsed) -> None:
    stat.count += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of se3diffuse; the package must be importable."""
    from se3diffuse import _kernels, cli, diffusion, fields, igso3, io, irreps, sampler

    w = tracer.wrap
    w(cli, "read_scenario", "io.read_scenario")
    w(io, "write_poses", "io.write_poses", _bytes_written)
    w(cli, "run_denoising", "sampler.run_denoising")
    w(sampler, "_step_batch", "sampler.step_batch")
    w(cli, "kernel_log_density", "diffusion.kernel_log_density")
    w(diffusion.MixtureScore, "score_batch", "diffusion.mixture_score", _batch_poses)
    w(diffusion, "contact_origin_weights", "diffusion.contact_weights")
    w(diffusion, "radius_count", "pointcloud.radius_count")
    w(cli, "forward_diffuse", "diffusion.forward_diffuse")
    w(diffusion, "brownian_sample", "diffusion.brownian_sample")
    w(_kernels, "series_f", "igso3.series", _series_terms)
    w(_kernels, "series_df", "igso3.series", _series_terms)
    w(cli, "assemble_score", "fields.assemble_score")
    w(fields, "_edf_batch", "fields.edf", _edf_points)
    w(fields, "_contract_batch", "fields.contract")
    w(irreps, "wigner_d", "irreps.wigner_d")

    # The inverse-CDF table is an lru_cache; a call that adds a cache miss built a table.
    table = igso3._cdf_table
    builds = tracer.stats.setdefault("igso3.cdf_table", Stat())
    seen = [table.cache_info().misses]

    def count_build(_stat: Stat, args, kwargs, elapsed) -> None:
        misses = table.cache_info().misses
        if misses > seen[0]:
            builds.calls += misses - seen[0]
            builds.s += elapsed
            seen[0] = misses

    w(igso3, "_cdf_table", "igso3.cdf_table_lookup", count_build)


def per_layer_metrics(tracer: Tracer, rounds: int, factor: float) -> dict[str, tuple[float, str]]:
    """Per-round means of every traced figure, keyed by metric name.

    Times are multiplied by ``factor``, the run's speed normalization.
    """
    st = tracer.stats

    def get(name: str) -> Stat:
        return st.get(name) or Stat()

    n = max(rounds, 1)
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, self_time: bool = False, calls: bool = False) -> None:
        s = get(name)
        out[f"{name}.s"] = (s.s * factor / n, "s")
        if self_time:
            out[f"{name}.self_s"] = (s.self_s * factor / n, "s")
        if calls:
            out[f"{name}.calls"] = (s.calls / n, "count")

    timed("diffusion.kernel_log_density", self_time=True, calls=True)
    timed("diffusion.mixture_score", self_time=True, calls=True)
    out["diffusion.mixture_score.poses"] = (get("diffusion.mixture_score").count / n, "count")
    timed("diffusion.contact_weights", self_time=True, calls=True)
    out["pointcloud.radius_count.calls"] = (get("pointcloud.radius_count").calls / n, "count")
    timed("diffusion.forward_diffuse", self_time=True)
    timed("diffusion.brownian_sample", self_time=True)
    timed("igso3.series", calls=True)
    out["igso3.series.terms"] = (get("igso3.series").count / n, "count")
    out["igso3.lmax_max"] = (float(get("igso3.series").peak), "l")
    table = get("igso3.cdf_table")
    out["igso3.cdf_table.builds"] = (table.calls / n, "count")
    out["igso3.cdf_table.s"] = (table.s * factor / n, "s")
    timed("fields.assemble_score", self_time=True, calls=True)
    timed("fields.edf", calls=True)
    out["fields.edf.points"] = (get("fields.edf").count / n, "count")
    timed("fields.contract")
    timed("irreps.wigner_d", calls=True)
    timed("sampler.run_denoising", self_time=True)
    timed("sampler.step_batch", calls=True)
    timed("io.write_poses")
    out["io.bytes_written"] = (get("io.write_poses").count / n, "B")
    timed("io.read_scenario")
    return out
