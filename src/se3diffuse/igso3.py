"""Isotropic Gaussian on SO(3): density, inverse-CDF sampling, and score.

The density relative to the normalized Haar measure is the series

    f(theta; eps) = sum_{l>=0} (2l+1) e^{-eps l(l+1)} sin((l+1/2)theta) / sin(theta/2)

which tends to 1 as eps grows (uniform distribution).  The marginal
density of the rotation angle carries the Haar weight (1-cos theta)/pi.

Two regimes, split at the fixed concentration EPS_SERIES:

- eps >= EPS_SERIES: the series itself, truncated at the fixed order
  SERIES_LMAX = 9.  The first term left out, (2l+1)^2 e^{-eps l(l+1)} at
  l = 10, is 5.7e-22 at EPS_SERIES and only shrinks as eps grows.  Below
  THETA_SMALL_DENSITY the density takes its theta = 0 value, a relative
  error below 1e-8 there.
- eps < EPS_SERIES: the exact Poisson resummation of the series over the
  images theta + 2 pi k, |k| <= 3 (Nikolayev & Savyolova 1997; Leach et
  al. 2022), whose cost does not grow as eps shrinks and which keeps its
  relative accuracy far into the tail, where a direct sum of the series
  would leave only cancellation noise.

Both regimes give the density to about 1e-13 relative and f'/f to about
1e-14 relative (see ``_kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .lie import Rotation, quat_exp, quat_log

__all__ = [
    "IgParams",
    "igso3_density",
    "igso3_sample",
    "igso3_sample_quats",
    "igso3_score",
    "igso3_score_batch",
    "angle_pdf",
    "angle_cdf_quadrature",
]

THETA_SMALL_DENSITY = 1e-4
THETA_SMALL_SCORE = 1e-3
THETA_MAX_SCORE = math.pi - 1e-6
CDF_NODES = 4096
EPS_SERIES = 0.5
SERIES_LMAX = 9


@dataclass(frozen=True)
class IgParams:
    """Concentration eps > 0; the series order is the fixed SERIES_LMAX."""

    eps: float

    def __post_init__(self) -> None:
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")


def _f(theta: np.ndarray, params: IgParams) -> np.ndarray:
    if params.eps < EPS_SERIES:
        return _kernels.closed_f(theta, params.eps)
    return _kernels.series_f(theta, params.eps, SERIES_LMAX, THETA_SMALL_DENSITY)


def _ratio(theta: np.ndarray, params: IgParams) -> np.ndarray:
    """f'(theta)/f(theta) for theta in (0, pi]."""
    if params.eps < EPS_SERIES:
        return _kernels.closed_ratio(theta, params.eps)
    return (_kernels.series_df(theta, params.eps, SERIES_LMAX)
            / _kernels.series_f(theta, params.eps, SERIES_LMAX))


def _moment(params: IgParams) -> float:
    """Small-angle score slope c(eps): f'/f -> -c(eps) theta as theta -> 0."""
    if params.eps < EPS_SERIES:
        return _kernels.closed_moment(params.eps)
    return _kernels.series_moment(params.eps, SERIES_LMAX)


def igso3_density(theta, params: IgParams):
    """Density at rotation angle theta, relative to normalized Haar.

    theta may be a scalar or an array; all values must lie in [0, pi]
    (a slack of 1e-12 is clamped).
    """
    th = np.asarray(theta, dtype=np.float64)
    if np.any(th < -1e-12) or np.any(th > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    out = _f(np.clip(th, 0.0, math.pi), params)
    return float(out) if np.isscalar(theta) else out


def angle_pdf(theta, params: IgParams):
    """Marginal pdf of the rotation angle: density * (1 - cos theta) / pi."""
    th = np.asarray(theta, dtype=np.float64)
    vals = igso3_density(th, params) * (1.0 - np.cos(th)) / math.pi
    return float(vals) if np.isscalar(theta) else vals


@lru_cache(maxsize=64)
def _cdf_table(params: IgParams) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table: CDF_NODES-point grid with trapezoidal accumulation.

    For strongly concentrated distributions the grid upper end is pulled
    in to 30 standard deviations (the tail beyond carries e^-225 of the
    mass), otherwise the peak would fall below the grid resolution.
    """
    theta_hi = min(math.pi, 30.0 * math.sqrt(2.0 * params.eps))
    grid = np.linspace(0.0, theta_hi, CDF_NODES)
    pdf = angle_pdf(grid, params)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return grid, cdf


def _sample_angles(params: IgParams, rng: np.random.Generator, n: int) -> np.ndarray:
    return _angles_from_uniforms(params, rng.random(n))


def _angles_from_uniforms(params: IgParams, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF angles of uniforms u, elementwise (a row does not depend on the batch)."""
    grid, cdf = _cdf_table(params)
    hi = np.searchsorted(cdf, u, side="right")
    hi = np.clip(hi, 1, cdf.size - 1)
    lo = hi - 1
    seg = cdf[hi] - cdf[lo]
    frac = np.where(seg > 0.0, (u - cdf[lo]) / np.where(seg > 0.0, seg, 1.0), 0.0)
    return grid[lo] + frac * (grid[hi] - grid[lo])


def igso3_sample_quats(params: IgParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n quaternions sampled by inverse-CDF angle plus a uniform axis."""
    theta = _sample_angles(params, rng, n)
    return _quats_from(theta, rng.standard_normal((n, 3)))


def _quats_from(theta: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Quaternions of the angles theta about the directions of the (n, 3) normal draws, row by row."""
    return quat_exp(theta[:, None] * (normals / np.linalg.norm(normals, axis=1, keepdims=True)))


def igso3_sample(params: IgParams, rng: np.random.Generator) -> Rotation:
    return Rotation(igso3_sample_quats(params, rng, 1)[0])


def score_ratio(theta: np.ndarray, params: IgParams) -> np.ndarray:
    """f'(theta)/f(theta) with the small-angle slope below 1e-3 rad.

    Angles at or beyond THETA_MAX_SCORE = pi - 1e-6 are pulled back to
    that boundary, where the derivative vanishes smoothly.
    """
    th = np.minimum(np.asarray(theta, dtype=np.float64), THETA_MAX_SCORE)
    small = th < THETA_SMALL_SCORE
    ratio = _ratio(np.where(small, 1.0, th), params)
    return np.where(small, -_moment(params) * th, ratio)


def igso3_score_batch(rotvec: np.ndarray, params: IgParams) -> np.ndarray:
    """(N, 3) Lie-derivative scores (f'(theta)/f(theta)) * axis of rotation vectors.

    Angles are clamped as in ``score_ratio``; a zero rotation vector has
    a zero score.
    """
    theta = np.linalg.norm(rotvec, axis=-1)
    axis = rotvec / np.where(theta < 1e-12, 1.0, theta)[:, None]
    return score_ratio(theta, params)[:, None] * axis


def check_score_angle(theta: float) -> None:
    """Raise for a rotation angle within 1e-6 of pi, where the scalar scores refuse."""
    if theta > THETA_MAX_SCORE:
        raise ValueError("rotation angle too close to pi for the score series")


def igso3_score(r: Rotation, params: IgParams) -> np.ndarray:
    """Lie-derivative score (f'(theta)/f(theta)) * axis, as a 3-vector.

    A batch of one of ``igso3_score_batch``.  Points back toward the
    identity since the density decreases in theta.  Raises for rotation
    angles within 1e-6 of pi, where the batch clamps instead.
    """
    rotvec = quat_log(r.q)
    check_score_angle(float(np.linalg.norm(rotvec)))
    return igso3_score_batch(rotvec[None, :], params)[0]


def angle_cdf_quadrature(params: IgParams) -> tuple[np.ndarray, np.ndarray]:
    """Independent dense-quadrature CDF of the angle marginal, on 20001 nodes.

    Used as the oracle for Kolmogorov-Smirnov checks against the sampler's
    coarser inverse-CDF table.  The grid ends at min(pi, 30 sqrt(2 eps)),
    as in the sampler's table, so that strongly concentrated marginals
    span many nodes; the CDF is 1 beyond its end.
    """
    grid = np.linspace(0.0, min(math.pi, 30.0 * math.sqrt(2.0 * params.eps)), 20001)
    pdf = angle_pdf(grid, params)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return grid, cdf / cdf[-1]
