"""Isotropic Gaussian on SO(3): density, exact rejection sampling, and score.

The density relative to the normalized Haar measure is the series

    f(theta; eps) = sum_{l>=0} (2l+1) e^{-eps l(l+1)} sin((l+1/2)theta) / sin(theta/2)

which tends to 1 as eps grows (uniform distribution).  The marginal
density of the rotation angle carries the Haar weight
(1 - cos theta)/pi = 2 sin^2(theta/2)/pi.

Two regimes, split at the fixed concentration EPS_SERIES:

- eps >= EPS_SERIES: the series itself, truncated at the fixed order
  SERIES_LMAX = 9.  The first term left out, (2l+1)^2 e^{-eps l(l+1)} at
  l = 10, is 5.7e-22 at EPS_SERIES and only shrinks as eps grows.  The
  cosine form needs no small-angle special case: it holds the density and
  f'/f to about 1e-16 relative down to theta = 0.
- eps < EPS_SERIES: the exact Poisson resummation of the series over the
  images theta + 2 pi k, |k| <= 3 (Nikolayev & Savyolova 1997; Leach et
  al. 2022), whose cost does not grow as eps shrinks and which keeps its
  relative accuracy far into the tail, where a direct sum of the series
  would leave only cancellation noise.

The images give the density to about 1e-13 relative and f'/f to about
1e-14 relative, except below THETA_SMALL_SCORE, where f'/f is the slope
-c(eps) theta, good to about 1e-9 relative (see ``_kernels``).

Sampling (``igso3_sample_rotvecs``) draws rotation vectors by rejection
from a Gaussian (eps <= EPS_BALL) or a uniform ball (eps > EPS_BALL)
proposal, with one eps per row and no table, so it is exact at any
eps > 0.  ``angle_cdf_quadrature`` is the independent dense-quadrature
CDF that the Kolmogorov-Smirnov checks compare samples against.
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
    "igso3_log_density",
    "igso3_log_density_and_ratio",
    "igso3_sample",
    "igso3_sample_quats",
    "igso3_sample_rotvecs",
    "igso3_score",
    "igso3_score_batch",
    "angle_pdf",
    "angle_cdf_quadrature",
]

THETA_SMALL_SCORE = 1e-3
THETA_MAX_SCORE = math.pi - 1e-6
EPS_SERIES = 0.5
SERIES_LMAX = 9
EPS_BALL = 2.0
ENVELOPE = 2.0 / math.pi
PROPOSALS_PER_ROW = 4
QUADRATURE_NODES = 20001


@dataclass(frozen=True)
class IgParams:
    """Concentration eps > 0; the series order is the fixed SERIES_LMAX."""

    eps: float

    def __post_init__(self) -> None:
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")


def _angles(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64)
    if np.any(th < -1e-12) or np.any(th > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    return np.clip(th, 0.0, math.pi)


def igso3_log_density_and_ratio(theta, params: IgParams) -> tuple[np.ndarray, np.ndarray]:
    """log f(theta) and f'/f at angles theta in [0, pi], from one evaluation.

    The first is ``igso3_log_density``, the second ``score_ratio``: angles
    at or beyond THETA_MAX_SCORE take the ratio at that angle.  Below
    EPS_SERIES both come from one pass over the images of the Poisson
    resummation, with the slope -c(eps) theta below THETA_SMALL_SCORE; at
    and above it, from one ``series_f`` evaluation, which also takes the
    density at THETA_MAX_SCORE, and one ``series_df``.
    """
    return _log_density_and_ratio(_angles(theta), params.eps)


def _log_density_and_ratio(th: np.ndarray, eps: float,
                           with_ratio: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``igso3_log_density_and_ratio`` at an array of angles already in [0, pi] and a concentration eps > 0;
    without ``with_ratio``, at eps >= EPS_SERIES, log f alone (``series_f`` sums each angle alone) and None."""
    if eps < EPS_SERIES:
        log_f, ratio = _kernels.closed_log_f_ratio(th.reshape(-1), eps, THETA_SMALL_SCORE, THETA_MAX_SCORE)
        return log_f.reshape(th.shape), ratio.reshape(th.shape)
    f = _kernels.series_f(np.append(th, THETA_MAX_SCORE) if with_ratio else th.reshape(-1), eps, SERIES_LMAX)
    f_th = f[:th.size].reshape(th.shape)
    ratio = (_kernels.series_df(np.minimum(th, THETA_MAX_SCORE), eps, SERIES_LMAX)
             / np.where(th > THETA_MAX_SCORE, f[-1], f_th)) if with_ratio else None
    # at eps >= EPS_SERIES the density is above 0.12 on all of [0, pi]
    return np.log(f_th), ratio


def igso3_density(theta, params: IgParams):
    """Density at rotation angle theta, relative to normalized Haar.

    theta may be a scalar or an array; all values must lie in [0, pi]
    (a slack of 1e-12 is clamped).  The exponential of ``igso3_log_density``:
    0 where the density underflows, inf where it overflows.
    """
    with np.errstate(over="ignore"):  # f(0) ~ eps^{-3/2} is beyond the double range below eps ~ 1e-206
        out = np.exp(_log_density_and_ratio(_angles(theta), params.eps, with_ratio=False)[0])
    return float(out) if np.isscalar(theta) else out


def igso3_log_density(theta, params: IgParams):
    """log of ``igso3_density``, formed in log space below EPS_SERIES.

    It stays finite and accurate where the density underflows, e.g.
    -774.09 at theta = 2.8 and eps = 0.0025.  Same domain as
    ``igso3_density``.
    """
    out = _log_density_and_ratio(_angles(theta), params.eps, with_ratio=False)[0]
    return float(out) if np.isscalar(theta) else out


def angle_pdf(theta, params: IgParams):
    """Marginal pdf of the rotation angle: density * 2 sin^2(theta/2) / pi.

    The Haar weight is written with sin^2(theta/2), not 1 - cos theta,
    which is exactly 0 in double precision below theta ~ 1e-8.  Both factors
    are taken in log space: below eps ~ 1e-206 f(0) ~ eps^{-3/2} overflows.
    """
    th = np.asarray(theta, dtype=np.float64)
    with np.errstate(divide="ignore"):  # log sin(0) = -inf, where the pdf is 0
        log_haar = 2.0 * np.log(np.sin(0.5 * th)) + math.log(2.0 / math.pi)
    vals = np.exp(igso3_log_density(th, params) + log_haar)
    return float(vals) if np.isscalar(theta) else vals


@lru_cache(maxsize=16)
def _cdf_table(params: IgParams) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid CDF of ``angle_pdf`` on QUADRATURE_NODES nodes, as read-only arrays.

    The grid ends at min(pi, 30 sqrt(2 eps)), so that strongly
    concentrated marginals span many nodes (the tail beyond carries
    e^-225 of the mass); the CDF is 1 beyond its end.
    """
    grid = np.linspace(0.0, min(math.pi, 30.0 * math.sqrt(2.0 * params.eps)), QUADRATURE_NODES)
    pdf = angle_pdf(grid, params)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    grid.setflags(write=False)
    cdf.setflags(write=False)
    return grid, cdf


def angle_cdf_quadrature(params: IgParams) -> tuple[np.ndarray, np.ndarray]:
    """(grid, cdf) of the angle marginal by dense quadrature, cached and read-only.

    The independent oracle of the Kolmogorov-Smirnov checks on the
    sampler, which uses no table.
    """
    return _cdf_table(params)


def _half_sin_over(theta: np.ndarray) -> np.ndarray:
    """sin(theta/2)/theta, 1/2 at theta = 0."""
    pos = theta > 0.0
    return np.where(pos, np.sin(0.5 * theta) / np.where(pos, theta, 1.0), 0.5)


def _accept_gauss(v: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Acceptance probabilities R sin(theta/2) / (theta ENVELOPE) of Gaussian proposals v.

    Zero outside the ball |v| <= pi.
    """
    theta = np.linalg.norm(v, axis=-1)
    th = np.minimum(theta, math.pi)
    r = _kernels.closed_r(th, eps)
    return np.where(theta <= math.pi, r * _half_sin_over(th) / ENVELOPE, 0.0)


def _accept_ball(v: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Acceptance probabilities f(theta) sinc^2(theta/2) / f(0) of ball proposals v."""
    theta = np.linalg.norm(v, axis=-1)
    col = eps[:, None]
    f = _kernels.series_f(theta, col, SERIES_LMAX)
    f0 = _kernels.series_f(np.zeros_like(theta), col, SERIES_LMAX)
    return f / f0 * (2.0 * _half_sin_over(theta)) ** 2


def igso3_sample_rotvecs(eps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) rotation vectors, row i an exact draw from IGSO(3)(eps[i]).

    In exponential coordinates the law has the Lebesgue density
    f(theta) sin^2(theta/2) / (2 pi^2 theta^2) on the ball |v| <= pi, and
    rows are drawn by rejection from one of two proposals:

    - eps <= EPS_BALL: v = sqrt(2 eps) z, z ~ N(0, I3), of density
      proportional to e^{-theta^2/(4 eps)}; its direction is already
      uniform.  With the Poisson form of f (``_kernels.closed_form``) the
      target over the proposal is 2 e^{eps/4} R(theta) sin(theta/2)/theta,
      R the image sum with its k = 0 Gaussian factored out, so a proposal
      in the ball is kept with probability R sin(theta/2) / (theta ENVELOPE).
      Nothing overflows: the prefactors cancel, and below eps = 1e-300,
      where R is 1 to rounding, R is taken at 1e-300.
    - eps > EPS_BALL: v uniform in the ball (radius pi U^{1/3} along the
      direction of z), kept with probability f(theta) sinc^2(theta/2) / f(0),
      at most 1 because f decreases on [0, pi]: by the Jacobi triple
      product f is proportional to P(theta) (1/2 + sum_m 4 q^{2m}
      cos^2(theta/2) / D_m), q = e^{-eps}, with P = prod_m D_m and
      D_m = 1 + 2 q^{2m} cos theta + q^{4m}, all positive and
      non-increasing in theta.

    ENVELOPE = 2/pi bounds R sin(theta/2)/theta for eps <= EPS_BALL = 2
    (a = pi/eps >= pi/2).  The switch stays below pi^2/4, where the slope
    at theta = pi of the first bound below, a/pi - 4/pi^2, turns negative
    and the maximum moves inside (0, pi):

    - R = sum_k (-1)^k (1 + 2 pi k/theta) e^{-a k (theta + pi k)}.  The
      images k >= 1 and k <= -2 form two alternating series whose first
      terms are negative and whose terms shrink by a factor of at least
      1e6 per step, so keeping the k = -1 image alone gives
      R <= 1 + (2 pi/theta - 1) e^{-a (pi - theta)}, and keeping k = +-1
      paired gives R <= 1 + (4 pi/theta) e^{-a pi} sinh(a theta).
    - Both bounds grow with eps (the second for theta <= 1.5), so eps = 2
      is the worst case.  There, with sin(theta/2)/theta <= 1/2 and
      decreasing, the second bound caps the product at 0.622 on [0, 1.2]
      and at 0.619 on [1.2, 1.5]; on [1.5, pi] the first bound times
      sin(theta/2)/theta increases to its value at pi, (1/pi)(1 + 1) = 2/pi.
    - At theta = pi, R = 2 sum_{k>=0} (-1)^k (2k+1) e^{-pi^2 k(k+1)/eps},
      which tends to 2 as eps -> 0, so no smaller constant serves every
      eps.

    Each round draws PROPOSALS_PER_ROW proposals for every pending row,
    ``standard_normal((m, PROPOSALS_PER_ROW, 3))`` then
    ``random((m, PROPOSALS_PER_ROW, 2))`` (acceptance, then ball radius),
    and a row takes its first accepted proposal, so a seed gives the same
    rows on every run.  A row depends on the rows drawn with it.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all((eps > 0.0) & (eps < math.inf)):
        raise ValueError("eps must be positive and finite")
    out = np.empty((eps.size, 3))
    pending = np.arange(eps.size)
    while pending.size:
        m = pending.size
        z = rng.standard_normal((m, PROPOSALS_PER_ROW, 3)).reshape(-1, 3)
        u = rng.random((m, PROPOSALS_PER_ROW, 2)).reshape(-1, 2)
        e = np.repeat(eps[pending], PROPOSALS_PER_ROW)
        v = np.empty_like(z)
        accept = np.empty(e.size)
        ball = e > EPS_BALL
        if ball.any():
            zb = z[ball]
            radius = math.pi * np.cbrt(u[ball, 1])
            v[ball] = radius[:, None] * zb / np.linalg.norm(zb, axis=1, keepdims=True)
            accept[ball] = _accept_ball(v[ball], e[ball])
        gauss = ~ball
        if gauss.any():
            v[gauss] = np.sqrt(2.0 * e[gauss])[:, None] * z[gauss]
            accept[gauss] = _accept_gauss(v[gauss], e[gauss])
        hit = (u[:, 0] < accept).reshape(m, PROPOSALS_PER_ROW)
        done = hit.any(axis=1)
        out[pending[done]] = v.reshape(m, PROPOSALS_PER_ROW, 3)[done, np.argmax(hit[done], axis=1)]
        pending = pending[~done]
    return out


def igso3_sample_quats(params: IgParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n quaternions of IGSO(3)(eps) draws, ``quat_exp`` of ``igso3_sample_rotvecs``."""
    return quat_exp(igso3_sample_rotvecs(np.full(n, params.eps), rng))


def igso3_sample(params: IgParams, rng: np.random.Generator) -> Rotation:
    return Rotation(igso3_sample_quats(params, rng, 1)[0])


def score_ratio(theta: np.ndarray, params: IgParams) -> np.ndarray:
    """f'(theta)/f(theta), the small-angle slope below 1e-3 rad when eps < EPS_SERIES.

    Angles at or beyond THETA_MAX_SCORE = pi - 1e-6 are pulled back to
    that boundary, where the derivative vanishes smoothly.  The ratio of
    ``igso3_log_density_and_ratio``.
    """
    return igso3_log_density_and_ratio(np.minimum(np.asarray(theta, dtype=np.float64), math.pi), params)[1]


def igso3_score_batch(rotvec: np.ndarray, theta: np.ndarray, params: IgParams) -> np.ndarray:
    """(..., 3) Lie-derivative scores (f'(theta)/f(theta)) * axis of rotation vectors.

    ``theta`` holds the (...) angles |rotvec|, which callers have at hand.
    Angles are clamped as in ``score_ratio``; a zero rotation vector has
    a zero score.
    """
    axis = rotvec / np.where(theta < 1e-12, 1.0, theta)[..., None]
    return score_ratio(theta, params)[..., None] * axis


def igso3_score(r: Rotation, params: IgParams) -> np.ndarray:
    """Lie-derivative score (f'(theta)/f(theta)) * axis, as a 3-vector.

    A batch of one of ``igso3_score_batch``, so angles within 1e-6 of pi
    clamp as they do there.  Points back toward the identity since the
    density decreases in theta.
    """
    rotvec = quat_log(r.q)[None, :]
    return igso3_score_batch(rotvec, np.linalg.norm(rotvec, axis=-1), params)[0]
