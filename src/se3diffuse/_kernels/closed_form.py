"""Poisson resummation of the rotational heat-kernel series, for small eps.

With n = 2l + 1, e^{-eps l(l+1)} = e^{eps/4} e^{-eps n^2/4}, and Poisson
summation over odd n turns the character series into a sum over the
images u_k = theta + 2 pi k of a Gaussian on the real line:

    f(theta; eps) = e^{eps/4} sqrt(pi) / (2 eps^{3/2} sin(theta/2))
                    * sum_k (-1)^k u_k e^{-u_k^2 / (4 eps)}

(Nikolayev & Savyolova 1997, in the e^{-eps l(l+1)} convention of this
package).  Only |k| <= K_IMAGES matter below eps ~ 1: the first image left
out is below e^{-(2 K_IMAGES + 1)^2 pi^2 / (4 eps)} of the ones kept.

Every sum is evaluated with e^{-theta^2/(4 eps)} factored out, so the
k != 0 images enter as E_k = e^{-pi k (theta + pi k) / eps} <= 1 and the
score stays finite where the density itself underflows.  Images are
paired so that nothing cancels at the two ends of [0, pi]: k with -k
near theta = 0, and k with -1-k near theta = pi.
"""

from __future__ import annotations

import math

import numpy as np

from .series import PI_LO

K_IMAGES = 3
EPS_FLOOR = 1e-300

# Image constants are columns: an image sum over M angles is a (K_IMAGES, M)
# array, summed over its first axis; _PM stacks the images k and -k on a leading axis.
_K = np.arange(1, K_IMAGES + 1, dtype=np.float64)[:, None]
_SIGN = np.where(_K % 2.0 == 0.0, 1.0, -1.0)  # (-1)^k
_PK = math.pi * _K
_NEG_PK = -_PK
_PM = np.array([1.0, -1.0])[:, None, None]
_TWO_PK = _PM * (2.0 * _PK)  # 2 pi k and -2 pi k
_LEVER = 4.0 * _PK * _PK
_J = np.arange(K_IMAGES, dtype=np.float64)[:, None]
_JSIGN = np.where(_J % 2.0 == 0.0, 1.0, -1.0)  # (-1)^j
_CJ = (2.0 * _J + 1.0) * math.pi


def _image_exp(x: np.ndarray) -> np.ndarray:
    """e^x in place for an image weight x <= 0, floored at e^-700.

    The floor is far below rounding against the k = 0 image and keeps
    exp out of its slow underflow path (about 13x slower to produce 0).
    """
    return np.exp(np.maximum(x, -700.0, out=x), out=x)


def _phi(nx: np.ndarray) -> np.ndarray:
    """(1 - e^{-x}) / x for x >= 0, 1 at x = 0, from nx = -x; the first row is the greatest."""
    neg = None if np.fmax.reduce(nx[0], initial=-1.0) < 0.0 else nx < 0.0  # a mask only if some x is 0
    return np.expm1(nx) / nx if neg is None else np.where(neg, np.expm1(nx) / np.where(neg, nx, -1.0), 1.0)


def _near_images(theta: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray]:
    """E_k over E_{-k}, one (2, K_IMAGES, M) stack, and (2 pi k / theta)(E_{-k} - E_k), k = 1..K_IMAGES, at theta.

    The last is formed without dividing by theta, so it stays accurate
    down to theta = 0.
    """
    x = _NEG_PK * (_PK + _PM * theta) / eps
    floored = x[1] < -700.0
    e = _image_exp(x)
    # Where E_{-k} is floored the true lever is below 24 * 700 e^-700, but the
    # floor times the prefactor 4 pi^2 k^2 / eps is not below eps ~ 1e-290.
    return e, np.where(floored, 0.0, (_LEVER / eps) * e[1] * _phi(_TWO_PK[1] * theta / eps))


def _near_r(e: np.ndarray, lever: np.ndarray) -> np.ndarray:
    """R = S/theta, images k and -k paired.

    S = sum_k (-1)^k u_k E_k is the image sum with e^{-theta^2/(4 eps)}
    factored out.
    """
    return 1.0 + np.add.reduce(_SIGN * (e[0] + e[1] - lever), axis=0)


def _far_sums(th: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """S and S' at 1-D theta, images j and -1-j paired about theta = pi.

    With psi = pi - theta and c_j = (2j + 1) pi the pair's images are
    c_j - psi and -(c_j + psi); S' is then a sum of terms proportional to
    psi, accurate as theta -> pi where it vanishes.
    """
    psi = (math.pi - th) + PI_LO
    a = _image_exp(-math.pi * _J * (th + math.pi * _J) / eps)  # E_j
    x = _CJ * psi / eps
    b = _image_exp(-x)  # E_{-1-j} / E_j
    s = np.add.reduce(_JSIGN * a * ((th + 2.0 * math.pi * _J) + (_CJ + psi) * b), axis=0)
    ds = np.add.reduce(_JSIGN * a * (-(1.0 - (_CJ * _CJ + psi * psi) / (2.0 * eps)) * np.expm1(-x)
                                     + x * (1.0 + b)), axis=0)
    return s, ds


def _log_prefactor(eps: float) -> float:
    """log of e^{eps/4} sqrt(pi) / (2 eps^{3/2})."""
    return 0.25 * eps + 0.5 * math.log(math.pi) - math.log(2.0) - 1.5 * math.log(eps)


def closed_r(theta: np.ndarray, eps) -> np.ndarray:
    """R = S/theta at theta in [0, pi], with the k = 0 Gaussian factored out of S.

    eps is a scalar or, for a 1-D theta, one value per angle.  Below
    eps = EPS_FLOOR R is taken at EPS_FLOOR: there every image k != 0 is
    below e^-700 except at theta = pi, where R = 2 at any eps, and the
    levers 4 pi^2 k^2 / eps would overflow.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return _near_r(*_near_images(theta.reshape(-1), np.maximum(eps, EPS_FLOOR))).reshape(theta.shape)


def _over_sin(theta: np.ndarray, lo: float) -> np.ndarray:
    """theta / sin(theta/2), 2 up to 1e-8: there sin(theta/2) rounds to theta/2, or, subnormal, to 0."""
    pos = None if lo > 1e-8 else theta > 1e-8  # lo is the least theta
    ts = theta if pos is None else np.where(pos, theta, 1.0)
    return ts / np.sin(0.5 * ts) if pos is None else np.where(pos, ts / np.sin(0.5 * ts), 2.0)


def _h(theta: np.ndarray, lo: float) -> np.ndarray:
    """1/theta - cot(theta/2)/2 for theta in (0, pi], by its Taylor series below theta = 0.2."""
    x = 0.5 * theta
    y = 1.0 - x / np.tan(x)
    if 0.5 * lo < 0.1:  # lo is the least theta
        x2 = x * x
        np.copyto(y, x2 * (1 / 3 + x2 * (1 / 45 + x2 * (2 / 945 + x2 * (1 / 4725 + x2 * (2 / 93555))))),
                  where=x < 0.1)
    return y / theta


def closed_log_f_ratio(theta: np.ndarray, eps: float, theta_small: float,
                       theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """log f at 1-D theta in [0, pi] and f'/f at min(theta, theta_max), from one image pass.

    log f is summed in log space, log(prefactor) - theta^2/(4 eps)
    + log(theta R / sin(theta/2)): finite where the density itself
    underflows (theta^2/(4 eps) above about 745), and -inf where
    theta^2/(4 eps) itself overflows.

    f'/f is the small-angle slope -c(eps) theta below theta_small
    (``closed_moment``).  Up to pi/2 it is D/(theta R) + 1/theta
    - cot(theta/2)/2, with D = S' - S/theta and
    S' = sum_k (-1)^k (1 - u_k^2/(2 eps)) E_k, from the images of log f;
    pairing k with -k leaves no 1/theta in D.  Beyond pi/2, where alone the
    far image sums are evaluated, it is S'/S - tan(psi/2)/2, whose two
    terms both vanish at pi instead of cancelling there as 1/theta and
    -1/theta would.  Below EPS_FLOOR, where every image but k = 0 is below
    e^-700 of it on [theta_small, theta_max] and the far sums' 1/eps
    factors would overflow, it is the k = 0 image's -theta/(2 eps) + 1/theta
    - cot(theta/2)/2.  A branch's mask is formed only if the least (or greatest) angle says an angle needs it.
    """
    theta = np.asarray(theta, dtype=np.float64)
    lo = float(np.fmin.reduce(theta, initial=math.inf))  # a NaN angle is NaN on every branch
    e, lever = _near_images(theta, max(eps, EPS_FLOOR))
    r = _near_r(e, lever)
    with np.errstate(over="ignore"):
        gauss = theta * theta / (4.0 * eps)
    log_f = _log_prefactor(eps) - gauss + np.log(_over_sin(theta, lo) * r)
    small = theta < theta_small if lo < theta_small else None
    ts = theta if small is None else np.where(small, 1.0, theta)
    if eps < EPS_FLOOR:
        tc = np.minimum(ts, theta_max)
        ratio = -tc / (2.0 * eps) + _h(tc, lo)
    else:
        quad = np.add.reduce(np.square(theta + _TWO_PK) * e, axis=0) / (2.0 * eps)
        d = -theta * theta / (2.0 * eps) + np.add.reduce(_SIGN * (lever - quad), axis=0)
        ratio = d / (ts * r) + _h(ts, lo)
        if np.fmax.reduce(theta, initial=0.0) > 0.5 * math.pi:
            far = theta > 0.5 * math.pi
            tf = np.minimum(theta[far], theta_max)
            s, ds = _far_sums(tf, eps)
            ratio[far] = ds / s - 0.5 * np.tan(0.5 * ((math.pi - tf) + PI_LO))
    if small is not None:
        ratio = np.where(small, -closed_moment(eps) * theta, ratio)
    return log_f, ratio


def closed_moment(eps: float) -> float:
    """c(eps) with f'/f -> -c(eps) theta as theta -> 0.

    From the theta^2 terms of D and the theta = 0 value of R:
    c = -D_2 / R_0 - 1/12, where 1/12 is the slope of 1/theta - cot(theta/2)/2.
    Images below e^-700 are left out: they are far below rounding against
    the k = 0 terms, and their eps^-3 factors overflow at tiny eps.
    """
    keep = _PK[:, 0] * _PK[:, 0] <= 700.0 * eps
    p2 = _PK[keep, 0] * _PK[keep, 0]
    a = _SIGN[keep, 0] * np.exp(-p2 / eps)
    r0 = 1.0 + float(np.sum(a * (2.0 - 4.0 * p2 / eps)))
    d2 = -0.5 / eps + float(np.sum(a * (-(4.0 / 3.0) * p2 * p2 / eps**3 + 4.0 * p2 / eps**2 - 1.0 / eps)))
    return -d2 / r0 - 1.0 / 12.0
