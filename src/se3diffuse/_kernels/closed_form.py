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

_K = np.arange(1, K_IMAGES + 1, dtype=np.float64)
_SIGN = np.where(_K % 2.0 == 0.0, 1.0, -1.0)  # (-1)^k
_PK = math.pi * _K
_J = np.arange(K_IMAGES, dtype=np.float64)
_JSIGN = np.where(_J % 2.0 == 0.0, 1.0, -1.0)  # (-1)^j
_CJ = (2.0 * _J + 1.0) * math.pi


def _image_exp(x: np.ndarray) -> np.ndarray:
    """e^x for an image weight x <= 0, floored at e^-700.

    The floor is far below rounding against the k = 0 image and keeps
    exp out of its slow underflow path (about 13x slower to produce 0).
    """
    return np.exp(np.maximum(x, -700.0))


def _phi(x: np.ndarray) -> np.ndarray:
    """(1 - e^{-x}) / x for x >= 0, 1 at x = 0."""
    pos = x > 0.0
    return np.where(pos, -np.expm1(-x) / np.where(pos, x, 1.0), 1.0)


def _near_images(theta: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """theta[..., None], E_k, E_{-k} and (2 pi k / theta)(E_{-k} - E_k) for k = 1..K_IMAGES.

    The last is formed without dividing by theta, so it stays accurate
    down to theta = 0.
    """
    th = theta[..., None]
    ep = _image_exp(-_PK * (_PK + th) / eps)
    xm = -_PK * (_PK - th) / eps
    em = _image_exp(xm)
    # Where E_{-k} is floored the true lever is below 24 * 700 e^-700, but the
    # floor times the prefactor 4 pi^2 k^2 / eps is not below eps ~ 1e-290.
    lever = np.where(xm < -700.0, 0.0, (4.0 * _PK * _PK / eps) * em * _phi(2.0 * _PK * th / eps))
    return th, ep, em, lever


def _near_r(ep: np.ndarray, em: np.ndarray, lever: np.ndarray) -> np.ndarray:
    """R = S/theta, images k and -k paired.

    S = sum_k (-1)^k u_k E_k is the image sum with e^{-theta^2/(4 eps)}
    factored out.
    """
    return 1.0 + np.sum(_SIGN * (ep + em - lever), axis=-1)


def _far_sums(theta: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """S and S', images j and -1-j paired about theta = pi.

    With psi = pi - theta and c_j = (2j + 1) pi the pair's images are
    c_j - psi and -(c_j + psi); S' is then a sum of terms proportional to
    psi, accurate as theta -> pi where it vanishes.
    """
    th = theta[..., None]
    psi = (math.pi - th) + PI_LO
    a = _image_exp(-math.pi * _J * (th + math.pi * _J) / eps)  # E_j
    x = _CJ * psi / eps
    b = _image_exp(-x)  # E_{-1-j} / E_j
    s = np.sum(_JSIGN * a * ((th + 2.0 * math.pi * _J) + (_CJ + psi) * b), axis=-1)
    ds = np.sum(_JSIGN * a * (-(1.0 - (_CJ * _CJ + psi * psi) / (2.0 * eps)) * np.expm1(-x)
                              + x * (1.0 + b)), axis=-1)
    return s, ds


def _log_prefactor(eps: float) -> float:
    """log of e^{eps/4} sqrt(pi) / (2 eps^{3/2})."""
    return 0.25 * eps + 0.5 * math.log(math.pi) - math.log(2.0) - 1.5 * math.log(eps)


def closed_r(theta: np.ndarray, eps) -> np.ndarray:
    """R = S/theta at theta in [0, pi], with the k = 0 Gaussian factored out of S.

    eps is a scalar or, for a 1-D theta, a column of one value per angle.
    Below eps = 1e-300 R is taken at 1e-300: there every image k != 0 is
    below e^-700 except at theta = pi, where R = 2 at any eps, and the
    levers 4 pi^2 k^2 / eps would overflow.
    """
    return _near_r(*_near_images(np.asarray(theta, dtype=np.float64), np.maximum(eps, 1e-300))[1:])


def _over_sin(theta: np.ndarray) -> np.ndarray:
    """theta / sin(theta/2), 2 at theta = 0."""
    pos = theta > 0.0
    ts = np.where(pos, theta, 1.0)
    return np.where(pos, ts / np.sin(0.5 * ts), 2.0)


def closed_f(theta: np.ndarray, eps: float) -> np.ndarray:
    """Density at theta in [0, pi] from the image sum."""
    theta = np.asarray(theta, dtype=np.float64)
    r = closed_r(theta, eps)
    with np.errstate(over="ignore"):  # inf where it leaves the double range: e^-inf = 0
        gauss = theta * theta / (4.0 * eps)
    return np.exp(_log_prefactor(eps) - gauss) * _over_sin(theta) * r


def closed_log_f(theta: np.ndarray, eps: float) -> np.ndarray:
    """log of the density at theta in [0, pi], summed in log space.

    log(prefactor) - theta^2/(4 eps) + log(theta R / sin(theta/2)), finite
    where the density itself underflows (theta^2/(4 eps) above about 745),
    and -inf where theta^2/(4 eps) itself overflows.
    """
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore"):
        gauss = theta * theta / (4.0 * eps)
    return _log_prefactor(eps) - gauss + np.log(_over_sin(theta) * closed_r(theta, eps))


def _h(theta: np.ndarray) -> np.ndarray:
    """1/theta - cot(theta/2)/2 for theta in (0, pi], by its Taylor series below theta = 0.2."""
    x = 0.5 * theta
    x2 = x * x
    taylor = x2 * (1 / 3 + x2 * (1 / 45 + x2 * (2 / 945 + x2 * (1 / 4725 + x2 * (2 / 93555)))))
    small = x < 0.1
    xs = np.where(small, 1.0, x)
    return np.where(small, taylor, 1.0 - xs / np.tan(xs)) / theta


def closed_ratio(theta: np.ndarray, eps: float) -> np.ndarray:
    """f'/f at theta in (0, pi].

    Up to pi/2 this is D/(theta R) + 1/theta - cot(theta/2)/2, with
    D = S' - S/theta and S' = sum_k (-1)^k (1 - u_k^2/(2 eps)) E_k; pairing
    k with -k leaves no 1/theta in D.  Beyond pi/2 it is
    S'/S - tan(psi/2)/2, whose two terms both vanish at pi instead of
    cancelling there as 1/theta and -1/theta would.
    """
    theta = np.asarray(theta, dtype=np.float64)
    far = theta > 0.5 * math.pi
    th, ep, em, lever = _near_images(theta, eps)
    quad = ((th + 2.0 * _PK) ** 2 * ep + (th - 2.0 * _PK) ** 2 * em) / (2.0 * eps)
    d = -theta * theta / (2.0 * eps) + np.sum(_SIGN * (lever - quad), axis=-1)
    near_ratio = d / (theta * _near_r(ep, em, lever)) + _h(theta)
    s, ds = _far_sums(theta, eps)
    psi = (math.pi - theta) + PI_LO
    return np.where(far, ds / s - 0.5 * np.tan(0.5 * psi), near_ratio)


def closed_moment(eps: float) -> float:
    """c(eps) with f'/f -> -c(eps) theta as theta -> 0.

    From the theta^2 terms of D and the theta = 0 value of R:
    c = -D_2 / R_0 - 1/12, where 1/12 is the slope of 1/theta - cot(theta/2)/2.
    """
    a = _SIGN * _image_exp(-_PK * _PK / eps)
    p2 = _PK * _PK
    r0 = 1.0 + float(np.sum(a * (2.0 - 4.0 * p2 / eps)))
    d2 = -0.5 / eps + float(np.sum(a * (-(4.0 / 3.0) * p2 * p2 / eps**3 + 4.0 * p2 / eps**2 - 1.0 / eps)))
    return -d2 / r0 - 1.0 / 12.0
