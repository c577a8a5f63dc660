"""The rotational heat-kernel series, as a cosine series.

The character series sum_{l=0}^{lmax} (2l+1) e^{-eps l(l+1)} D_l(theta),
with the Dirichlet kernel D_l = sin((l+1/2)theta)/sin(theta/2)
= 1 + 2 sum_{m=1}^{l} cos(m theta), regroups into

    f(theta) = sum_{m=0}^{lmax} c_m cos(m theta),   c_m = (2 - [m=0]) sum_{l>=m} (2l+1) e^{-eps l(l+1)}

whose derivative -sum_m m c_m sin(m theta) needs no division by
sin(theta/2) or cos(theta) - 1 and so stays accurate at both ends of
[0, pi].  Above pi/2 both are evaluated at psi = pi - theta (with the low
part of pi restored), since sin(m theta) near m pi loses the relative
accuracy of the distance to pi.  Each row reduces over m on its own, so
an angle gets the same bits whatever the batch it comes in.
"""

from __future__ import annotations

import math

import numpy as np

PI_LO = 1.2246467991473532e-16  # pi - math.pi


def _coefficients(eps, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """m = 0..lmax and the cosine coefficients c_m, along the last axis.

    eps is a scalar or a column (n, 1) of one value per row, giving (n, lmax + 1)
    coefficients.
    """
    ls = np.arange(lmax + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # -inf above eps of about 2e306: e^-inf = 0
        a = (2.0 * ls + 1.0) * np.exp(-eps * ls * (ls + 1.0))
    c = 2.0 * np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
    c[..., 0] *= 0.5
    return ls, c


def _reflected(theta: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(far, x, (-1)^m): x = theta up to pi/2 and pi - theta beyond."""
    far = theta > 0.5 * math.pi
    x = np.where(far, (math.pi - theta) + PI_LO, theta)
    return far[..., None], x[..., None], np.where(m % 2.0 == 0.0, 1.0, -1.0)


def series_f(theta: np.ndarray, eps, lmax: int) -> np.ndarray:
    """Density series at theta in [0, pi].

    eps is a scalar or, for a 1-D theta, a column of one value per angle.
    """
    theta = np.asarray(theta, dtype=np.float64)
    m, c = _coefficients(eps, lmax)
    far, x, alt = _reflected(theta, m)
    return np.sum(np.where(far, c * alt, c) * np.cos(m * x), axis=-1)


def series_df(theta: np.ndarray, eps: float, lmax: int) -> np.ndarray:
    """Angle derivative of the density series at theta in [0, pi]."""
    theta = np.asarray(theta, dtype=np.float64)
    m, c = _coefficients(eps, lmax)
    far, x, alt = _reflected(theta, m)
    mc = m * c
    return np.sum(np.where(far, mc * alt, -mc) * np.sin(m * x), axis=-1)

