import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3diffuse import _kernels
from se3diffuse.igso3 import (
    EPS_SERIES,
    SERIES_LMAX,
    THETA_SMALL_DENSITY,
    THETA_SMALL_SCORE,
    IgParams,
    angle_cdf_quadrature,
    angle_pdf,
    igso3_density,
    igso3_sample,
    igso3_sample_quats,
    igso3_score,
    igso3_score_batch,
    score_ratio,
)
from se3diffuse.lie import exp_so3, log_so3, quat_angle, quat_log, random_rotation


def series_limit_at_zero(eps, lmax=60):
    ls = np.arange(lmax + 1)
    return float(np.sum((2 * ls + 1) ** 2 * np.exp(-eps * ls * (ls + 1))))


def ks_statistic(sorted_samples, cdf_values):
    n = sorted_samples.size
    return float(np.max(np.maximum(np.arange(1, n + 1) / n - cdf_values,
                                   cdf_values - np.arange(n) / n)))


def test_params_validation():
    with pytest.raises(ValueError):
        IgParams(eps=0.0)


def test_density_uniform_limit():
    params = IgParams(eps=10.0)
    for theta in (0.3, 1.5, 3.0):
        assert abs(igso3_density(theta, params) - 1.0) < 1e-7


def test_density_zero_angle_limit():
    # frozen from the independent oracle: sum (2l+1)^2 exp(-0.5 l (l+1))
    expected = series_limit_at_zero(0.5)
    assert abs(expected - 5.680765073188685) < 1e-12
    assert abs(igso3_density(0.0, IgParams(eps=0.5)) - expected) < 1e-10
    assert abs(igso3_density(5e-5, IgParams(eps=0.5)) - expected) < 1e-10


def test_density_domain_errors():
    params = IgParams(eps=0.5)
    with pytest.raises(ValueError):
        igso3_density(-0.1, params)
    with pytest.raises(ValueError):
        igso3_density(math.pi + 0.1, params)


def test_angle_marginal_normalization():
    for eps in (0.05, 0.5, 2.0):
        grid = np.linspace(0.0, math.pi, 10001)
        total = np.trapezoid(angle_pdf(grid, IgParams(eps=eps)), grid)
        assert abs(total - 1.0) < 1e-5


def test_density_is_class_function_of_angle(rng):
    # density depends on the conjugation-invariant angle only
    params = IgParams(eps=0.3)
    for _ in range(20):
        r = random_rotation(rng)
        q = random_rotation(rng)
        conj = q.compose(r).compose(q.inverse())
        assert abs(igso3_density(r.angle, params) - igso3_density(conj.angle, params)) < 1e-9


def test_closed_form_and_series_agree_at_eps_series():
    # the regimes meet at EPS_SERIES; measured 3.2e-15 (density) and 3.6e-15 (f'/f)
    thetas = np.linspace(0.05, math.pi, 64)
    f_series = _kernels.series_f(thetas, EPS_SERIES, SERIES_LMAX)
    ratio_series = _kernels.series_df(thetas, EPS_SERIES, SERIES_LMAX) / f_series
    assert np.max(np.abs(_kernels.closed_f(thetas, EPS_SERIES) / f_series - 1.0)) < 1e-12
    assert np.max(np.abs(_kernels.closed_ratio(thetas, EPS_SERIES) / ratio_series - 1.0)) < 1e-12


def test_series_truncation_bound_at_eps_series():
    # |sin((l+1/2) theta) / sin(theta/2)| <= 2l+1, so the terms past SERIES_LMAX
    # change the density by at most their (2l+1)^2 e^{-eps l(l+1)} sum, which
    # only shrinks as eps grows above EPS_SERIES
    ls = np.arange(SERIES_LMAX + 1, 60, dtype=np.float64)
    terms = (2.0 * ls + 1.0) ** 2 * np.exp(-EPS_SERIES * ls * (ls + 1.0))
    assert terms[0] < 1e-15
    f_min = np.min(igso3_density(np.linspace(0.0, math.pi, 2001), IgParams(eps=EPS_SERIES)))
    assert np.sum(terms) < 1e-15 * f_min


def test_lmax_autoraise_for_tiny_eps():
    # the series would need hundreds of terms here; the closed form needs none
    params = IgParams(eps=1e-4)
    val = igso3_density(0.05, params)
    assert np.isfinite(val) and val > 0.0


def test_sampling_concentrates_for_tiny_eps():
    quats = igso3_sample_quats(IgParams(eps=1e-4), np.random.default_rng(0), 20000)
    angles = quat_angle(quats)
    assert np.quantile(angles, 0.99) < 0.1


def test_sampling_uniform_limit_matches_haar():
    quats = igso3_sample_quats(IgParams(eps=10.0), np.random.default_rng(1), 100_000)
    angles = np.sort(quat_angle(quats))
    haar_cdf = (angles - np.sin(angles)) / math.pi
    assert ks_statistic(angles, haar_cdf) < 0.01


def test_sampling_matches_quadrature_cdf():
    params = IgParams(eps=0.5)
    quats = igso3_sample_quats(params, np.random.default_rng(2), 100_000)
    angles = np.sort(quat_angle(quats))
    grid, cdf = angle_cdf_quadrature(params)
    assert ks_statistic(angles, np.interp(angles, grid, cdf)) < 0.01


def test_sample_scalar_deterministic():
    a = igso3_sample(IgParams(eps=0.5), np.random.default_rng(7))
    b = igso3_sample(IgParams(eps=0.5), np.random.default_rng(7))
    assert np.array_equal(a.q, b.q)


def test_score_zero_at_identity():
    from se3diffuse.lie import Rotation

    s = igso3_score(Rotation.identity(), IgParams(eps=0.5))
    assert np.allclose(s, 0.0)


def test_score_matches_finite_differences(rng):
    params = IgParams(eps=0.5)
    checked = 0
    while checked < 50:
        r = random_rotation(rng)
        if not (0.15 < r.angle < 2.9):
            continue
        s = igso3_score(r, params)
        fd = np.empty(3)
        d = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = d
            fp = math.log(igso3_density(r.compose(exp_so3(e)).angle, params))
            fm = math.log(igso3_density(r.compose(exp_so3(-e)).angle, params))
            fd[i] = (fp - fm) / (2.0 * d)
        assert np.linalg.norm(s - fd) / np.linalg.norm(fd) < 1e-4
        checked += 1


def test_score_points_back_toward_identity(rng):
    params = IgParams(eps=0.5)
    for _ in range(30):
        r = random_rotation(rng)
        if not (0.1 < r.angle < 2.9):
            continue
        s = igso3_score(r, params)
        w = log_so3(r)
        cos = np.dot(s, -w) / (np.linalg.norm(s) * np.linalg.norm(w))
        assert abs(cos - 1.0) < 1e-8


def test_score_norm_depends_only_on_angle(rng):
    params = IgParams(eps=0.4)
    theta = 1.2
    norms = []
    for _ in range(20):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        norms.append(np.linalg.norm(igso3_score(exp_so3(theta * axis), params)))
    assert np.max(norms) - np.min(norms) < 1e-9


def test_score_rejects_angle_near_pi():
    params = IgParams(eps=0.5)
    r = exp_so3((math.pi - 1e-9) * np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="pi"):
        igso3_score(r, params)


# ---------------------------------------------------------------------------
# Accuracy against a direct sum of the series in mpmath
# ---------------------------------------------------------------------------

def mp_series(theta, eps):
    """(f, f'/f) at theta > 0 by direct summation of the series in mpmath.

    The series' terms are up to e^{theta^2/(4 eps)} times larger than its
    sum, so precision and truncation order grow with theta^2/(4 eps).
    """
    decay = theta * theta / (4.0 * eps)
    dps = 30 + int(decay / math.log(10.0))
    lmax = int(math.sqrt((decay + 60.0 + 2.31 * dps) / eps)) + 10
    with mpmath.workdps(dps):
        th, e = mpmath.mpf(theta), mpmath.mpf(eps)
        sin_half, cos_half = mpmath.sin(th / 2), mpmath.cos(th / 2)
        s = ds = mpmath.mpf(0)
        for l in range(lmax + 1):
            w = (2 * l + 1) * mpmath.exp(-e * l * (l + 1))
            a = l + mpmath.mpf(1) / 2
            s += w * mpmath.sin(a * th)
            ds += w * (a * mpmath.cos(a * th) * sin_half - mpmath.sin(a * th) * cos_half / 2)
        return float(s / sin_half), float(ds / (s * sin_half))


# eps on both sides of the regime switch at EPS_SERIES = 0.5, and at it
ACCURACY_EPS = (1e-4, 0.005, 0.1, 0.49, 0.5, 1.0, 3.0)
ACCURACY_THETAS = (1e-7, 1e-4, 1e-3, 0.05, 0.3, 1.0, 1.35, 2.0, 3.1, math.pi - 1e-6, math.pi)


def test_density_matches_mpmath_series():
    """Relative 1e-12 wherever the true density exceeds 1e-300.

    The series regime returns its theta = 0 value below
    THETA_SMALL_DENSITY; there the bound is the documented c(eps) theta^2/2.
    """
    for eps in ACCURACY_EPS:
        params = IgParams(eps=eps)
        for theta in ACCURACY_THETAS:
            if theta * theta / (4.0 * eps) > 720.0:  # true density below 1e-300
                continue
            true, _ = mp_series(theta, eps)
            if true < 1e-300:
                continue
            rel = abs(igso3_density(theta, params) / true - 1.0)
            if eps >= EPS_SERIES and theta < THETA_SMALL_DENSITY:
                assert rel < 1e-8, (eps, theta, rel)
            else:
                assert rel < 1e-12, (eps, theta, rel)


def test_density_far_tail_is_the_true_value():
    # the direct sum of the series returned cancellation noise here
    true, _ = mp_series(1.35, 0.005)
    assert 1e-36 < true < 2e-36
    assert abs(igso3_density(1.35, IgParams(eps=0.005)) / true - 1.0) < 1e-12


def mp_images(theta, eps, k_max=10):
    """f'/f from the Poisson-resummed image sum in mpmath.

    f is proportional to sum_k (-1)^k u_k e^{-u_k^2/(4 eps)} / sin(theta/2)
    with u_k = theta + 2 pi k; mpmath's exponent range keeps every image
    where a double would underflow.
    """
    with mpmath.workdps(60):
        th, e = mpmath.mpf(theta), mpmath.mpf(eps)
        s = ds = mpmath.mpf(0)
        for k in range(-k_max, k_max + 1):
            u = th + 2 * mpmath.pi * k
            g = (-1) ** k * mpmath.exp(-u * u / (4 * e))
            s += u * g
            ds += (1 - u * u / (2 * e)) * g
        return float(ds / s - mpmath.cot(th / 2) / 2)


def test_score_ratio_matches_mpmath_series():
    """Relative 1e-12 on [1e-3, pi - 1e-6].

    Where the density is above 1e-300 the oracle is the direct series sum;
    further out the series would need thousands of digits, and the image
    sum, which the series equals, is the oracle.
    """
    thetas = np.array([1e-3, 0.01, 0.3, 1.0, 1.5, 2.0, 3.1, math.pi - 1e-5, math.pi - 1e-6])
    for eps in ACCURACY_EPS:
        ratio = score_ratio(thetas, IgParams(eps=eps))
        assert np.all(np.isfinite(ratio))
        for theta, r in zip(thetas, ratio):
            theta = float(theta)
            if theta * theta / (4.0 * eps) <= 720.0:
                _, true = mp_series(theta, eps)
            else:
                true = mp_images(theta, eps)
            assert abs(r / true - 1.0) < 1e-12, (eps, theta, r, true)


def test_image_sum_oracle_matches_series_oracle():
    for eps, theta in ((0.005, 3.1), (0.1, 2.0), (1e-4, 0.3), (1.0, 1.0)):
        assert abs(mp_images(theta, eps) / mp_series(theta, eps)[1] - 1.0) < 1e-13


def test_score_ratio_finite_where_density_underflows():
    ratio = score_ratio(np.array([3.1]), IgParams(eps=0.005))[0]
    assert np.isfinite(ratio) and ratio < 0.0


def test_small_angle_slope_matches_mpmath_series():
    for eps in ACCURACY_EPS:
        theta = 1e-7
        _, true = mp_series(theta, eps)
        got = score_ratio(np.array([theta]), IgParams(eps=eps))[0]
        assert abs(got / true - 1.0) < 1e-10, (eps, got, true)


def test_density_batch_of_one_is_bitwise_its_row():
    thetas = np.linspace(0.0, math.pi, 37)
    for eps in (0.005, 0.5, 2.0):
        params = IgParams(eps=eps)
        batch = igso3_density(thetas, params)
        ratio = score_ratio(thetas, params)
        for i, theta in enumerate(thetas):
            assert igso3_density(np.array([theta]), params)[0] == batch[i]
            assert score_ratio(np.array([theta]), params)[0] == ratio[i]


def test_score_is_bitwise_a_row_of_the_batch(rng):
    rots = [random_rotation(rng) for _ in range(20)]
    rots += [exp_so3(theta * np.array([0.6, 0.0, 0.8])) for theta in (0.0, 1e-5, 2e-3, math.pi - 2e-6)]
    rotvecs = np.stack([quat_log(r.q) for r in rots])
    for eps in (0.005, 0.3, EPS_SERIES, 2.0):
        params = IgParams(eps=eps)
        batch = igso3_score_batch(rotvecs, params)
        for i, r in enumerate(rots):
            assert np.array_equal(igso3_score(r, params), batch[i])


def test_score_batch_clamps_where_the_scalar_call_raises():
    rotvec = (math.pi - 1e-7) * np.array([[0.0, 0.6, 0.8]])
    params = IgParams(eps=0.5)
    near = igso3_score_batch(rotvec, params)[0]
    edge = igso3_score_batch(rotvec / np.linalg.norm(rotvec) * (math.pi - 1e-6), params)[0]
    assert np.all(np.isfinite(near))
    assert np.allclose(near, edge, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="pi"):
        igso3_score(exp_so3(rotvec[0]), params)


@settings(max_examples=60, deadline=None)
@given(log_eps=st.floats(math.log(1e-5), math.log(5.0)), u=st.floats(0.05, 4.0))
def test_score_ratio_matches_log_density_finite_differences(log_eps, u):
    eps = math.exp(log_eps)
    theta = min(max(u * math.sqrt(2.0 * eps), 2.0 * THETA_SMALL_SCORE), math.pi - 1e-3)
    params = IgParams(eps=eps)
    h = 1e-5 * min(theta, math.sqrt(eps))
    fd = (math.log(igso3_density(theta + h, params))
          - math.log(igso3_density(theta - h, params))) / (2.0 * h)
    r = float(score_ratio(np.array([theta]), params)[0])
    assert abs(r - fd) <= 1e-6 * abs(fd) + 1e-9, (eps, theta, r, fd)
