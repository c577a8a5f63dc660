import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3diffuse import _kernels, igso3
from se3diffuse._kernels.series import PI_LO
from se3diffuse.igso3 import (
    EPS_BALL,
    EPS_SERIES,
    SERIES_LMAX,
    THETA_MAX_SCORE,
    THETA_SMALL_SCORE,
    IgParams,
    angle_cdf_quadrature,
    angle_pdf,
    igso3_density,
    igso3_log_density,
    igso3_log_density_and_ratio,
    igso3_sample,
    igso3_sample_quats,
    igso3_sample_rotvecs,
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
    log_f, ratio = _kernels.closed_log_f_ratio(thetas, EPS_SERIES, 0.0, math.pi)
    assert np.max(np.abs(np.exp(log_f) / f_series - 1.0)) < 1e-12
    assert np.max(np.abs(ratio / ratio_series - 1.0)) < 1e-12


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


# alpha = 0.01 critical value of the one-sample KS statistic at KS_DRAWS draws
KS_DRAWS = 50_000
KS_CRIT = 1.628 / math.sqrt(KS_DRAWS)


def sampler_ks(eps, seed):
    """KS statistic of KS_DRAWS sampled angles against the quadrature CDF."""
    rotvecs = igso3_sample_rotvecs(np.full(KS_DRAWS, eps), np.random.default_rng(seed))
    angles = np.sort(np.linalg.norm(rotvecs, axis=1))
    grid, cdf = angle_cdf_quadrature(IgParams(eps=eps))
    return ks_statistic(angles, np.interp(angles, grid, cdf))


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3, 1.0, EPS_BALL, 2.5, 10.0])
def test_rejection_sampler_matches_quadrature_cdf(eps):
    assert sampler_ks(eps, seed=3) < KS_CRIT


def test_rejection_sampler_with_a_shrunk_envelope_fails_the_ks_check(monkeypatch):
    # with M 20% below its bound the acceptance ratio exceeds 1 near theta = 0
    # and theta = pi, which the KS check must see
    monkeypatch.setattr(igso3, "ENVELOPE", 0.8 * igso3.ENVELOPE)
    assert max(sampler_ks(eps, seed=3) for eps in (1.0, EPS_BALL)) > KS_CRIT


@pytest.mark.parametrize("t", [1e-16, 1e-20, 1e-300])
def test_rejection_sampler_tiny_time_angles_are_chi3(t):
    # at eps = t/2 the rotation vector is N(0, 2 eps I), so angle / sqrt(2 eps) ~ chi(3)
    from scipy import stats

    eps = 0.5 * t
    rotvecs = igso3_sample_rotvecs(np.full(KS_DRAWS, eps), np.random.default_rng(5))
    angles = np.linalg.norm(rotvecs, axis=1) / math.sqrt(2.0 * eps)
    assert np.all(angles > 0.0)
    assert stats.kstest(angles, stats.chi(3).cdf).statistic < KS_CRIT
    assert np.all(quat_angle(igso3_sample_quats(IgParams(eps=eps), np.random.default_rng(5), 100)) > 0.0)


def test_rejection_sampler_rows_follow_their_own_eps():
    eps = np.where(np.arange(2 * KS_DRAWS) % 2 == 0, 0.3, 5.0)
    angles = np.linalg.norm(igso3_sample_rotvecs(eps, np.random.default_rng(8)), axis=1)
    for value in (0.3, 5.0):
        a = np.sort(angles[eps == value])
        grid, cdf = angle_cdf_quadrature(IgParams(eps=value))
        assert ks_statistic(a, np.interp(a, grid, cdf)) < KS_CRIT


def test_rejection_sampler_envelope_bounds_the_target():
    """target <= M proposal on a dense grid, as Lebesgue densities of the rotation vector.

    The target is f(theta) sin^2(theta/2) / (2 pi^2 theta^2) on the ball of
    radius pi.  For eps <= EPS_BALL the proposal is N(0, 2 eps I) and
    M = 2 e^{eps/4} ENVELOPE; above, it is uniform on the ball and
    M = (pi^2/6) f(0).  Compared in log space, where nothing underflows.
    """
    rng = np.random.default_rng(0)
    theta = np.concatenate([[1e-6], np.linspace(1e-3, math.pi, 20000)])
    log_shape = 2.0 * np.log(np.sin(0.5 * theta) / theta) - math.log(2.0 * math.pi**2)
    for eps in np.exp(rng.uniform(math.log(0.01), math.log(EPS_BALL), 30)):
        log_target = np.log(igso3_density(theta, IgParams(eps=eps))) + log_shape
        log_proposal = -1.5 * math.log(4.0 * math.pi * eps) - theta**2 / (4.0 * eps)
        log_m = math.log(2.0 * igso3.ENVELOPE) + 0.25 * eps
        assert np.all(log_target - log_proposal <= log_m + 1e-12), eps
    for eps in np.exp(rng.uniform(math.log(EPS_BALL), math.log(50.0), 30)):
        params = IgParams(eps=eps)
        log_target = np.log(igso3_density(theta, params)) + log_shape
        log_proposal = math.log(3.0 / (4.0 * math.pi**4))
        log_m = math.log(math.pi**2 / 6.0 * igso3_density(0.0, params))
        assert np.all(log_target - log_proposal <= log_m + 1e-12), eps


def test_rejection_sampler_is_deterministic_and_draws_nothing_for_no_rows():
    # subnormal eps too: the image levers 4 pi^2 k^2 / eps would overflow there
    eps = np.concatenate([[5e-324, 1e-310], np.geomspace(1e-6, 20.0, 33)])
    a = igso3_sample_rotvecs(eps, np.random.default_rng(4))
    assert np.array_equal(a, igso3_sample_rotvecs(eps, np.random.default_rng(4)))
    assert np.all(np.isfinite(a)) and np.all(np.linalg.norm(a, axis=1) <= math.pi)
    rng = np.random.default_rng(4)
    assert igso3_sample_rotvecs(np.empty(0), rng).shape == (0, 3)
    assert rng.random() == np.random.default_rng(4).random()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            igso3_sample_rotvecs(np.array([0.5, bad]), rng)


def test_series_coefficients_broadcast_over_an_eps_column():
    theta = np.linspace(0.0, math.pi, 41)
    eps = np.geomspace(EPS_SERIES, 40.0, 41)
    col = _kernels.series_f(theta, eps[:, None], SERIES_LMAX)
    for i in range(theta.size):
        assert col[i] == _kernels.series_f(theta[i:i + 1], eps[i], SERIES_LMAX)[0]


def test_angle_pdf_is_positive_at_tiny_angles():
    # 1 - cos theta is exactly 0 below theta ~ 1e-8; 2 sin^2(theta/2) is not
    params = IgParams(eps=1e-17)
    theta = np.array([1e-9, 3e-9, 1e-8])
    assert np.all(angle_pdf(theta, params) > 0.0)


def test_quadrature_cdf_is_cached_and_read_only():
    grid, cdf = angle_cdf_quadrature(IgParams(eps=0.7))
    again = angle_cdf_quadrature(IgParams(eps=0.7))
    assert again[0] is grid and again[1] is cdf
    assert cdf[0] == 0.0 and cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    with pytest.raises(ValueError):
        cdf[0] = 1.0


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


# ---------------------------------------------------------------------------
# Accuracy against a direct sum of the series in mpmath
# ---------------------------------------------------------------------------

def mp_series(theta, eps, log=False):
    """(f, f'/f) at theta > 0 by direct summation of the series in mpmath.

    The series' terms are up to e^{theta^2/(4 eps)} times larger than its
    sum, so precision and truncation order grow with theta^2/(4 eps).
    With ``log`` the first entry is log f, which a double holds where f
    underflows.
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
        f = s / sin_half
        return float(mpmath.log(f) if log else f), float(ds / (s * sin_half))


# eps on both sides of the regime switch at EPS_SERIES = 0.5, and at it
ACCURACY_EPS = (1e-4, 0.005, 0.1, 0.49, 0.5, 1.0, 3.0)
ACCURACY_THETAS = (1e-7, 5e-5, 9e-5, 1e-4, 1e-3, 0.05, 0.3, 1.0, 1.35, 2.0, 3.1, math.pi - 1e-6, math.pi)


def test_density_matches_mpmath_series():
    """Relative 1e-12 wherever the true density exceeds 1e-300, small angles included."""
    for eps in ACCURACY_EPS:
        params = IgParams(eps=eps)
        for theta in ACCURACY_THETAS:
            if theta * theta / (4.0 * eps) > 720.0:  # true density below 1e-300
                continue
            true, _ = mp_series(theta, eps)
            if true < 1e-300:
                continue
            rel = abs(igso3_density(theta, params) / true - 1.0)
            assert rel < 1e-12, (eps, theta, rel)


def test_density_far_tail_is_the_true_value():
    # the direct sum of the series returned cancellation noise here
    true, _ = mp_series(1.35, 0.005)
    assert 1e-36 < true < 2e-36
    assert abs(igso3_density(1.35, IgParams(eps=0.005)) / true - 1.0) < 1e-12


@pytest.mark.parametrize("eps, theta", [
    (0.0025, 2.8), (0.001, 2.0), (0.002, 3.1), (1e-4, 0.6),  # f below the double range
    (0.005, 1.35), (0.1, 2.0), (0.49, math.pi), (0.5, 3.0), (3.0, 1.0), (0.01, 1e-7)])
def test_log_density_matches_mpmath_series(eps, theta):
    """log f to 1e-13 relative (or 1e-13 absolute near log f = 0), also where f underflows."""
    true, _ = mp_series(theta, eps, log=True)
    got = igso3_log_density(theta, IgParams(eps=eps))
    assert abs(got - true) < 1e-13 * max(1.0, abs(true)), (got, true)
    if eps == 0.0025:
        assert abs(true + 774.09) < 0.005  # the value a floor at -745 replaced


@pytest.mark.parametrize("eps", [1e-290, 1e-295, 1e-300, 1e-305, 1e-308])
def test_image_sum_is_one_at_small_angles_down_to_eps_1e_308(eps):
    """R, the image sum over its k = 0 Gaussian, is 1 to rounding at theta <= 1e-3.

    The k != 0 images are below e^-700 there; their floor times the lever
    prefactor 4 pi^2 k^2 / eps, up to 4e302 at eps = 1e-300, must not leak in.
    """
    r = _kernels.closed_r(np.array([0.0, eps, 1e-3]), eps)
    assert np.all(np.abs(r - 1.0) <= 2.3e-16), r
    assert abs(_kernels.closed_r(np.array([math.pi]), eps)[0] - 2.0) <= 4.5e-16


def test_log_density_is_minus_inf_where_its_exponent_overflows():
    # theta^2 / (4 eps) = 2.47e308 at theta = pi: the true log density is beyond the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert igso3_log_density(math.pi, IgParams(eps=1e-308)) == -math.inf
        assert igso3_density(math.pi, IgParams(eps=1e-308)) == 0.0


@pytest.mark.parametrize("eps", [1e-210, 1e-300, 2.3e-308])
def test_angle_pdf_is_finite_where_the_density_at_zero_overflows(eps):
    # f(0) ~ eps^-3/2 leaves the double range below eps ~ 1e-206; the pdf ~ eps^-1/2 does not
    params = IgParams(eps=eps)
    grid, cdf = angle_cdf_quadrature(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdf = angle_pdf(grid, params)
    assert pdf[0] == 0.0 and np.all(np.isfinite(pdf)) and np.all(np.isfinite(cdf))
    # for small eps the angle / sqrt(2 eps) is chi(3), with its mode at sqrt(2)
    mode = math.sqrt(2.0) * math.sqrt(2.0 * eps)
    chi3_peak = math.sqrt(2.0 / math.pi) * 2.0 * math.exp(-1.0) / math.sqrt(2.0 * eps)
    assert abs(angle_pdf(mode, params) / chi3_peak - 1.0) < 1e-12


def test_density_is_inf_without_a_warning_where_it_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert igso3_density(0.0, IgParams(1e-305)) == math.inf


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
    """Relative 1e-12 on [1e-3, pi - 1e-6], and from 1e-7 up in the series regime.

    Where the density is above 1e-300 the oracle is the direct series sum;
    further out the series would need thousands of digits, and the image
    sum, which the series equals, is the oracle.
    """
    for eps in ACCURACY_EPS:
        thetas = np.array([1e-3, 0.01, 0.3, 1.0, 1.5, 2.0, 3.1, math.pi - 1e-5, math.pi - 1e-6])
        if eps >= EPS_SERIES:
            thetas = np.concatenate([[1e-7, 1e-5, 9e-5, 5e-4, 9e-4], thetas])
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


def test_score_is_bitwise_a_row_of_the_batch(rng):
    rots = [random_rotation(rng) for _ in range(20)]
    rots += [exp_so3(theta * np.array([0.6, 0.0, 0.8])) for theta in (0.0, 1e-5, 2e-3, math.pi - 2e-6)]
    rotvecs = np.stack([quat_log(r.q) for r in rots])
    for eps in (0.005, 0.3, EPS_SERIES, 2.0):
        params = IgParams(eps=eps)
        batch = igso3_score_batch(rotvecs, np.linalg.norm(rotvecs, axis=-1), params)
        for i, r in enumerate(rots):
            assert np.array_equal(igso3_score(r, params), batch[i])


def test_score_near_pi_is_a_row_of_its_batch(rng):
    """Within 1e-6 of pi the scalar call clamps exactly as its batch does."""
    rots = []
    for gap in (5e-7, 1e-7, 0.0):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rots += [exp_so3((math.pi - gap) * axis), exp_so3((math.pi - gap) * np.array([0.6, 0.0, 0.8]))]
    rotvecs = np.stack([quat_log(r.q) for r in rots])
    for eps in (0.005, 0.5, 2.0):
        params = IgParams(eps=eps)
        batch = igso3_score_batch(rotvecs, np.linalg.norm(rotvecs, axis=-1), params)
        assert np.all(np.isfinite(batch))
        for i, r in enumerate(rots):
            assert np.array_equal(igso3_score(r, params), batch[i])


def test_score_batch_clamps_near_pi():
    rotvec = (math.pi - 1e-7) * np.array([[0.0, 0.6, 0.8]])
    params = IgParams(eps=0.5)
    edge_vec = rotvec / np.linalg.norm(rotvec) * (math.pi - 1e-6)
    near = igso3_score_batch(rotvec, np.linalg.norm(rotvec, axis=-1), params)[0]
    edge = igso3_score_batch(edge_vec, np.linalg.norm(edge_vec, axis=-1), params)[0]
    assert np.all(np.isfinite(near))
    assert np.allclose(near, edge, rtol=1e-12, atol=0.0)


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


# The image helpers as the two-pass evaluation had them, elementwise over (K, M) arrays with
# np.where masks; the kernel's own helpers now share passes and skip masks no angle needs.
def _ref_image_exp(x):
    return np.exp(np.maximum(x, -700.0))


def _ref_phi(x):
    pos = x > 0.0
    return np.where(pos, -np.expm1(-x) / np.where(pos, x, 1.0), 1.0)


def _ref_near_images(theta, eps):
    cf = _kernels.closed_form
    ep = _ref_image_exp(-cf._PK * (cf._PK + theta) / eps)
    xm = -cf._PK * (cf._PK - theta) / eps
    em = _ref_image_exp(xm)
    lever = np.where(xm < -700.0, 0.0, (4.0 * cf._PK * cf._PK / eps) * em * _ref_phi(2.0 * cf._PK * theta / eps))
    return ep, em, lever


def _ref_near_r(ep, em, lever):
    return 1.0 + np.sum(_kernels.closed_form._SIGN * (ep + em - lever), axis=0)


def _ref_far_sums(th, eps):
    j = np.arange(_kernels.closed_form.K_IMAGES, dtype=np.float64)[:, None]
    jsign = np.where(j % 2.0 == 0.0, 1.0, -1.0)
    cj = (2.0 * j + 1.0) * math.pi
    psi = (math.pi - th) + PI_LO
    a = _ref_image_exp(-math.pi * j * (th + math.pi * j) / eps)
    x = cj * psi / eps
    b = _ref_image_exp(-x)
    s = np.sum(jsign * a * ((th + 2.0 * math.pi * j) + (cj + psi) * b), axis=0)
    ds = np.sum(jsign * a * (-(1.0 - (cj * cj + psi * psi) / (2.0 * eps)) * np.expm1(-x) + x * (1.0 + b)), axis=0)
    return s, ds


def _ref_over_sin(theta):
    pos = theta > 1e-8
    ts = np.where(pos, theta, 1.0)
    return np.where(pos, ts / np.sin(0.5 * ts), 2.0)


def _ref_h(theta):
    x = 0.5 * theta
    x2 = x * x
    taylor = x2 * (1 / 3 + x2 * (1 / 45 + x2 * (2 / 945 + x2 * (1 / 4725 + x2 * (2 / 93555)))))
    small = x < 0.1
    xs = np.where(small, 1.0, x)
    return np.where(small, taylor, 1.0 - xs / np.tan(xs)) / theta


def _two_pass(theta, eps):
    """log f and f'/f in two separate passes, the evaluation the fused kernel replaced.

    The series regime calls series_f twice.  Below EPS_SERIES the density
    takes one image pass at theta; the ratio takes another at the clamped
    angles, with the far image sums at every angle, picked by np.where,
    and the small-angle slope below THETA_SMALL_SCORE.
    """
    if eps >= EPS_SERIES:
        th = np.minimum(theta, THETA_MAX_SCORE)
        log_f = np.log(_kernels.series_f(theta, eps, SERIES_LMAX))
        return log_f, _kernels.series_df(th, eps, SERIES_LMAX) / _kernels.series_f(th, eps, SERIES_LMAX)
    small = theta < THETA_SMALL_SCORE
    th = np.where(small, 1.0, np.minimum(theta, THETA_MAX_SCORE))
    cf = _kernels.closed_form
    log_f = (cf._log_prefactor(eps) - theta * theta / (4.0 * eps)
             + np.log(_ref_over_sin(theta) * _ref_near_r(*_ref_near_images(theta, eps))))
    ep, em, lever = _ref_near_images(th, eps)
    quad = ((th + 2.0 * cf._PK) ** 2 * ep + (th - 2.0 * cf._PK) ** 2 * em) / (2.0 * eps)
    d = -th * th / (2.0 * eps) + np.sum(cf._SIGN * (lever - quad), axis=0)
    s, ds = _ref_far_sums(th, eps)
    far = ds / s - 0.5 * np.tan(0.5 * ((math.pi - th) + PI_LO))
    ratio = np.where(th > 0.5 * math.pi, far, d / (th * _ref_near_r(ep, em, lever)) + _ref_h(th))
    return log_f, np.where(small, -_kernels.closed_moment(eps) * theta, ratio)


def _ulps(x):
    return (np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf))


FUSED_THETAS = np.array([0.0, 1e-4, *_ulps(THETA_SMALL_SCORE), 0.3, 1.0, *_ulps(0.5 * math.pi), 2.5,
                         *_ulps(math.pi - 1e-6), math.pi - 1e-7, math.pi])


@pytest.mark.parametrize("eps", [1e-4, 0.005, 0.3, np.nextafter(EPS_SERIES, 0.0), EPS_SERIES, 2.0])
def test_fused_kernel_is_the_two_pass_evaluation_bit_for_bit(eps):
    """One image pass (or one series_f call) for log f and f'/f, with the bits of two."""
    params = IgParams(eps=eps)
    log_f, ratio = igso3_log_density_and_ratio(FUSED_THETAS, params)
    ref_log_f, ref_ratio = _two_pass(FUSED_THETAS, eps)
    assert np.array_equal(log_f, ref_log_f) and np.array_equal(ratio, ref_ratio)
    assert np.array_equal(igso3_log_density(FUSED_THETAS, params), log_f)
    assert np.array_equal(score_ratio(FUSED_THETAS, params), ratio)
    # stacks of any shape, and one angle at a time
    stacked = igso3_log_density_and_ratio(FUSED_THETAS.reshape(-1, 4), params)
    assert np.array_equal(stacked[0].ravel(), log_f) and np.array_equal(stacked[1].ravel(), ratio)
    for i, theta in enumerate(FUSED_THETAS):
        one = igso3_log_density_and_ratio(np.array([theta]), params)
        assert one[0][0] == log_f[i] and one[1][0] == ratio[i]


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_image_kernel_keeps_its_golden_bits():
    """``closed_log_f_ratio`` (both outputs) and ``closed_r`` against a ``float.hex`` table.

    The table, ``closed_form_golden.json``, was written by the two-output image
    kernel before E_k and E_-k shared one exponential pass: FUSED_THETAS and 40
    spread angles, 16 of them beyond pi/2, at six scalar eps from 1e-305 (below
    EPS_FLOOR) to just below EPS_SERIES, and ``closed_r`` also at one eps per angle.
    """
    golden = json.loads((Path(__file__).parent / "closed_form_golden.json").read_text())
    theta = np.array([float.fromhex(h) for h in golden["thetas"]])
    assert np.array_equal(theta[:FUSED_THETAS.size], FUSED_THETAS)
    for i, eps in enumerate(float.fromhex(h) for h in golden["eps"]):
        log_f, ratio = _kernels.closed_log_f_ratio(theta, eps, THETA_SMALL_SCORE, THETA_MAX_SCORE)
        assert _hex(log_f) == golden["log_f"][i] and _hex(ratio) == golden["ratio"][i], eps
        assert _hex(_kernels.closed_r(theta, eps)) == golden["r"][i], eps
    eps_stack = np.array([float.fromhex(h) for h in golden["eps_stack"]])
    assert _hex(_kernels.closed_r(theta, eps_stack)) == golden["r_stack"]


@pytest.mark.parametrize("eps", [1e-308, 1e-306, 1e-301, 1e-300, 1e-250, 1e-160, 1e-110, 1e-100])
def test_score_ratio_at_tiny_eps_is_the_k0_image(eps):
    """Finite, with no warning, and the k = 0 image's f'/f: every other image is below e^-700.

    f'/f = -theta/(2 eps) + 1/theta - cot(theta/2)/2 on [THETA_SMALL_SCORE, THETA_MAX_SCORE],
    and the small-angle slope is c = 1/(2 eps) - 1/12.
    """
    thetas = np.array([1e-160, THETA_SMALL_SCORE, 0.5, 2.0, THETA_MAX_SCORE, math.pi])
    params = IgParams(eps=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = score_ratio(thetas, params)
        log_f = igso3_log_density(thetas[:2], params)
        scores = igso3_score_batch(thetas[:, None] * np.array([0.0, 0.6, 0.8]), thetas, params)
    assert np.all(np.isfinite(ratio)) and np.all(np.isfinite(log_f)) and np.all(np.isfinite(scores))
    th = np.minimum(thetas[1:], THETA_MAX_SCORE)
    asymptote = -th / (2.0 * eps) + 1.0 / th - 0.5 / np.tan(0.5 * th)
    assert np.max(np.abs(ratio[1:] / asymptote - 1.0)) < 1e-15
    slope = 1.0 / (2.0 * eps) - 1.0 / 12.0
    assert abs(ratio[0] / (-slope * 1e-160) - 1.0) < 1e-15
