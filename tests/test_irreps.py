import math
import operator
from functools import reduce

import numpy as np
import pytest

from se3diffuse import irreps
from se3diffuse.irreps import (
    L_MAX_IRREPS,
    IrrepsLayout,
    IrrepsVector,
    cg_contract_to1,
    cg_paths,
    cg_tensor,
    rep_apply,
    rep_apply_batch,
    sh_batch,
    sh_stack,
    spherical_harmonics,
    wigner_d,
)
from se3diffuse.lie import Rotation, exp_so3, quat_normalize, random_rotation


def test_wigner_d_degree_zero_and_one(rng):
    r = random_rotation(rng)
    assert np.array_equal(wigner_d(0, r), [[1.0]])
    assert np.allclose(wigner_d(1, r), r.matrix(), atol=1e-13)


def test_wigner_d_degree_one_is_bitwise_the_rotation_matrix(rng):
    for _ in range(20):
        r = random_rotation(rng)
        assert np.array_equal(wigner_d(1, r), r.matrix())


def test_wigner_d_identity_is_identity():
    for l in range(5):
        assert np.allclose(wigner_d(l, Rotation.identity()), np.eye(2 * l + 1), atol=1e-14)


def test_wigner_d_rejects_large_l(rng):
    with pytest.raises(ValueError):
        wigner_d(7, random_rotation(rng))


def test_wigner_d_orthogonal(rng):
    for l in range(5):
        d = wigner_d(l, random_rotation(rng))
        assert np.allclose(d @ d.T, np.eye(2 * l + 1), atol=1e-12)


def test_wigner_d_homomorphism(rng):
    for _ in range(100):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        for l in range(5):
            err = np.max(np.abs(wigner_d(l, r1) @ wigner_d(l, r2)
                                - wigner_d(l, r1.compose(r2))))
            assert err < 1e-9


def test_wigner_d_full_turn_periodicity(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    full = exp_so3(2.0 * math.pi * axis)
    for l in range(7):
        assert np.max(np.abs(wigner_d(l, full) - np.eye(2 * l + 1))) < 1e-9


def test_rep_apply_batch_on_stacks_matches_rep_apply(rng):
    lay = IrrepsLayout(((0, 1), (1, 2), (2, 1), (3, 1)))
    rots = [random_rotation(rng) for _ in range(6)]
    coeffs = rng.standard_normal((6, 4, lay.dim))
    out = rep_apply_batch(lay, np.stack([r.q for r in rots]), coeffs)
    assert out.shape == coeffs.shape
    for i, r in enumerate(rots):
        for m in range(4):
            ref = rep_apply(lay, r, IrrepsVector(lay, coeffs[i, m])).coeffs
            assert np.max(np.abs(out[i, m] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_layout_dimensions():
    lay = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    assert lay.dim == 2 + 6 + 5
    assert lay.slots() == [0, 0, 1, 1, 2]
    with pytest.raises(ValueError):
        IrrepsLayout(((0, 0),))
    with pytest.raises(ValueError):
        IrrepsVector(lay, np.zeros(3))


def test_rep_apply_identity_and_homomorphism(rng):
    lay = IrrepsLayout(((0, 1), (1, 2), (2, 1), (3, 1)))
    v = IrrepsVector(lay, rng.standard_normal(lay.dim))
    same = rep_apply(lay, Rotation.identity(), v)
    assert np.allclose(same.coeffs, v.coeffs, atol=1e-14)
    for _ in range(30):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        a = rep_apply(lay, r2, rep_apply(lay, r1, v))
        b = rep_apply(lay, r2.compose(r1), v)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-10)


def test_rep_apply_preserves_block_norms(rng):
    lay = IrrepsLayout(((1, 1), (2, 1)))
    v = IrrepsVector(lay, rng.standard_normal(lay.dim))
    out = rep_apply(lay, random_rotation(rng), v)
    assert abs(np.linalg.norm(out.coeffs[:3]) - np.linalg.norm(v.coeffs[:3])) < 1e-10
    assert abs(np.linalg.norm(out.coeffs[3:]) - np.linalg.norm(v.coeffs[3:])) < 1e-10


def test_spherical_harmonics_conventions():
    assert np.allclose(spherical_harmonics(0, np.array([0.0, 0.0, 1.0])), [1.0])
    assert np.allclose(spherical_harmonics(1, np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0])
    u = np.array([0.3, -0.5, 0.81])
    u /= np.linalg.norm(u)
    assert np.allclose(spherical_harmonics(1, u), u, atol=1e-14)


def test_spherical_harmonics_unit_norm(rng):
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for l in range(5):
            assert abs(np.linalg.norm(spherical_harmonics(l, u)) - 1.0) < 1e-12


def test_spherical_harmonics_rejects_non_unit():
    with pytest.raises(ValueError):
        spherical_harmonics(2, np.array([1.0, 1.0, 0.0]))


def test_spherical_harmonics_steerability(rng):
    for _ in range(100):
        r = random_rotation(rng)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for l in range(L_MAX_IRREPS + 1):
            lhs = spherical_harmonics(l, r.apply(u))
            rhs = wigner_d(l, r) @ spherical_harmonics(l, u)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_sh_batch_matches_scalar(rng):
    us = rng.standard_normal((20, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    for l in range(4):
        batch = sh_batch(l, us)
        for i, u in enumerate(us):
            assert np.allclose(batch[i], spherical_harmonics(l, u), atol=1e-13)


def _power(x, k):
    """x ** k up to 2, a running product above."""
    out = x ** min(k, 2)
    for _ in range(k - 2):
        out = out * x
    return out


@pytest.mark.parametrize("n", [1, 7, 300])
def test_sh_batch_adds_its_monomial_terms_in_order(rng, n):
    # the gather-multiply and the einsum round exactly as one term at a time
    us = rng.standard_normal((n, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    for l in range(L_MAX_IRREPS + 1):
        want = np.zeros((n, 2 * l + 1))
        for (a, b, c), col in zip(irreps._monomials(l), irreps._basis_coeffs(l).T):
            x, y, z = us.T
            want += (_power(x, a) * _power(y, b) * _power(z, c))[:, None] * col
        assert np.array_equal(sh_batch(l, us), want)


def _sh_per_degree(l, u):
    """One degree's harmonics, its coordinate powers and monomials recomputed on every call."""
    one = np.ones(u.shape[0])
    powers = [[one, x] for x in (u[:, 0], u[:, 1], u[:, 2])]
    for p in powers:
        for e in range(2, l + 1):
            p.append(p[1] ** 2 if e == 2 else p[-1] * p[1])
    mono = [reduce(operator.mul, [powers[i][e] for i, e in enumerate(exps) if e] or [one])
            for exps in irreps._monomials(l)]
    out = np.empty((u.shape[0], 2 * l + 1))
    for col, terms in enumerate(irreps._sh_terms(l)):
        out[:, col] = reduce(operator.add, [mono[m] if c == 1.0 else mono[m] * c for m, c in terms])
    return out


@pytest.mark.parametrize("degrees", [(0,), (2,), (0, 1, 2), (0, 1, 2, 3), (1, 0, 3, 2), (6, 1),
                                     (0, 0, 1, 1, 2), (5, 5, 4, 0, 5),
                                     tuple(range(L_MAX_IRREPS, -1, -1))])
def test_sh_stack_is_bitwise_the_per_degree_passes_side_by_side(rng, degrees):
    us = rng.standard_normal((200, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    signed_zeros = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -1.0, -0.0],
                             [0.6, -0.0, -0.8], [-0.0, 0.8, 0.6]])
    us = np.concatenate([axes, signed_zeros, us])
    want = np.concatenate([_sh_per_degree(l, us) for l in degrees], axis=1)
    got = sh_stack(degrees, np.ascontiguousarray(us.T)).T
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for l in set(degrees):
        assert np.array_equal(sh_batch(l, us).view(np.int64), _sh_per_degree(l, us).view(np.int64))
    # a row's bits do not depend on the batch
    assert np.array_equal(sh_stack(degrees, us[7:8].T).T, got[7:8])


def test_cg_selection_rule_and_zero_weights(rng):
    scalar = IrrepsLayout(((0, 1),))
    a = IrrepsVector(scalar, [2.0])
    b = IrrepsVector(scalar, [3.0])
    assert cg_paths(scalar, scalar) == []  # 0 x 0 has no type-1 path
    assert np.allclose(cg_contract_to1(a, b, np.zeros(0)), 0.0)
    lay = IrrepsLayout(((0, 1), (1, 1)))
    v = IrrepsVector(lay, rng.standard_normal(lay.dim))
    w = IrrepsVector(lay, rng.standard_normal(lay.dim))
    n = len(cg_paths(lay, lay))
    assert np.allclose(cg_contract_to1(v, w, np.zeros(n)), 0.0)


def test_cg_weight_count_mismatch(rng):
    lay = IrrepsLayout(((0, 1), (1, 1)))
    v = IrrepsVector(lay, rng.standard_normal(lay.dim))
    with pytest.raises(ValueError, match="path weights"):
        cg_contract_to1(v, v, np.ones(99))


def test_cg_scalar_vector_path():
    l0 = IrrepsLayout(((0, 1),))
    l1 = IrrepsLayout(((1, 1),))
    a = IrrepsVector(l0, [2.0])
    u = np.array([0.3, -0.2, 0.9])
    out = cg_contract_to1(a, IrrepsVector(l1, u), [5.0])
    # unit-Frobenius CG normalization puts 1/sqrt(3) on the 0 x 1 -> 1 path
    assert np.allclose(out, 5.0 * 2.0 * u / math.sqrt(3.0), atol=1e-12)


def test_cg_vector_vector_path_sign():
    l1 = IrrepsLayout(((1, 1),))
    u = np.array([0.3, -0.2, 0.9])
    v = np.array([-0.5, 0.4, 0.1])
    out = cg_contract_to1(IrrepsVector(l1, u), IrrepsVector(l1, v), [1.0])
    # C_a = sum_bc eps_abc <d_b g_j, d_c f_i> = eps_aji for f = g = (x, y, z), so u (index
    # i) and v (index j) contract to v x u, over sqrt(6) at unit Frobenius norm
    assert np.allclose(out, np.cross(v, u) / math.sqrt(6.0), atol=1e-12)


def test_cg_tensor_rejects_forbidden_pairs():
    with pytest.raises(ValueError):
        cg_tensor(0, 0)
    with pytest.raises(ValueError):
        cg_tensor(0, 2)
    for pair in ((7, 6), (6, 7)):
        with pytest.raises(ValueError):
            cg_tensor(*pair)


def _cg_by_svd(l1, l2):
    """The CG tensor as the null space of the equivariance constraints at three seeded rotations."""
    d1, d2 = 2 * l1 + 1, 2 * l2 + 1
    q = quat_normalize(np.random.default_rng(20240331).standard_normal((3, 4)))
    da, db, dc = wigner_d(1, q), wigner_d(l1, q), wigner_d(l2, q)
    system = np.vstack([np.kron(np.eye(3), np.kron(db[k].T, dc[k].T))
                        - np.kron(da[k], np.eye(d1 * d2)) for k in range(3)])
    _, svals, vt = np.linalg.svd(system, full_matrices=False)
    assert np.sum(svals < 1e-10) == 1, (l1, l2)
    c = vt[-1].reshape(3, d1, d2) / np.linalg.norm(vt[-1])
    # l1 = l2 tensors have opposite-signed entries of equal magnitude, so a
    # plain argmax would let last-bit noise pick the sign; the last entry
    # within 1e-9 of the largest magnitude is made positive
    flat = c.reshape(-1)
    mag = np.abs(flat)
    return -c if flat[np.nonzero(mag >= (1.0 - 1e-9) * mag.max())[0][-1]] < 0 else c


def test_cg_tensor_is_the_svd_null_space_with_its_sign():
    pairs = [(l1, l2) for l1 in range(L_MAX_IRREPS + 1) for l2 in range(L_MAX_IRREPS + 1)
             if abs(l1 - l2) <= 1 <= l1 + l2]
    assert len(pairs) == 18
    for pair in pairs:
        ref = _cg_by_svd(*pair)
        # the SVD reference itself is up to 4.7e-15 of its largest entry off the exact tensor
        assert np.max(np.abs(cg_tensor(*pair) - ref)) < 1e-14 * np.max(np.abs(ref)), pair


@pytest.mark.parametrize("l", range(2, L_MAX_IRREPS + 1))
def test_steering_directions_keep_the_harmonics_well_conditioned(l):
    # wigner_d solves for D_l through pinv(Y_l(U)) over these directions
    u, _ = irreps._steering(l)
    assert np.linalg.cond(sh_batch(l, u)) < 2.0


def test_cg_equivariance(rng):
    lay_a = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    lay_b = IrrepsLayout(((1, 1), (2, 1), (3, 1)))
    n = len(cg_paths(lay_a, lay_b))
    for _ in range(100):
        r = random_rotation(rng)
        v = IrrepsVector(lay_a, rng.standard_normal(lay_a.dim))
        w = IrrepsVector(lay_b, rng.standard_normal(lay_b.dim))
        weights = rng.standard_normal(n)
        lhs = cg_contract_to1(rep_apply(lay_a, r, v), rep_apply(lay_b, r, w), weights)
        rhs = r.apply(cg_contract_to1(v, w, weights))
        assert np.max(np.abs(lhs - rhs)) < 1e-9
