import math

import numpy as np
import pytest

from se3diffuse import irreps
from se3diffuse.irreps import (
    L_MAX_IRREPS,
    IrrepsLayout,
    IrrepsVector,
    cg_contract_batch,
    cg_contract_to1,
    cg_paths,
    cg_tensor,
    rep_apply,
    rep_apply_batch,
    sh_batch,
    spherical_harmonics,
    wigner_d,
)
from se3diffuse.lie import Rotation, exp_so3, random_rotation


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


def test_wigner_d_of_a_quaternion_stack_is_bitwise_per_rotation(rng):
    rots = [random_rotation(rng) for _ in range(25)]
    q = np.stack([r.q for r in rots])
    for l in range(L_MAX_IRREPS + 1):
        stack = wigner_d(l, q)
        assert stack.shape == (25, 2 * l + 1, 2 * l + 1)
        assert wigner_d(l, q.reshape(5, 5, 4)).shape == (5, 5, 2 * l + 1, 2 * l + 1)
        for i, r in enumerate(rots):
            assert np.array_equal(stack[i], wigner_d(l, r)), (l, i)


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


def test_spherical_harmonics_is_a_batch_of_one(rng):
    us = rng.standard_normal((20, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    for l in range(L_MAX_IRREPS + 1):
        batch = sh_batch(l, us)
        for i, u in enumerate(us):
            one = spherical_harmonics(l, u)
            assert np.array_equal(one, sh_batch(l, us[i:i + 1])[0])
            assert np.array_equal(one, batch[i])


def test_cg_contract_to1_is_bitwise_a_row_of_the_batch(rng):
    lay_a = IrrepsLayout(((0, 2), (1, 2), (2, 1)))
    lay_b = IrrepsLayout(((1, 1), (2, 1), (3, 1)))
    a = rng.standard_normal((30, lay_a.dim))
    b = rng.standard_normal((30, lay_b.dim))
    weights = rng.standard_normal(len(cg_paths(lay_a, lay_b)))
    weights[3] = 0.0
    batch = cg_contract_batch(lay_a, a, lay_b, b, weights)
    assert batch.shape == (30, 3)
    for i in range(30):
        one = cg_contract_to1(IrrepsVector(lay_a, a[i]), IrrepsVector(lay_b, b[i]), weights)
        assert np.array_equal(one, batch[i])


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
    # the tensor is -epsilon / sqrt(6): the last of its tied largest entries is positive
    assert np.allclose(out, np.cross(v, u) / math.sqrt(6.0), atol=1e-12)


def test_cg_tensor_rejects_forbidden_pairs():
    with pytest.raises(ValueError):
        cg_tensor(0, 0)
    with pytest.raises(ValueError):
        cg_tensor(0, 2)


def test_cg_tensors_are_stable_under_last_bit_noise(monkeypatch):
    # l1 = l2 tensors have opposite-signed entries of equal magnitude; noise of
    # 1e-14 in the Wigner-D matrices must not decide the sign
    pairs = [(l1, l2) for l1 in range(L_MAX_IRREPS + 1) for l2 in range(L_MAX_IRREPS + 1)
             if abs(l1 - l2) <= 1 <= l1 + l2]
    ref = {pair: cg_tensor(*pair).copy() for pair in pairs}
    exact = irreps.wigner_d
    for seed in range(3):
        noise = np.random.default_rng(seed)

        def perturbed(l, r):
            d = exact(l, r)
            return d + 1e-14 * noise.standard_normal(d.shape)

        monkeypatch.setattr(irreps, "wigner_d", perturbed)
        cg_tensor.cache_clear()
        try:
            for pair in pairs:
                assert np.max(np.abs(cg_tensor(*pair) - ref[pair])) < 1e-12, (seed, pair)
        finally:
            monkeypatch.setattr(irreps, "wigner_d", exact)
            cg_tensor.cache_clear()


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
