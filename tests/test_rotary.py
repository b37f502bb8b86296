import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grad_check, max_rel_err, rotation_matrix

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.rotary import (
    FrequencyBasis, alpha, apply_rotary, default_basis, pair_score, rotate_sequences, scale_basis,
)


# ---------------------------------------------------------------------------
# basis construction


def test_default_basis_d2():
    assert np.array_equal(default_basis(2).theta, [1.0])


def test_default_basis_d4():
    assert np.allclose(default_basis(4).theta, [1.0, 0.01], rtol=1e-14)


def test_default_basis_d8():
    assert np.allclose(default_basis(8).theta, [1.0, 1e-1, 1e-2, 1e-3], rtol=1e-14)


def test_default_basis_invariants():
    b = default_basis(64)
    assert b.theta[0] == 1.0
    assert np.all(np.diff(b.theta) < 0)
    assert np.all(b.theta > 0)
    assert b.theta.shape == (32,)


def test_default_basis_rejects_bad_dims():
    for d in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            default_basis(d)
    with pytest.raises(ValueError):
        default_basis(4, base=1.0)


def test_basis_validation():
    with pytest.raises(ValueError):
        FrequencyBasis(np.array([1.0, -0.5]), 4)
    with pytest.raises(ValueError):
        FrequencyBasis(np.array([1.0]), 4)
    b = default_basis(4)
    with pytest.raises(ValueError):
        b.theta[0] = 2.0  # immutable


# ---------------------------------------------------------------------------
# rotation


def test_rotary_at_zero_is_identity():
    x = np.random.default_rng(0).normal(size=8)
    out = apply_rotary(x, 0.0, default_basis(8))
    assert np.array_equal(out, x)


def test_rotary_quarter_turn():
    out = apply_rotary([1.0, 0.0], np.pi / 2, default_basis(2))
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_rotary_matches_dense_matrix():
    theta = np.array([1.0, 0.01])
    basis = FrequencyBasis(theta, 4)
    x = np.random.default_rng(1).normal(size=4)
    out = apply_rotary(x, 2.0, basis)
    oracle = rotation_matrix(theta, 2.0) @ x
    assert max_rel_err(out, oracle) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**31 - 1), st.sampled_from([2, 4, 8, 16]))
def test_rotary_matches_dense_matrix_random(seed, d):
    r = np.random.default_rng(seed)
    basis = default_basis(d)
    x = r.normal(size=d)
    m = float(r.uniform(-50, 50))
    out = apply_rotary(x, m, basis)
    oracle = rotation_matrix(basis.theta, m) @ x
    assert np.max(np.abs(out - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_rotary_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_rotary([1.0, 0.0, 0.0], 1.0, default_basis(4))


def test_rotate_sequences_applies_per_position():
    r = np.random.default_rng(2)
    basis = default_basis(6)
    x = r.normal(size=(2, 3, 6))
    pos = np.array([1.0, 2.5, 7.0])
    out = rotate_sequences(Tensor(x), pos, Tensor(basis.theta)).data
    for b in range(2):
        for s in range(3):
            expected = rotation_matrix(basis.theta, pos[s]) @ x[b, s]
            assert np.max(np.abs(out[b, s] - expected)) < 1e-12


# ---------------------------------------------------------------------------
# pair scores and identities


def test_pair_score_equal_positions_is_dot():
    r = np.random.default_rng(3)
    q, k = r.normal(size=4), r.normal(size=4)
    s = pair_score(q, k, 5.0, 5.0, default_basis(4))
    assert abs(s - np.dot(q, k)) < 1e-12


def test_pair_score_d2_closed_form():
    s = pair_score([1.0, 0.0], [1.0, 0.0], 3.0, 5.0, default_basis(2))
    assert abs(s - np.cos(2.0)) < 1e-12


def test_pair_score_relative_shift():
    r = np.random.default_rng(4)
    basis = default_basis(8)
    q, k = r.normal(size=8), r.normal(size=8)
    m, n = 3.7, 11.2
    s = pair_score(q, k, m, n, basis)
    shifted = float(np.dot(q, apply_rotary(k, n - m, basis)))
    assert abs(s - shifted) < 1e-9 * max(1.0, abs(s))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**31 - 1), st.sampled_from([2, 4, 8, 64]))
def test_relative_position_identity(seed, d):
    r = np.random.default_rng(seed)
    basis = default_basis(d)
    q, k = r.normal(size=d), r.normal(size=d)
    m, n = r.uniform(-64, 64, size=2)
    a = pair_score(q, k, m, n, basis)
    b = pair_score(q, k, 0.0, n - m, basis)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**31 - 1), st.sampled_from([2, 4, 8, 64]))
def test_norm_preservation(seed, d):
    r = np.random.default_rng(seed)
    x = r.normal(size=d)
    m = float(r.uniform(-100, 100))
    out = apply_rotary(x, m, default_basis(d))
    assert abs(np.linalg.norm(out) - np.linalg.norm(x)) <= 1e-9 * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**31 - 1), st.sampled_from([4, 8, 64]))
def test_scalar_factor_moves_between_index_and_basis(seed, d):
    # rotating at T*m with theta equals rotating at m with T*theta
    r = np.random.default_rng(seed)
    basis = default_basis(d)
    x = r.normal(size=d)
    m = float(r.uniform(-64, 64))
    t = float(np.exp(r.uniform(np.log(1 / 16), np.log(16))))
    a = apply_rotary(x, t * m, basis)
    b = apply_rotary(x, m, FrequencyBasis(t * basis.theta, d, basis.base))
    assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(a))))


# ---------------------------------------------------------------------------
# differentiability


def test_rotary_gradient_wrt_input():
    basis = default_basis(6)

    def build(x):
        return rotate_sequences(x, np.array([1.0, 4.0]), Tensor(basis.theta))

    grad_check(build, np.random.default_rng(5).normal(size=(2, 2, 6)), tol=1e-5)


def test_rotary_gradient_wrt_theta():
    r = np.random.default_rng(6)
    x = Tensor(r.normal(size=(1, 3, 8)))

    def build(theta):
        return rotate_sequences(x, np.array([0.5, 2.0, 9.0]), theta)

    grad_check(build, default_basis(8).theta.copy(), tol=1e-5)


# ---------------------------------------------------------------------------
# profiles


def test_alpha_pi_values():
    assert np.array_equal(alpha("pi", 1.0, 8), np.ones(4))
    assert np.array_equal(alpha("pi", 4.0, 4), [0.25, 0.25])
    assert np.array_equal(alpha("pi", 16.0, 128), np.full(64, 0.0625))
    with pytest.raises(ValueError):
        alpha("pi", 0.5, 4)


def test_alpha_yarn_values():
    assert np.array_equal(alpha("yarn", 1.0, 8), np.ones(4))
    assert np.allclose(alpha("yarn", 4.0, 4), [1.0, 0.25], rtol=1e-14)
    assert np.allclose(
        alpha("yarn", 2.0, 8), [1.0, 2 ** (-1 / 3), 2 ** (-2 / 3), 0.5], rtol=1e-14
    )
    with pytest.raises(ValueError):
        alpha("yarn", 2.0, 2)
    with pytest.raises(ValueError):
        alpha("yarn", 0.9, 8)


def test_alpha_yarn_endpoints():
    # 0-based indexing puts the profile exactly on [1, 1/t]
    for d in (4, 8, 64, 128):
        a = alpha("yarn", 7.0, d)
        assert a[0] == 1.0
        assert abs(a[-1] - 1.0 / 7.0) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 64.0), st.sampled_from([4, 8, 64]))
def test_alpha_yarn_monotone(t, d):
    a = alpha("yarn", t, d)
    assert np.all(np.diff(a) <= 1e-15)
    # non-increasing in t for i >= 1
    a2 = alpha("yarn", t + 1.0, d)
    assert np.all(a2[1:] <= a[1:] + 1e-15)


def test_alpha_codellama_values():
    assert alpha("codellama", 1.0, 8)[0] == 1.0
    assert np.allclose(alpha("codellama", 1.0, 4), [1.0, 0.1], rtol=1e-14)
    with pytest.raises(ValueError):
        alpha("codellama", 1.0, 7)


def test_alpha_codellama_equals_retuned_base():
    for d in (4, 8, 64, 128):
        scaled = scale_basis(default_basis(d), alpha("codellama", 1.0, d))
        retuned = default_basis(d, base=1e6)
        assert max_rel_err(scaled.theta, retuned.theta) < 1e-12


def test_alpha_dispatch():
    assert np.array_equal(alpha("pi", 1.0, 8), np.ones(4))
    assert np.array_equal(alpha("yarn", 1.0, 8), np.ones(4))
    i = np.arange(4, dtype=np.float64)
    assert np.array_equal(alpha("pi", 3.0, 8), np.full(4, 1.0 / 3.0))
    assert np.array_equal(alpha("yarn", 3.0, 8), 3.0 ** (-2.0 * i / 6))
    assert np.array_equal(alpha("codellama", 1.0, 8), alpha("codellama", 16.0, 8))  # t-independent
    assert np.array_equal(alpha("codellama", 2.0, 8), 100.0 ** (-2.0 * i / 8))
    assert np.array_equal(alpha("identity", 5.0, 8), np.ones(4))
    with pytest.raises(ValueError):
        alpha("ntk", 2.0, 8)
    for method in ("identity", "pi", "yarn", "codellama"):
        with pytest.raises(ValueError):
            alpha(method, 0.5, 8)


# ---------------------------------------------------------------------------
# basis and index scaling


def test_scale_basis_identity_and_product():
    b = default_basis(4)
    assert np.array_equal(scale_basis(b, np.ones(2)).theta, b.theta)
    scaled = scale_basis(FrequencyBasis([1.0, 0.01], 4), np.array([1.0, 0.25]))
    assert np.allclose(scaled.theta, [1.0, 0.0025], rtol=1e-15)


def test_scale_basis_log_is_additive():
    b = default_basis(8)
    a = alpha("yarn", 3.0, 8)
    scaled = scale_basis(b, a)
    assert np.allclose(np.log(scaled.theta), np.log(b.theta) + np.log(a), rtol=1e-12)


def test_scale_basis_rejects_bad_alpha():
    b = default_basis(4)
    with pytest.raises(ValueError):
        scale_basis(b, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        scale_basis(b, np.ones(3))


def test_scale_positions_equals_scaled_basis_rotation():
    # f(x, m/t, theta) == f(x, m, theta/t), checked against the dense oracle
    r = np.random.default_rng(0)
    d, t, m = 8, 4.0, 13.0
    basis = default_basis(d)
    x = r.normal(size=d)
    a = apply_rotary(x, m / t, basis)
    shrunk = scale_basis(basis, alpha("pi", t, d))
    b = apply_rotary(x, m, shrunk)
    oracle = rotation_matrix(shrunk.theta, m) @ x
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - oracle)) < 1e-12
