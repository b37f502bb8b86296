import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grad_check, max_rel_err, rotation_matrix

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.rotary import FrequencyBasis, apply_rotary, default_basis, pair_score, rotate_sequences


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
