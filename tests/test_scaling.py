import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_rel_err, rotation_matrix

from ropekit.rotary import FrequencyBasis, apply_rotary, default_basis
from ropekit.scaling import (
    alpha,
    alpha_codellama,
    alpha_pi,
    alpha_yarn,
    chain_step,
    scale_basis,
)


# ---------------------------------------------------------------------------
# profiles


def test_alpha_pi_values():
    assert np.array_equal(alpha_pi(1.0, 8), np.ones(4))
    assert np.array_equal(alpha_pi(4.0, 4), [0.25, 0.25])
    assert np.array_equal(alpha_pi(16.0, 128), np.full(64, 0.0625))
    with pytest.raises(ValueError):
        alpha_pi(0.5, 4)


def test_alpha_yarn_values():
    assert np.array_equal(alpha_yarn(1.0, 8), np.ones(4))
    assert np.allclose(alpha_yarn(4.0, 4), [1.0, 0.25], rtol=1e-14)
    assert np.allclose(
        alpha_yarn(2.0, 8), [1.0, 2 ** (-1 / 3), 2 ** (-2 / 3), 0.5], rtol=1e-14
    )
    with pytest.raises(ValueError):
        alpha_yarn(2.0, 2)
    with pytest.raises(ValueError):
        alpha_yarn(0.9, 8)


def test_alpha_yarn_endpoints():
    # 0-based indexing puts the profile exactly on [1, 1/t]
    for d in (4, 8, 64, 128):
        a = alpha_yarn(7.0, d)
        assert a[0] == 1.0
        assert abs(a[-1] - 1.0 / 7.0) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 64.0), st.sampled_from([4, 8, 64]))
def test_alpha_yarn_monotone(t, d):
    a = alpha_yarn(t, d)
    assert np.all(np.diff(a) <= 1e-15)
    # non-increasing in t for i >= 1
    a2 = alpha_yarn(t + 1.0, d)
    assert np.all(a2[1:] <= a[1:] + 1e-15)


def test_alpha_codellama_values():
    assert alpha_codellama(8)[0] == 1.0
    assert np.allclose(alpha_codellama(4), [1.0, 0.1], rtol=1e-14)


def test_alpha_codellama_equals_retuned_base():
    for d in (4, 8, 64, 128):
        scaled = scale_basis(default_basis(d), alpha_codellama(d))
        retuned = default_basis(d, base=1e6)
        assert max_rel_err(scaled.theta, retuned.theta) < 1e-12


def test_alpha_dispatch():
    assert np.array_equal(alpha("pi", 1.0, 8), np.ones(4))
    assert np.array_equal(alpha("yarn", 1.0, 8), np.ones(4))
    assert np.array_equal(alpha("pi", 3.0, 8), alpha_pi(3.0, 8))
    assert np.array_equal(alpha("yarn", 3.0, 8), alpha_yarn(3.0, 8))
    assert np.array_equal(alpha("codellama", 1.0, 8), alpha("codellama", 16.0, 8))  # t-independent
    assert np.array_equal(alpha("codellama", 2.0, 8), alpha_codellama(8))
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
    alpha = alpha_yarn(3.0, 8)
    scaled = scale_basis(b, alpha)
    assert np.allclose(np.log(scaled.theta), np.log(b.theta) + np.log(alpha), rtol=1e-12)


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
    shrunk = scale_basis(basis, alpha_pi(t, d))
    b = apply_rotary(x, m, shrunk)
    oracle = rotation_matrix(shrunk.theta, m) @ x
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - oracle)) < 1e-12


# ---------------------------------------------------------------------------
# progressive chain


def test_chain_step_identity():
    z = np.log(default_basis(8).theta)
    a = alpha_yarn(2.0, 8)
    assert np.array_equal(chain_step(z, a, a), z)


def test_chain_telescopes_to_direct_form():
    d = 8
    z1 = np.log(default_basis(d).theta)
    a1 = np.ones(d // 2)
    a2 = alpha_yarn(2.0, d)
    a4 = alpha_yarn(4.0, d)
    chained = chain_step(chain_step(z1, a1, a2), a2, a4)
    direct = z1 + np.log(a4)
    assert max_rel_err(chained, direct, floor=1e-12) < 1e-12


def test_chain_pi_shifts_by_log_t():
    d = 6
    z1 = np.log(default_basis(d).theta)
    out = chain_step(z1, np.ones(d // 2), alpha_pi(3.0, d))
    assert np.allclose(out, z1 - np.log(3.0), rtol=1e-14)


def test_chain_rejects_nonpositive():
    z = np.log(default_basis(4).theta)
    with pytest.raises(ValueError):
        chain_step(z, np.array([1.0, -1.0]), np.ones(2))
    with pytest.raises(ValueError):
        chain_step(z, np.ones(3), np.ones(3))
