import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_rel_err, rotation_matrix

from ropekit.rotary import FrequencyBasis, alpha, apply_rotary, default_basis, scale_basis


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
