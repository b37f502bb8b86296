import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_rel_err, unrolled_solve

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.continuous import (
    BasisCache,
    CacheSession,
    OdeNet,
    PlanMode,
    XiForm,
    build_cache,
    cache_to_json,
    position_plan,
    sample_train_factor,
    solve,
    solve_basis,
    xi,
)
from ropekit.rotary import default_basis
from ropekit.scaling import alpha_yarn, scale_basis


def _zero_net(d, lambda_amp=1):
    # fresh nets have w_down = 0 by construction
    return OdeNet(d, lambda_amp, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# drift term


def test_xi_first_entry_zero_both_forms():
    for form in XiForm:
        assert xi(3.0, 8, form)[0] == 0.0


def test_xi_log_derivative_d4():
    assert np.array_equal(xi(2.0, 4, XiForm.LOG_DERIVATIVE), [0.0, -0.5])


def test_xi_paper_printed_d4():
    assert np.array_equal(xi(2.0, 4, XiForm.PAPER_PRINTED), [0.0, -0.25])


def test_xi_forms_agree_at_t1():
    assert np.allclose(
        xi(1.0, 16, XiForm.LOG_DERIVATIVE), xi(1.0, 16, XiForm.PAPER_PRINTED), rtol=1e-15
    )


def test_xi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        xi(0.5, 8)
    with pytest.raises(ValueError):
        xi(2.0, 2)


def test_xi_log_derivative_is_derivative_of_log_profile():
    # finite-difference the closed-form profile in t
    d, t, h = 16, 3.0, 1e-6
    fd = (np.log(alpha_yarn(t + h, d)) - np.log(alpha_yarn(t - h, d))) / (2 * h)
    assert max_rel_err(xi(t, d, XiForm.LOG_DERIVATIVE), fd, floor=1e-9) < 1e-8


def test_xi_paper_printed_is_derivative_of_profile():
    d, t, h = 16, 3.0, 1e-6
    fd = (alpha_yarn(t + h, d) - alpha_yarn(t - h, d)) / (2 * h)
    assert max_rel_err(xi(t, d, XiForm.PAPER_PRINTED), fd, floor=1e-9) < 1e-8


# ---------------------------------------------------------------------------
# dynamics network, one RK4 step at a time


def _rk4_drift_step(z, drift_row, h):
    # one RK4 step of dz/dt = drift alone, in rk4_solve's order of operations
    dt = z.dtype.type
    return z + ((drift_row[0] + (drift_row[1] + drift_row[2]) * dt(2.0)) + drift_row[3]) * dt(h / 6.0)


def test_dynamics_zero_net_is_pure_drift():
    r = np.random.default_rng(1)
    net = _zero_net(8)
    z = r.normal(size=4)
    drift = r.normal(size=(3, 4, 4))
    out = ad.rk4_solve(z, net.w_up, net.w_down, drift, 0.25)
    expected = z
    for row in drift:
        expected = _rk4_drift_step(expected, row, 0.25)
    assert np.array_equal(out.data, expected)
    # through solve: a zero net integrates xi alone, at every stage's time
    t, n = 2.0, 8
    h = (t - 1.0) / n
    expected = z
    for k in range(n):
        t0 = 1.0 + k * h
        row = [xi(s, 8) for s in (t0, t0 + h / 2.0, t0 + h / 2.0, t0 + h)]
        expected = _rk4_drift_step(expected, row, h)
    assert np.array_equal(solve(z, t, net).data, expected)


def test_dynamics_zero_state_silu_kills_learned_term():
    # silu(0) = 0, so with no drift the origin is a fixed point whatever the net
    r = np.random.default_rng(2)
    net = _zero_net(8)
    net.w_down = Tensor(r.normal(size=net.w_down.shape), requires_grad=True)
    out = ad.rk4_solve(np.zeros(4), net.w_up, net.w_down, np.zeros((5, 4, 4)), 0.5)
    assert np.array_equal(out.data, np.zeros(4))


def test_dynamics_matches_direct_formula():
    r = np.random.default_rng(3)
    net = _zero_net(8, lambda_amp=2)
    net.w_up = Tensor(r.normal(size=net.w_up.shape), requires_grad=True)
    net.w_down = Tensor(r.normal(size=net.w_down.shape), requires_grad=True)
    z = r.normal(size=4)
    t, n = 1.5, 8

    def f(z, t):
        h = z @ net.w_up.data
        h = h / (1.0 + np.exp(-h))
        return h @ net.w_down.data + xi(t, 8, XiForm.PAPER_PRINTED)

    h = (t - 1.0) / n
    expected = z
    for k in range(n):
        t0 = 1.0 + k * h
        k1 = f(expected, t0)
        k2 = f(expected + h / 2 * k1, t0 + h / 2)
        k3 = f(expected + h / 2 * k2, t0 + h / 2)
        k4 = f(expected + h * k3, t0 + h)
        expected = expected + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    out = solve(z, t, net, XiForm.PAPER_PRINTED, steps_per_unit=1)
    assert max_rel_err(out.data, expected, floor=1e-12) < 1e-10


def test_dynamics_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        solve(np.zeros(3), 2.0, _zero_net(8))
    net = _zero_net(8)
    with pytest.raises(ValueError):
        ad.rk4_solve(np.zeros(4), net.w_up, net.w_down, np.zeros((2, 4, 3)), 0.1)
    with pytest.raises(ValueError):
        ad.rk4_solve(np.zeros(4), net.w_up, net.w_up, np.zeros((2, 4, 4)), 0.1)
    with pytest.raises(ValueError):
        ad.rk4_solve(np.zeros(4), net.w_up, net.w_down, np.zeros((0, 4, 4)), 0.1)


def test_odenet_validation():
    with pytest.raises(ValueError):
        OdeNet(7)
    with pytest.raises(ValueError):
        OdeNet(8, lambda_amp=0)
    net = OdeNet(8, lambda_amp=3)
    assert net.w_up.shape == (4, 24)
    assert net.w_down.shape == (24, 4)
    assert np.all(net.w_down.data == 0.0)


# ---------------------------------------------------------------------------
# solver


def test_solve_at_one_returns_input_unchanged():
    net = _zero_net(8)
    z = np.log(default_basis(8).theta)
    out = solve(z, 1.0, net)
    assert np.array_equal(out.data, z)


def test_solve_zero_net_reduces_to_geometric_profile():
    # analytic: integral of -2i/((d-2)s) from 1 to t is log alpha_yarn(t)
    for d in (8, 64):
        base = default_basis(d)
        net = _zero_net(d)
        for t in (2.0, 4.0):
            solved = solve_basis(base, t, net, XiForm.LOG_DERIVATIVE)
            expected = scale_basis(base, alpha_yarn(t, d))
            assert max_rel_err(solved.theta, expected.theta) < 1e-6


def test_solve_rk4_order_from_step_halving():
    d, t = 8, 4.0
    base = default_basis(d)
    net = _zero_net(d)
    exact = np.log(base.theta) + np.log(alpha_yarn(t, d))
    err = []
    for spu in (4, 8):
        z = solve(np.log(base.theta), t, net, XiForm.LOG_DERIVATIVE, steps_per_unit=spu)
        err.append(np.max(np.abs(z.data - exact)))
    assert err[1] > 0
    assert err[0] / err[1] >= 12.0  # RK4: ratio near 16


def test_solve_step_count_floor():
    # tiny intervals still integrate with at least 8 steps and stay accurate
    d = 8
    base = default_basis(d)
    net = _zero_net(d)
    t = 1.05
    solved = solve_basis(base, t, net)
    expected = scale_basis(base, alpha_yarn(t, d))
    assert max_rel_err(solved.theta, expected.theta) < 1e-9


def test_solve_rejects_bad_inputs():
    net = _zero_net(8)
    with pytest.raises(ValueError):
        solve(np.zeros(4), 0.5, net)
    with pytest.raises(ValueError):
        solve(np.zeros(4), 2.0, net, steps_per_unit=0)


def test_solve_gradients_match_finite_differences():
    d = 8
    r = np.random.default_rng(7)
    base_theta = default_basis(d).theta
    w_up0 = r.normal(scale=0.4, size=(4, 8))
    w_down0 = r.normal(scale=0.4, size=(8, 4))

    def loss_value(w_up, w_down):
        net = _zero_net(d)
        net.w_up = Tensor(w_up, requires_grad=True)
        net.w_down = Tensor(w_down, requires_grad=True)
        z = solve(np.log(base_theta), 3.0, net, steps_per_unit=4)
        return ad.sum_all(ad.exp(z)), net

    loss, net = loss_value(w_up0, w_down0)
    ad.backward(loss)
    for name, var, base_arr in (("w_up", net.w_up, w_up0), ("w_down", net.w_down, w_down0)):
        flat = base_arr.copy().reshape(-1)
        fd = np.zeros_like(flat)
        h = 1e-6
        for i in range(flat.size):
            old = flat[i]
            for sign, slot in ((1, 0), (-1, 1)):
                flat[i] = old + sign * h
                args = (
                    (flat.reshape(base_arr.shape), w_down0)
                    if name == "w_up"
                    else (w_up0, flat.reshape(base_arr.shape))
                )
                with ad.no_grad():
                    val = loss_value(*args)[0].item()
                if slot == 0:
                    fp = val
                else:
                    fm = val
            flat[i] = old
            fd[i] = (fp - fm) / (2 * h)
        err = max_rel_err(var.grad.reshape(-1), fd, floor=1e-6)
        assert err < 1e-4, f"{name}: {err}"


def _solve_and_grads(fn, dtype, form, spu, t):
    r = np.random.default_rng(5)
    d = 16
    net = OdeNet(d, 2, dtype=dtype)
    net.w_up = Tensor(r.normal(scale=0.3, size=net.w_up.shape).astype(dtype), requires_grad=True)
    net.w_down = Tensor(r.normal(scale=0.3, size=net.w_down.shape).astype(dtype), requires_grad=True)
    z1 = Tensor(np.log(default_basis(d).theta).astype(dtype), requires_grad=True)
    weights = ad.constant(r.normal(size=d // 2).astype(dtype))
    out = fn(z1, t, net, form, spu)
    ad.backward(ad.sum_all(ad.mul(out, weights)))
    return out.data, z1.grad, net.w_up.grad, net.w_down.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_solve_matches_unrolled_reference_bitwise(dtype):
    # the one-node solve and its discrete adjoint against RK4 unrolled into
    # elementary tape ops: output and all three gradients, bit for bit
    for form, spu, t in itertools.product(XiForm, (1, 2, 8), (1.05, 3.3, 7.77, 16.0)):
        fused = _solve_and_grads(solve, dtype, form, spu, t)
        unrolled = _solve_and_grads(unrolled_solve, dtype, form, spu, t)
        for name, a, b in zip(("output", "z1", "w_up", "w_down"), fused, unrolled):
            assert a.dtype == dtype
            assert np.array_equal(a, b), f"{name} differs at {form}, spu {spu}, t {t}"


def test_solve_is_one_tape_node():
    net = OdeNet(8, dtype=np.float64)
    z1 = Tensor(np.log(default_basis(8).theta), requires_grad=True)
    out = solve(z1, 3.3, net)
    assert out._parents == (z1, net.w_up, net.w_down)
    assert all(not p._parents for p in out._parents)
    assert out._backward.__qualname__.split(".")[0] == "rk4_solve"
    assert solve(z1, 1.0, net) is z1
    with ad.no_grad():
        quiet = solve(z1, 3.3, net)
    assert quiet._backward is None and quiet._parents == () and not quiet.requires_grad
    assert np.array_equal(quiet.data, out.data)


# ---------------------------------------------------------------------------
# factor sampling


def test_sample_factor_degenerate():
    rng = np.random.default_rng(0)
    assert all(sample_train_factor(1.0, rng) == 1.0 for _ in range(5))


def test_sample_factor_uniform_statistics():
    rng = np.random.default_rng(123)
    draws = np.array([sample_train_factor(16.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 8.5) < 0.1
    assert draws.min() >= 1.0 and draws.max() <= 16.0


def test_sample_factor_reproducible():
    a = [sample_train_factor(8.0, np.random.default_rng(9)) for _ in range(5)]
    b = [sample_train_factor(8.0, np.random.default_rng(9)) for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# position plans


def test_plan_natural():
    assert np.array_equal(position_plan(8, 1.0, PlanMode.NATURAL), np.arange(1.0, 9.0))


def test_plan_uniform_example():
    assert np.array_equal(position_plan(4, 2.0, PlanMode.UNIFORM_SCALED), [2.0, 4.0, 6.0, 8.0])


def test_plan_uniform_degenerate_matches_natural():
    a = position_plan(8, 1.0, PlanMode.NATURAL)
    b = position_plan(8, 1.0, PlanMode.UNIFORM_SCALED)
    assert np.array_equal(a, b)


def test_plan_random_degenerate_is_natural():
    plan = position_plan(16, 1.0, PlanMode.RANDOM_SAMPLED, 0)
    assert np.array_equal(plan, np.arange(1.0, 17.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2**31 - 1),
    st.integers(2, 64),
    st.floats(1.0, 16.0),
    st.sampled_from(list(PlanMode)),
)
def test_plan_properties_all_modes(seed, train_len, t_prime, mode):
    pos = position_plan(train_len, t_prime, mode, seed)
    assert pos.shape == (train_len,)
    assert np.all(np.diff(pos) > 0)  # strictly increasing => distinct
    assert pos[0] >= 1.0
    assert pos[-1] <= t_prime * train_len + 1e-9
    if mode is PlanMode.RANDOM_SAMPLED:
        assert np.array_equal(pos, np.round(pos))  # integers
    if mode is PlanMode.NATURAL:
        assert np.array_equal(pos, np.arange(1.0, train_len + 1.0))


def test_plan_seed_reproducible():
    a = position_plan(8, 4.0, PlanMode.RANDOM_SAMPLED, 77)
    b = position_plan(8, 4.0, PlanMode.RANDOM_SAMPLED, 77)
    assert np.array_equal(a, b)
    # the draw is 8 distinct integers in [0, 32) from a generator seeded 77
    draw = np.random.default_rng(77).choice(32, size=8, replace=False)
    assert np.array_equal(a, np.sort(draw) + 1.0)
    with pytest.raises(ValueError, match="rng_seed"):
        position_plan(8, 4.0, PlanMode.RANDOM_SAMPLED)


# ---------------------------------------------------------------------------
# basis cache


def test_cache_single_entry_matches_base():
    base = default_basis(8)
    cache = build_cache(_zero_net(8), XiForm.LOG_DERIVATIVE, [1.0], base, 128)
    assert max_rel_err(cache.bases[0].theta, base.theta) < 1e-12


def test_cache_entries_match_fresh_solves():
    base = default_basis(8)
    net = _zero_net(8)
    cache = build_cache(net, XiForm.LOG_DERIVATIVE, [1.0, 2.0, 3.0, 4.0], base, 128)
    for t, cached in zip(cache.factors, cache.bases):
        fresh = solve_basis(base, t, net, XiForm.LOG_DERIVATIVE)
        assert np.array_equal(cached.theta, fresh.theta)


def test_cache_rejects_unsorted():
    base = default_basis(8)
    with pytest.raises(ValueError):
        build_cache(_zero_net(8), XiForm.LOG_DERIVATIVE, [2.0, 1.0], base, 128)
    with pytest.raises(ValueError):
        BasisCache(128, (0.5, 1.0), (base, base))


def test_lookup_exact_fit_and_upper_bound():
    base = default_basis(8)
    net = _zero_net(8)
    cache = build_cache(net, XiForm.LOG_DERIVATIVE, [1.0, 2.0, 4.0, 8.0], base, 128)
    session = CacheSession(cache, lambda t: solve_basis(base, t, net))
    t, basis = session.lookup(128)
    assert t == 1.0 and np.array_equal(basis.theta, cache.bases[0].theta)
    t, basis = session.lookup(300)  # 2*128 < 300 <= 4*128
    assert t == 4.0 and np.array_equal(basis.theta, cache.bases[2].theta)
    t, _ = session.lookup(1024)
    assert t == 8.0


def test_lookup_beyond_cache_solves_on_demand():
    base = default_basis(8)
    net = _zero_net(8)
    cache = build_cache(net, XiForm.LOG_DERIVATIVE, [1.0, 2.0, 4.0, 8.0], base, 128)

    def solver(t):
        return solve_basis(base, t, net, XiForm.LOG_DERIVATIVE)

    session = CacheSession(cache, solver)
    t, basis = session.lookup(2000)
    assert t == 2000 / 128 == 15.625
    assert np.array_equal(basis.theta, solver(15.625).theta)
    # recorded in the session, not the cache
    assert 15.625 in session._extra
    assert cache.factors == (1.0, 2.0, 4.0, 8.0)
    other = CacheSession(cache, solver)
    assert not other._extra


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4096))
def test_lookup_is_conservative(seq_len):
    base = default_basis(8)
    net = _zero_net(8)
    cache = build_cache(net, XiForm.LOG_DERIVATIVE, [1.0, 2.0, 4.0, 8.0], base, 128)
    session = CacheSession(cache, lambda t: solve_basis(base, t, net))
    t, _ = session.lookup(seq_len)
    assert t * cache.native_len >= seq_len


def test_cache_json_roundtrip():
    base = default_basis(8)
    cache = build_cache(_zero_net(8), XiForm.LOG_DERIVATIVE, [1.0, 2.0], base, 32)
    doc = json.loads(json.dumps(cache_to_json(cache)))
    assert doc["native_len"] == 32 and doc["head_dim"] == 8
    assert [e["t"] for e in doc["entries"]] == list(cache.factors)
    for entry, basis in zip(doc["entries"], cache.bases):
        assert np.array_equal(entry["theta"], basis.theta)
