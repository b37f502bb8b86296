import inspect
import math
import re

import numpy as np
import pytest

from helpers import grad_check, max_rel_err, numerical_grad, scale, weighted_sum

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.checkpoint import load_checkpoint, save_checkpoint
from ropekit.optim import Adam, clip_grad_norm


def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_value():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_grad_of_sum_is_ones_bt():
    a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
    b_arr = rng().normal(size=(4, 2))
    loss = weighted_sum(ad.matmul(a, Tensor(b_arr)), np.ones((3, 2)))
    ad.backward(loss)
    closed = np.ones((3, 2)) @ b_arr.T
    assert max_rel_err(a.grad, closed) < 1e-12

    def f(arr):
        return float((arr @ b_arr).sum())

    fd = numerical_grad(f, a.data.copy())
    assert max_rel_err(a.grad, fd) < 1e-5


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))


def test_matmul_folds_leading_axes_into_one_product():
    # a [k, n] weight applied to a[..., k] is the one 2-D product over the
    # flattened leading axes, bit for bit, in the forward pass and both VJPs
    r = rng()
    a = Tensor(r.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
    g = r.normal(size=(2, 3, 5)).astype(np.float32)
    out = ad.matmul(a, w)
    ad.backward(weighted_sum(out, g))
    flat_a, flat_g = a.data.reshape(6, 4), g.reshape(6, 5)
    assert np.array_equal(out.data, np.matmul(flat_a, w.data).reshape(2, 3, 5))
    assert np.array_equal(a.grad, np.matmul(flat_g, w.data.T).reshape(2, 3, 4))
    assert np.array_equal(w.grad, np.matmul(flat_a.T, flat_g))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 2))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 2, 3, 4))), Tensor(np.ones((2, 4, 2))))


# ---------------------------------------------------------------------------
# elementwise suite


def test_silu_at_zero():
    assert ad.silu(Tensor([0.0])).data[0] == 0.0


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_two_branch_reference_bitwise(dtype):
    tails = [-1000.0, -200.0, -90.0, -40.0, -17.0, 17.0, 40.0, 90.0, 200.0, 1000.0]
    z = np.concatenate([[0.0, -0.0], tails, rng().normal(size=500) * 6.0]).astype(dtype)
    got = ad._sigmoid(z)
    assert got.dtype == dtype
    assert np.array_equal(got.view(np.uint8), _two_branch_sigmoid(z).view(np.uint8))


def test_silu_derivative_closed_form():
    x = Tensor([1.0], requires_grad=True)
    ad.backward(weighted_sum(ad.silu(x), np.ones(1)))
    sig = 1.0 / (1.0 + math.exp(-1.0))
    expected = sig * (1.0 + 1.0 * (1.0 - sig))
    assert abs(x.grad[0] - expected) < 1e-12
    fd = numerical_grad(lambda a: float((a / (1 + np.exp(-a)))[0]), np.array([1.0]))
    assert abs(x.grad[0] - fd[0]) < 1e-8


def test_shape_broadcast_rejected():
    with pytest.raises(ValueError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    # a scalar operand is not broadcast either, bare or as a tensor
    with pytest.raises(ValueError):
        ad.add(Tensor(np.ones((2, 3))), 1.0)
    with pytest.raises(ValueError):
        ad.add(Tensor(3.0), Tensor(np.ones((2, 3))))


def test_dtype_mixing_rejected():
    with pytest.raises(TypeError):
        ad.add(Tensor(np.ones(2, dtype=np.float32)), Tensor(np.ones(2)))
    with pytest.raises(TypeError):
        ad.matmul(Tensor(np.ones((2, 2), dtype=np.float32)), Tensor(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# per-op gradient checks against central finite differences

_R = np.random.default_rng(42)
_A34 = _R.normal(size=(3, 4))
_POS = np.abs(_R.normal(size=(3, 4))) + 0.5
_IDX = _R.integers(0, 5, size=(2, 3))
_B42 = _R.normal(size=(4, 2))
_B23 = _R.normal(size=(2, 3))
_R2 = np.random.default_rng(43)  # a second stream keeps _R's draws as they were
_ROT_X = _R2.normal(size=(2, 3, 6))
_ROT_POS = np.array([0.5, 2.0, 9.0])
_ROT_THETA = np.array([1.0, 0.3, 0.02])
_CE_TARGETS = _R2.integers(0, 4, size=3)
_A234 = _R2.normal(size=(2, 3, 4))
_Q, _K, _V = _R2.normal(size=(3, 2, 4, 3))
# 130 rows: two query blocks of the attention kernel, the second of 2 rows.
_QB, _KB, _VB = np.random.default_rng(44).normal(size=(3, 1, 130, 2))
# a 3-dim state, 6 hidden units and 4 RK4 steps of 0.3
_R3 = np.random.default_rng(45)
_ODE_Z, _ODE_UP, _ODE_DOWN = _R3.normal(size=3), _R3.normal(scale=0.5, size=(3, 6)), _R3.normal(scale=0.5, size=(6, 3))
_ODE_DRIFT = _R3.normal(size=(4, 4, 3))

UNARY_CASES = [
    ("exp", lambda x: ad.exp(x), _A34),
    ("silu", lambda x: ad.silu(x), _A34),
    ("scale", lambda x: scale(x, -2.5), _A34),
    ("neg", lambda x: scale(x, -1.0), _A34),
    ("add_const", lambda x: ad.add(x, Tensor(_A34)), _A34),
    ("matmul_left", lambda x: ad.matmul(x, Tensor(_B42)), _A34),
    ("matmul_right", lambda x: ad.matmul(Tensor(_B23), x), _A34),
    ("matmul_fold_x", lambda x: ad.matmul(x, Tensor(_B42)), _A234),
    ("matmul_fold_weight", lambda w: ad.matmul(Tensor(_A234), w), _B42),
    ("transpose", lambda x: ad.transpose(x, (1, 0)), _A34),
    ("reshape", lambda x: ad.reshape(x, (2, 6)), _A34),
    ("rotate_pairs", lambda x: ad.rotate_pairs(x, _ROT_POS, Tensor(_ROT_THETA)), _ROT_X),
    ("rms_norm", lambda x: ad.rms_norm(x, Tensor(_POS[0]), 1e-6), _A34),
    ("rms_norm_gain", lambda g: ad.rms_norm(Tensor(_A34), g, 1e-6), _POS[0]),
    ("causal_attention_q", lambda q: ad.causal_attention(q, Tensor(_K), Tensor(_V), 0.7), _Q),
    ("causal_attention_k", lambda k: ad.causal_attention(Tensor(_Q), k, Tensor(_V), 0.7), _K),
    ("causal_attention_v", lambda v: ad.causal_attention(Tensor(_Q), Tensor(_K), v, 0.7), _V),
    ("causal_attention_blocks_q", lambda q: ad.causal_attention(q, Tensor(_KB), Tensor(_VB), 0.7), _QB),
    ("causal_attention_blocks_k", lambda k: ad.causal_attention(Tensor(_QB), k, Tensor(_VB), 0.7), _KB),
    ("causal_attention_blocks_v", lambda v: ad.causal_attention(Tensor(_QB), Tensor(_KB), v, 0.7), _VB),
    ("rk4_solve_z", lambda z: ad.rk4_solve(z, Tensor(_ODE_UP), Tensor(_ODE_DOWN), _ODE_DRIFT, 0.3), _ODE_Z),
    ("rk4_solve_w_up", lambda w: ad.rk4_solve(Tensor(_ODE_Z), w, Tensor(_ODE_DOWN), _ODE_DRIFT, 0.3), _ODE_UP),
    ("rk4_solve_w_down", lambda w: ad.rk4_solve(Tensor(_ODE_Z), Tensor(_ODE_UP), w, _ODE_DRIFT, 0.3), _ODE_DOWN),
    ("gather", lambda x: ad.gather_rows(x, _IDX), _R.normal(size=(5, 3))),
    ("softmax_cross_entropy", lambda x: ad.softmax_cross_entropy(x, _CE_TARGETS), _A34),
]


@pytest.mark.parametrize("name,build,x", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_gradcheck_op(name, build, x):
    grad_check(build, x, tol=1e-5)


# Public names of ropekit.autodiff that record no tape node.
_NOT_OPS = {"no_grad", "as_tensor", "backward"}


def _recording_op(node):
    return node._backward.__qualname__.split(".")[0]


def test_every_tape_op_has_a_gradcheck_row():
    ops = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and not name.startswith("_") and name not in _NOT_OPS
    }
    checked = {_recording_op(build(Tensor(x, requires_grad=True))) for _, build, x in UNARY_CASES}
    assert ops - checked == set(), "tape ops without a test_gradcheck_op row"


def test_causal_attention_exactness():
    r = np.random.default_rng(7)
    q, k, v = (Tensor(r.normal(size=(2, 5, 3)), requires_grad=True) for _ in range(3))
    out = ad.causal_attention(q, k, v, 1.3)
    for b in range(2):
        for i in range(5):
            z = np.array([1.3 * sum(q.data[b, i, c] * k.data[b, j, c] for c in range(3)) for j in range(i + 1)])
            w = np.exp(z - z.max())
            w /= w.sum()
            want = [sum(w[j] * v.data[b, j, c] for j in range(i + 1)) for c in range(3)]
            assert np.allclose(out.data[b, i], want, rtol=1e-13, atol=1e-15)
    _assert_row_reads_causal_rows(q, k, v, out, range(5), r)
    # 200 positions are two query blocks: rows on both sides of the block edge
    r = np.random.default_rng(8)
    q, k, v = (Tensor(r.normal(size=(2, 200, 3)), requires_grad=True) for _ in range(3))
    _assert_row_reads_causal_rows(q, k, v, ad.causal_attention(q, k, v, 1.3), (0, 127, 128, 199), r)


def _assert_row_reads_causal_rows(q, k, v, out, rows, r):
    # output row i reads only q row i and the k and v rows up to i: every
    # other row gets exactly zero gradient from it
    s = q.shape[1]
    for i in rows:
        q.grad = k.grad = v.grad = None
        g = np.zeros(out.shape)
        g[:, i] = r.normal(size=(2, 3))
        ad.backward(weighted_sum(out, g))
        assert np.array_equal(k.grad[:, i + 1 :], np.zeros((2, s - 1 - i, 3)))
        assert np.array_equal(v.grad[:, i + 1 :], np.zeros((2, s - 1 - i, 3)))
        assert np.array_equal(np.delete(q.grad, i, axis=1), np.zeros((2, s - 1, 3)))
        assert np.all(v.grad[:, : i + 1] != 0.0)
        assert i == 0 or np.all(k.grad[:, : i + 1] != 0.0)


def test_causal_attention_blocks_match_dense_reference():
    # 300 positions are three query blocks; a dense float64 kernel over the
    # full masked [S, S] scores and its closed-form VJP are the reference.
    r = np.random.default_rng(11)
    q0, k0, v0, g = r.normal(size=(4, 2, 3, 300, 5))
    scale = 0.6
    z = np.where(np.tril(np.ones((300, 300), dtype=bool)), scale * q0 @ k0.swapaxes(-1, -2), -np.inf)
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    g_w = g @ v0.swapaxes(-1, -2)
    g_z = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True)) * scale
    q, k, v = (Tensor(x, requires_grad=True) for x in (q0, k0, v0))
    out = ad.causal_attention(q, k, v, scale)
    ad.backward(weighted_sum(out, g))
    for got, want in ((out.data, w @ v0), (q.grad, g_z @ k0), (k.grad, g_z.swapaxes(-1, -2) @ q0),
                      (v.grad, w.swapaxes(-1, -2) @ g)):
        assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 3, 256)))
    targets = np.zeros((2, 3), dtype=np.int64)
    loss = ad.softmax_cross_entropy(logits, targets)
    assert abs(loss.item() - math.log(256)) < 1e-12


def test_cross_entropy_saturated_correct():
    logits = np.zeros((1, 2, 5))
    targets = np.array([[1, 3]])
    logits[0, 0, 1] = 1000.0
    logits[0, 1, 3] = 1000.0
    loss = ad.softmax_cross_entropy(Tensor(logits), targets)
    assert loss.item() < 1e-9


def test_cross_entropy_matches_brute_force():
    r = rng()
    z = r.normal(size=(2, 3, 5)) * 3.0
    targets = r.integers(0, 5, size=(2, 3))
    loss = ad.softmax_cross_entropy(Tensor(z), targets)
    # brute force: direct log-sum-exp per position
    total = 0.0
    for b in range(2):
        for l in range(3):
            row = z[b, l]
            total += math.log(np.exp(row).sum()) - row[targets[b, l]]
    assert abs(loss.item() - total / 6) < 1e-10


def test_cross_entropy_target_range_checked():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(np.zeros((1, 2, 4))), np.array([[0, 4]]))


def test_cross_entropy_empty_mask_rejected():
    # the mean runs over every position, so an input with none has no loss
    with pytest.raises(ValueError, match="no positions"):
        ad.softmax_cross_entropy(Tensor(np.zeros((1, 0, 4))), np.zeros((1, 0), dtype=np.int64))


def test_cross_entropy_gradient():
    r = rng()
    z = r.normal(size=(2, 3, 5))
    targets = r.integers(0, 5, size=(2, 3))

    def build(t):
        return ad.softmax_cross_entropy(t, targets)

    grad_check(build, z, tol=1e-5)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_linear():
    x = Tensor([2.0], requires_grad=True)
    ad.backward(weighted_sum(scale(x, 3.0), np.ones(1)))
    assert x.grad[0] == 3.0


def test_backward_square():
    x = Tensor([5.0], requires_grad=True)
    xx = ad.reshape(x, (1, 1))
    ad.backward(ad.matmul(xx, xx))
    assert x.grad[0] == 10.0


def test_backward_accumulates_without_zeroing():
    x = Tensor([5.0], requires_grad=True)
    xx = ad.reshape(x, (1, 1))
    y = ad.matmul(xx, xx)
    ad.backward(y)
    ad.backward(y)
    assert x.grad[0] == 20.0


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_backward_grads_are_not_shared_between_nodes():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ad.backward(weighted_sum(ad.add(a, b), np.ones(3)))
    a.grad *= 5.0  # clip_grad_norm scales grads in place
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(a.grad, np.full(3, 5.0))


def test_backward_deep_chain():
    # deeper than the default python recursion limit
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(3000):
        y = scale(y, 1.0)
    ad.backward(weighted_sum(y, np.ones(1)))
    assert x.grad[0] == 1.0


def test_graph_purity_values_identical():
    r = rng()
    x = r.normal(size=(2, 4, 4))
    w = r.normal(size=(4, 4))

    def run(requires):
        xt = Tensor(x, requires_grad=requires)
        wt = Tensor(w, requires_grad=requires)
        return ad.causal_attention(ad.silu(xt), ad.matmul(xt, wt), xt, 0.5).data

    assert np.array_equal(run(True), run(False))
    with ad.no_grad():
        off = run(True)
    assert np.array_equal(off, run(True))


def test_determinism_bitwise():
    def run():
        r = np.random.default_rng(123)
        x = Tensor(r.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
        gain = Tensor(np.linspace(0.5, 1.5, 8, dtype=np.float32))
        y = weighted_sum(ad.causal_attention(ad.silu(x), ad.rms_norm(x, gain, 1e-6), x, 0.5), np.ones(64))
        ad.backward(y)
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(g1, g2)


def test_tensor_invariants():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.size == 6 and t.shape == (2, 3)
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32
    assert Tensor([1, 2]).dtype == np.float64  # non-float input promotes to f64


# ---------------------------------------------------------------------------
# adam


def _params(value):
    return {"w": Tensor(np.array(value, dtype=np.float64), requires_grad=True)}


def test_adam_zero_gradient_keeps_params():
    params = _params([1.0, -2.0])
    opt = Adam(params, lr=0.1)
    before = params["w"].data.copy()
    opt.step()  # no .grad counts as a zero gradient
    assert np.array_equal(params["w"].data, before)
    assert np.array_equal(opt.m["w"], np.zeros(2))


def test_adam_moments_decay_on_zero_grad():
    params = _params([1.0])
    opt = Adam(params, lr=0.0, beta1=0.9, beta2=0.99)
    opt.step_count = 1
    opt.m["w"][:] = 0.4
    opt.v["w"][:] = 0.09
    params["w"].grad = np.zeros(1)
    opt.step()
    assert np.allclose(opt.m["w"], [0.36], rtol=1e-15)
    assert np.allclose(opt.v["w"], [0.0891], rtol=1e-15)


def test_adam_first_step_closed_form():
    g = np.array([0.3, -0.7])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    params = _params([1.0, 1.0])
    params["w"].grad = g.copy()
    Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps).step()
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 1.0 - lr * g / (np.abs(g) + eps)
    assert np.allclose(params["w"].data, expected, rtol=1e-12)


def test_adam_two_step_trace_deterministic():
    def run():
        params = _params([0.5, -0.5])
        opt = Adam(params, lr=0.05, beta1=0.9, beta2=0.95)
        out = []
        for step in range(2):
            params["w"].grad = np.array([0.1 * (step + 1), -0.2])
            opt.step()
            out.append(params["w"].data.copy())
        return out

    a, b = run(), run()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_adam_nonfinite_norm_changes_nothing(bad):
    # a nan norm would skip the clip and an inf one scale by 0 (inf * 0 = nan):
    # either way the step must return the norm before it updates anything
    params = _params([0.5, -0.5])
    opt = Adam(params, lr=0.05, grad_clip=1.0)
    params["w"].grad = np.array([0.1, -0.2])
    opt.step()
    before = (params["w"].data.copy(), opt.m["w"].copy(), opt.v["w"].copy())
    params["w"].grad = np.array([bad, 0.3])
    norm = opt.step()
    assert not math.isfinite(norm)
    assert opt.step_count == 1
    for got, want in zip((params["w"].data, opt.m["w"], opt.v["w"]), before):
        assert np.array_equal(got, want)
    assert params["w"].grad[1] == 0.3  # left unclipped


def test_clip_grad_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_grad_norm(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = math.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
    assert abs(clipped - 1.0) < 1e-12
    grads2 = {"a": np.array([0.3])}
    norm2 = clip_grad_norm(grads2, 1.0)
    assert abs(norm2 - 0.3) < 1e-12
    assert grads2["a"][0] == 0.3


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_roundtrip(tmp_path):
    r = rng()
    params = {
        "emb": Tensor(r.normal(size=(4, 3)).astype(np.float32), requires_grad=True),
        "w": Tensor(r.normal(size=(2, 2)), requires_grad=True),
    }
    save_checkpoint(tmp_path / "ckpt", params, {"note": "x"})
    loaded, extra = load_checkpoint(tmp_path / "ckpt")
    assert extra == {"note": "x"}
    assert set(loaded) == {"emb", "w"}
    assert loaded["emb"].dtype == np.float32 and loaded["w"].dtype == np.float64
    assert np.array_equal(loaded["emb"], params["emb"].data)
    assert np.array_equal(loaded["w"], params["w"].data)


def test_checkpoint_manifest_lists_names_and_shapes(tmp_path):
    import json

    params = {"w": Tensor(np.zeros((2, 3), dtype=np.float32))}
    save_checkpoint(tmp_path / "c", params, {})
    doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert doc["format_version"] == 1
    assert doc["tensors"][0]["name"] == "w"
    assert doc["tensors"][0]["shape"] == [2, 3]
    assert doc["tensors"][0]["dtype"] == "float32"


_DROP = object()  # delete the field instead of setting it


@pytest.mark.parametrize("field, value, message", [
    ("dtype", "bfloat16", "has unknown dtype tag 'bfloat16'"),
    ("offset", 10_000, "spans bytes 10000..10024"),
    ("offset", -4, "spans bytes -4..20"),
    ("nbytes", 20, "has 20 bytes, not the size of float32 [2, 3]"),
    ("shape", [3, 3], "has 24 bytes, not the size of float32 [3, 3]"),
    *(pytest.param(key, _DROP, f"has no '{key}'", id=f"no_{key}")
      for key in ("dtype", "shape", "offset", "nbytes")),
    pytest.param("offset", "0", "needs an integer offset, nbytes and shape list", id="offset_str"),
    pytest.param("shape", None, "needs an integer offset, nbytes and shape list", id="shape_null"),
    pytest.param("shape", [-2, 3], "has negative sizes (nbytes 24, shape [-2, 3])", id="shape_negative"),
    pytest.param("nbytes", -32, "has negative sizes (nbytes -32, shape [2, 3])", id="nbytes_negative"),
])
def test_checkpoint_damaged_manifest_names_the_tensor(tmp_path, field, value, message):
    import json

    save_checkpoint(tmp_path / "c", {"w": Tensor(np.zeros((2, 3), dtype=np.float32))}, {})
    manifest = tmp_path / "c" / "manifest.json"
    doc = json.loads(manifest.read_text())
    if value is _DROP:
        del doc["tensors"][0][field]
    else:
        doc["tensors"][0][field] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"tensor 'w' {re.escape(message)}"):
        load_checkpoint(tmp_path / "c")


@pytest.mark.parametrize("damage, message", [
    (lambda doc: doc.pop("tensors"), "checkpoint manifest has no 'tensors' list"),
    (lambda doc: doc["tensors"][0].pop("name"), "manifest entry #0 has no 'name'"),
    (lambda doc: doc.update(extra=[]), "checkpoint manifest 'extra' is not a JSON object: []"),
    (lambda doc: doc.update(extra=None), "checkpoint manifest 'extra' is not a JSON object: None"),
    # a string damage is the whole manifest text; json.loads raises
    # RecursionError, not a ValueError, on the deeply nested one
    ("{", "checkpoint manifest is not valid JSON: "),
    ("[" * 100_000, "checkpoint manifest is not valid JSON: "),
], ids=["no_tensors", "no_name", "extra_list", "extra_null", "not_json", "nested_too_deep"])
def test_checkpoint_manifest_without_tensors_or_name_is_rejected(tmp_path, damage, message):
    import json

    save_checkpoint(tmp_path / "c", {"w": Tensor(np.zeros(2, dtype=np.float32))}, {})
    manifest = tmp_path / "c" / "manifest.json"
    doc = json.loads(manifest.read_text())
    if isinstance(damage, str):
        manifest.write_text(damage)
    else:
        damage(doc)
        manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(tmp_path / "c")


def test_checkpoint_failed_params_write_leaves_no_manifest(tmp_path):
    # A directory in place of params.bin makes its write fail; the manifest
    # must not be on disk then, since it would describe bytes that are not.
    ckpt = tmp_path / "c"
    (ckpt / "params.bin").mkdir(parents=True)
    (ckpt / "params.bin" / "keep").write_text("x")
    with pytest.raises(OSError):
        save_checkpoint(ckpt, {"w": Tensor(np.zeros(2, dtype=np.float32))}, {})
    assert not (ckpt / "manifest.json").exists()
    assert not (ckpt / "params.bin.tmp").exists()


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")
