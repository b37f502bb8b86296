import tracemalloc

import numpy as np
import pytest

from helpers import reference_forward, weighted_sum

from ropekit import autodiff as ad
from ropekit import model
from ropekit.autodiff import Tensor
from ropekit.model import ModelConfig, forward, init_params, log_scale_mult
from ropekit.rotary import alpha, default_basis, scale_basis


def tiny_cfg(**kw):
    base = dict(vocab=11, n_layers=2, n_heads=2, d_model=16, train_len=16, method="rope")
    base.update(kw)
    return ModelConfig(**base).validate()


def natural(s):
    return np.arange(1, s + 1, dtype=np.float64)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4).validate()  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(d_model=12, n_heads=4).validate()  # odd head dim
    with pytest.raises(ValueError):
        ModelConfig(method="alibi").validate()
    with pytest.raises(ValueError):
        ModelConfig(t_train=0.5).validate()
    with pytest.raises(ValueError, match="seed must"):
        ModelConfig(seed=-1).validate()  # np.random.default_rng rejects it
    cfg = ModelConfig(d_model=64, n_heads=4).validate()
    assert cfg.d_head == 16


def test_init_params_shapes_and_tying():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    assert params["tok_emb"].shape == (11, 16)
    assert params["layers.0.w1"].shape == (16, 64)
    assert params["layers.1.w2"].shape == (64, 16)
    assert "head" not in params  # output head is the embedding, tied


# ---------------------------------------------------------------------------
# forward behavior


def test_forward_shapes_and_single_token():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    logits = forward(params, cfg, [[3]], [1.0], default_basis(cfg.d_head))
    assert logits.shape == (1, 1, 11)
    again = forward(params, cfg, [[3]], [1.0], default_basis(cfg.d_head))
    assert np.array_equal(logits.data, again.data)


def test_forward_validates_positions():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    basis = default_basis(cfg.d_head)
    with pytest.raises(ValueError):
        forward(params, cfg, [[1, 2, 3]], [1.0, 2.0], basis)
    with pytest.raises(ValueError):
        forward(params, cfg, [[1, 2, 3]], [2.0, 1.0, 3.0], basis)


def test_causality_future_permutation_exact():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)
    basis = default_basis(cfg.d_head)
    rng = np.random.default_rng(0)
    toks = rng.integers(0, cfg.vocab, size=(1, 10))
    j = 4
    permuted = toks.copy()
    permuted[0, j + 1 :] = rng.permutation(permuted[0, j + 1 :])
    a = forward(params, cfg, toks, natural(10), basis).data
    b = forward(params, cfg, permuted, natural(10), basis).data
    assert np.array_equal(a[:, : j + 1, :], b[:, : j + 1, :])


def test_causality_gradients_exactly_zero(monkeypatch):
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    basis = default_basis(cfg.d_head)
    rng = np.random.default_rng(1)
    toks = rng.integers(0, cfg.vocab, size=(2, 8))
    # the embedding lookup returns a leaf of its own, so backward leaves the
    # gradient with respect to each embedded position on it
    embedded = Tensor(params["tok_emb"].data[toks], requires_grad=True)
    monkeypatch.setattr(ad, "gather_rows", lambda table, index: embedded)
    j = 3
    logits = forward(params, cfg, toks, natural(8), basis)
    w = np.zeros(logits.shape)
    w[:, j, :] = rng.normal(size=(2, cfg.vocab))
    ad.backward(weighted_sum(logits, w))
    future = embedded.grad[:, j + 1 :, :]
    past = embedded.grad[:, : j + 1, :]
    assert np.all(future == 0.0)
    assert np.any(past != 0.0)


def _op(node):
    return node._backward.__qualname__.split(".")[0] if node._backward else None


def test_projections_are_one_tape_node():
    # each weight multiplies its whole [B, S, d_in] input in one matmul node,
    # with no flattening reshape on either side, and so does the tied head;
    # the shape is criterion 7's
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, train_len=128).validate()
    params = init_params(cfg)
    toks, targets = np.random.default_rng(5).integers(0, cfg.vocab, size=(2, 8, 128))
    logits = forward(params, cfg, toks, natural(128), default_basis(cfg.d_head))
    nodes = ad._toposort(ad.softmax_cross_entropy(logits, targets))
    for i in range(cfg.n_layers):
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            weight = params[f"layers.{i}.{name}"]
            (proj,) = [n for n in nodes if any(p is weight for p in n._parents)]
            x, w = proj._parents
            assert _op(proj) == "matmul" and w is weight
            assert x.shape == (8, 128, weight.shape[0])
            assert proj.shape == (8, 128, weight.shape[1])
    x, head = logits._parents
    assert _op(logits) == "matmul" and logits.shape == (8, 128, cfg.vocab)
    assert _op(x) == "rms_norm" and x.shape == (8, 128, cfg.d_model)
    assert _op(head) == "transpose" and head._parents == (params["tok_emb"],)
    assert sum(n._backward is not None for n in nodes) == 49


def test_backward_keeps_grads_on_leaves_only(monkeypatch):
    # Only leaves get a .grad, and each equals the sum of the flows that the
    # closures pass it, which is what backward gave when every node kept one.
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)
    theta = Tensor(default_basis(cfg.d_head).theta.astype(np.float32), requires_grad=True)
    rng = np.random.default_rng(2)
    toks, targets = rng.integers(0, cfg.vocab, size=(2, 3, 7))
    loss = ad.softmax_cross_entropy(forward(params, cfg, toks, natural(7), theta), targets)
    ad.backward(loss)

    order = ad._toposort(loss)
    flows = {id(loss): np.ones_like(loss.data)}

    def keep(t, g):
        flows[id(t)] = g if id(t) not in flows else flows[id(t)] + g

    monkeypatch.setattr(ad, "_accum", keep)
    for node in reversed(order):
        if node._backward is not None and id(node) in flows:
            node._backward(flows[id(node)])
    leaves = [n for n in order if not n._parents]
    assert len(leaves) == len(params) + 1
    assert all(n.grad is None for n in order if n._parents)
    for leaf in leaves:
        assert np.array_equal(leaf.grad, flows[id(leaf)])


def test_attention_is_one_tape_node():
    # q.k^T, the scale, the causal mask, the softmax and att.v are one
    # causal_attention node per layer, fed by the rotated q and k and by v
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    toks = np.random.default_rng(1).integers(0, cfg.vocab, size=(2, 6))
    nodes = ad._toposort(forward(params, cfg, toks, natural(6), default_basis(cfg.d_head)))

    def weight_of(node):  # the projection weight that a head tensor comes from
        while _op(node) != "matmul":
            node = node._parents[0]
        return node._parents[1]

    att = [n for n in nodes if _op(n) == "causal_attention"]
    assert len(att) == cfg.n_layers
    for i, a in enumerate(att):
        assert [_op(p) for p in a._parents] == ["rotate_pairs", "rotate_pairs", "transpose"]
        assert [weight_of(p) for p in a._parents] == [params[f"layers.{i}.{w}"] for w in ("wq", "wk", "wv")]
        assert a.shape == (2, cfg.n_heads, 6, cfg.d_head)
    assert not [n for n in nodes if _op(n) == "matmul" and n.ndim == 4]


def test_no_grad_forward_peaks_below_two_score_arrays():
    # At S=1024 a layer's [B, H, S, S] attention weights dominate a no-grad
    # forward; each layer's are freed before the next layer makes its own.
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, train_len=128).validate()
    params = init_params(cfg)
    s = 1024
    toks = np.random.default_rng(9).integers(0, cfg.vocab, size=(1, s))
    score_bytes = cfg.n_heads * s * s * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        with ad.no_grad():
            forward(params, cfg, toks, natural(s), default_basis(cfg.d_head))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * score_bytes, f"peak {peak / score_bytes:.2f} score arrays"


def test_no_grad_forward_score_memory_is_linear_in_length():
    # At S=4096 the attention kernel holds one [B, H, ATTENTION_BLOCK, S]
    # slab of weights at a time, 1/32 of a [B, H, S, S] score array.
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, train_len=128).validate()
    params = init_params(cfg)
    s = 4096
    toks = np.random.default_rng(9).integers(0, cfg.vocab, size=(1, s))
    score_bytes = cfg.n_heads * s * s * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        with ad.no_grad():
            forward(params, cfg, toks, natural(s), default_basis(cfg.d_head))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * score_bytes, f"peak {peak / score_bytes:.3f} score arrays"


def test_rotary_and_rmsnorm_are_one_tape_node_each(monkeypatch):
    # Each rotate_sequences and rmsnorm call in forward adds exactly one node
    # to the tape: its output, whose parents are the call's tensor arguments.
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    theta = Tensor(default_basis(cfg.d_head).theta, requires_grad=True)
    calls = []

    def record(fn):
        def call(x, *rest):
            out = fn(x, *rest)
            calls.append((fn.__name__, (x, rest[-1]), out))
            return out

        return call

    monkeypatch.setattr(model, "rotate_sequences", record(model.rotate_sequences))
    monkeypatch.setattr(model, "rmsnorm", record(model.rmsnorm))
    toks = np.random.default_rng(1).integers(0, cfg.vocab, size=(2, 6))
    forward(params, cfg, toks, natural(6), theta)
    names = [name for name, _, _ in calls]
    assert names.count("rotate_sequences") == 2 * cfg.n_layers
    assert names.count("rmsnorm") == 2 * cfg.n_layers + 1
    for name, inputs, out in calls:
        before = {id(n) for t in inputs for n in ad._toposort(t)}
        added = [n for n in ad._toposort(out) if id(n) not in before]
        assert added == [out], f"{name} recorded {len(added)} nodes"
        assert out._parents == inputs


def test_forward_matches_dense_reference():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32, rng=np.random.default_rng(3))
    basis = default_basis(cfg.d_head)
    rng = np.random.default_rng(2)
    toks = rng.integers(0, cfg.vocab, size=(2, 9))
    pos = natural(9)
    mult = 1.25
    got = forward(params, cfg, toks, pos, basis, mult).data
    want = reference_forward(params, cfg, toks, pos, basis.theta, mult)
    assert np.max(np.abs(got - want)) < 1e-5 * max(1.0, float(np.max(np.abs(want))))


def test_forward_matches_dense_reference_float64():
    cfg = tiny_cfg(n_layers=1)
    params = init_params(cfg, dtype=np.float64, rng=np.random.default_rng(4))
    basis = default_basis(cfg.d_head)
    toks = np.random.default_rng(5).integers(0, cfg.vocab, size=(1, 6))
    got = forward(params, cfg, toks, natural(6), basis).data
    want = reference_forward(params, cfg, toks, natural(6), basis.theta)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_index_scaling_equals_basis_scaling_end_to_end():
    # positions m/t with theta vs positions m with theta/t: same logits
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32, rng=np.random.default_rng(6))
    base = default_basis(cfg.d_head)
    toks = np.random.default_rng(7).integers(0, cfg.vocab, size=(2, 12))
    t = 4.0
    a = forward(params, cfg, toks, natural(12) / t, base).data
    shrunk = scale_basis(base, alpha("pi", t, cfg.d_head))
    b = forward(params, cfg, toks, natural(12), shrunk).data
    assert np.max(np.abs(a - b)) < 1e-5 * max(1.0, float(np.max(np.abs(a))))


def test_attn_scale_mult_changes_only_scores():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)
    basis = default_basis(cfg.d_head)
    toks = np.random.default_rng(8).integers(0, cfg.vocab, size=(1, 5))
    a = forward(params, cfg, toks, natural(5), basis, 1.0).data
    b = forward(params, cfg, toks, natural(5), basis, 1.3).data
    assert not np.array_equal(a, b)
    # multiplier 1 at the training length leaves the standard path untouched
    c = forward(params, cfg, toks, natural(5), basis, 1.0).data
    assert np.array_equal(a, c)


def test_theta_gradients_flow_through_forward():
    cfg = tiny_cfg(n_layers=1)
    params = init_params(cfg, dtype=np.float64)
    theta = Tensor(default_basis(cfg.d_head).theta, requires_grad=True)
    toks = np.random.default_rng(9).integers(0, cfg.vocab, size=(1, 6))
    logits = forward(params, cfg, toks, natural(6), theta)
    loss = ad.softmax_cross_entropy(logits, np.zeros((1, 6), dtype=np.int64))
    ad.backward(loss)
    assert theta.grad is not None
    assert np.any(theta.grad != 0.0)


# ---------------------------------------------------------------------------
# log scaling trick


def test_log_scale_mult_clamped_below_train_len():
    assert log_scale_mult(128, 128) == 1.0
    assert log_scale_mult(128, 64) == 1.0


def test_log_scale_mult_values():
    assert abs(log_scale_mult(128, 512) - 9.0 / 7.0) < 1e-12
    assert abs(log_scale_mult(4096, 65536) - 4.0 / 3.0) < 1e-12


def test_log_scale_mult_rejects_tiny_lengths():
    with pytest.raises(ValueError):
        log_scale_mult(1, 128)
    with pytest.raises(ValueError):
        log_scale_mult(128, 1)
