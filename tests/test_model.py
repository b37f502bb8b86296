import numpy as np
import pytest

from helpers import reference_forward

from ropekit import autodiff as ad
from ropekit import model
from ropekit.autodiff import Tensor
from ropekit.model import ModelConfig, forward, init_params, log_scale_mult
from ropekit.rotary import default_basis
from ropekit.scaling import alpha_pi, scale_basis


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


def test_causality_gradients_exactly_zero():
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    basis = default_basis(cfg.d_head)
    rng = np.random.default_rng(1)
    toks = rng.integers(0, cfg.vocab, size=(2, 8))
    embedded = ad.gather_rows(params["tok_emb"], toks)
    j = 3
    logits = forward(params, cfg, embedded, natural(8), basis)
    targets = rng.integers(0, cfg.vocab, size=(2, 8))
    mask = np.zeros((2, 8), dtype=bool)
    mask[:, j] = True
    loss = ad.softmax_cross_entropy(logits, targets, mask)
    ad.backward(loss)
    future = embedded.grad[:, j + 1 :, :]
    past = embedded.grad[:, : j + 1, :]
    assert np.all(future == 0.0)
    assert np.any(past != 0.0)


def test_attention_weights_are_one_tape_node():
    # Between the q.k^T matmul and the att.v matmul the tape holds exactly
    # one node: the causal_softmax that scales, masks and normalizes.
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float64)
    toks = np.random.default_rng(1).integers(0, cfg.vocab, size=(2, 6))
    nodes = ad._toposort(forward(params, cfg, toks, natural(6), default_basis(cfg.d_head)))

    def op(node):
        return node._backward.__qualname__.split(".")[0] if node._backward else None

    att = [n for n in nodes if op(n) == "causal_softmax"]
    assert len(att) == cfg.n_layers
    for a in att:
        assert [op(p) for p in a._parents] == ["matmul"]
        consumers = [n for n in nodes if any(p is a for p in n._parents)]
        assert [op(n) for n in consumers] == ["matmul"] and consumers[0].ndim == 4


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
    shrunk = scale_basis(base, alpha_pi(t, cfg.d_head))
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
