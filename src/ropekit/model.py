"""Desk-scale decoder-only transformer with a pluggable positional recipe.

Pre-norm RMS normalization, 4x SiLU MLP, tied embedding/output head.
Every positional strategy enters through the same three forward arguments
(positions, frequency basis, attention score multiplier); the transformer
code path itself is identical across strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rotary import rotate_sequences, theta_tensor

RMS_EPS = 1e-6

METHODS = ("rope", "pi", "yarn", "codellama", "randompos", "ode")


@dataclass
class ModelConfig:
    vocab: int = 256
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    train_len: int = 128
    method: str = "rope"
    t_train: float = 1.0
    t_fixed: float = 1.0
    seed: int = 0

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def validate(self) -> "ModelConfig":
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick from {METHODS}")
        if self.vocab < 2:
            raise ValueError(f"vocab must be >= 2, got {self.vocab}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_head % 2 != 0:
            raise ValueError(f"head dim must be even, got {self.d_head}")
        if self.train_len < 2:
            raise ValueError(f"train_len must be >= 2, got {self.train_len}")
        for t in (self.t_train, self.t_fixed):
            if not (math.isfinite(t) and t >= 1.0):
                raise ValueError(f"scale factors must be finite and >= 1, got {t}")
        return self


def init_params(cfg: ModelConfig, dtype=np.float32, rng=None) -> dict[str, Tensor]:
    """Fresh transformer parameters; the output head is tied to tok_emb."""
    cfg.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    d = cfg.d_model

    def normal(shape, std):
        return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    out_std = 0.02 / math.sqrt(2.0 * cfg.n_layers)
    params: dict[str, Tensor] = {"tok_emb": normal((cfg.vocab, d), 0.02)}
    for i in range(cfg.n_layers):
        prefix = f"layers.{i}."
        params[prefix + "attn_norm"] = ones((d,))
        params[prefix + "wq"] = normal((d, d), 0.02)
        params[prefix + "wk"] = normal((d, d), 0.02)
        params[prefix + "wv"] = normal((d, d), 0.02)
        params[prefix + "wo"] = normal((d, d), out_std)
        params[prefix + "mlp_norm"] = ones((d,))
        params[prefix + "w1"] = normal((d, 4 * d), 0.02)
        params[prefix + "w2"] = normal((4 * d, d), out_std)
    params["final_norm"] = ones((d,))
    return params


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    d = x.shape[-1]
    ms = ad.scale(ad.sum_last(ad.mul(x, x)), 1.0 / d)
    inv = ad.powf(ad.add(ms, RMS_EPS), -0.5)
    y = ad.mul(x, ad.expand(inv, x.shape))
    g = ad.reshape(gain, (1,) * (x.ndim - 1) + (d,))
    return ad.mul(y, ad.expand(g, x.shape))


def _project(x: Tensor, w: Tensor) -> Tensor:
    """[..., d_in] @ [d_in, d_out] via a flattening matmul."""
    lead = x.shape[:-1]
    flat = ad.reshape(x, (int(np.prod(lead)), x.shape[-1]))
    return ad.reshape(ad.matmul(flat, w), lead + (w.shape[-1],))


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, s, d = x.shape
    return ad.transpose(ad.reshape(x, (b, s, n_heads, d // n_heads)), (0, 2, 1, 3))


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tokens,
    positions,
    basis,
    attn_scale_mult: float = 1.0,
) -> Tensor:
    """Causal logits [B, S, V] with rotary applied to q and k at the given
    real-valued positions using the given frequency basis.

    attn_scale_mult multiplies the pre-softmax scores after the standard
    1/sqrt(d_head) factor. tokens may also be a pre-embedded [B, S, d_model]
    Tensor (the gather step is skipped).
    """
    emb = params["tok_emb"]
    dtype = emb.dtype
    if isinstance(tokens, Tensor):
        x = tokens
        if x.ndim != 3 or x.shape[-1] != cfg.d_model:
            raise ValueError(f"embedded input must be [batch, seq, d_model], got {x.shape}")
        b, s = x.shape[0], x.shape[1]
    else:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, seq], got shape {tokens.shape}")
        b, s = tokens.shape
        x = ad.gather_rows(emb, tokens)
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (s,):
        raise ValueError(f"positions shape {positions.shape} != sequence length {s}")
    if s > 1 and not np.all(np.diff(positions) > 0):
        raise ValueError("positions must be strictly increasing")

    theta = theta_tensor(basis, dtype)

    h_count, d_head = cfg.n_heads, cfg.d_head
    score_scale = float(attn_scale_mult) / math.sqrt(d_head)
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        pre = rmsnorm(x, params[p + "attn_norm"])
        q = _split_heads(_project(pre, params[p + "wq"]), h_count)
        k = _split_heads(_project(pre, params[p + "wk"]), h_count)
        v = _split_heads(_project(pre, params[p + "wv"]), h_count)
        q = rotate_sequences(q, positions, theta)
        k = rotate_sequences(k, positions, theta)
        att = ad.causal_softmax(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), score_scale)
        ctx = ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b, s, cfg.d_model))
        x = ad.add(x, _project(ctx, params[p + "wo"]))
        pre = rmsnorm(x, params[p + "mlp_norm"])
        x = ad.add(x, _project(ad.silu(_project(pre, params[p + "w1"])), params[p + "w2"]))

    x = rmsnorm(x, params["final_norm"])
    logits = ad.matmul(
        ad.reshape(x, (b * s, cfg.d_model)), ad.transpose(emb, (1, 0))
    )
    return ad.reshape(logits, (b, s, cfg.vocab))


def log_scale_mult(train_len: int, test_len: int) -> float:
    """Attention score multiplier max(1, log(test)/log(train)) used when
    evaluating beyond the training length."""
    if train_len < 2 or test_len < 2:
        raise ValueError("lengths must be >= 2")
    return max(1.0, math.log(test_len) / math.log(train_len))
