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
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model must be a positive multiple of n_heads {self.n_heads}, got {self.d_model}")
        if self.d_head % 2 != 0:
            raise ValueError(f"head dim must be even, got {self.d_head}")
        if self.method == "ode" and self.d_head < 4:
            raise ValueError(f"head dim must be >= 4 for method ode, got {self.d_head}")
        if self.train_len < 2:
            raise ValueError(f"train_len must be >= 2, got {self.train_len}")
        for t in (self.t_train, self.t_fixed):
            if not (math.isfinite(t) and t >= 1.0):
                raise ValueError(f"scale factors must be finite and >= 1, got {t}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    return ad.rms_norm(x, gain, RMS_EPS)


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
    1/sqrt(d_head) factor.
    """
    emb = params["tok_emb"]
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

    theta = theta_tensor(basis, emb.dtype)

    h_count, d_head = cfg.n_heads, cfg.d_head
    score_scale = float(attn_scale_mult) / math.sqrt(d_head)
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        pre = rmsnorm(x, params[p + "attn_norm"])
        q = _split_heads(ad.matmul(pre, params[p + "wq"]), h_count)
        k = _split_heads(ad.matmul(pre, params[p + "wk"]), h_count)
        v = _split_heads(ad.matmul(pre, params[p + "wv"]), h_count)
        q = rotate_sequences(q, positions, theta)
        k = rotate_sequences(k, positions, theta)
        heads = ad.causal_attention(q, k, v, score_scale)
        ctx = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (b, s, cfg.d_model))
        x = ad.add(x, ad.matmul(ctx, params[p + "wo"]))
        pre = rmsnorm(x, params[p + "mlp_norm"])
        x = ad.add(x, ad.matmul(ad.silu(ad.matmul(pre, params[p + "w1"])), params[p + "w2"]))

    x = rmsnorm(x, params["final_norm"])
    return ad.matmul(x, ad.transpose(emb, (1, 0)))


def log_scale_mult(train_len: int, test_len: int) -> float:
    """Attention score multiplier max(1, log(test)/log(train)) used when
    evaluating beyond the training length."""
    if train_len < 2 or test_len < 2:
        raise ValueError("lengths must be >= 2")
    return max(1.0, math.log(test_len) / math.log(train_len))
