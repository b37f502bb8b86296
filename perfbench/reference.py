"""Float64 numpy references that the benchmark checks ropekit's outputs against.

Written from the method's definition with plain numpy: no tape, no ropekit
imports. Parameters use ropekit's checkpoint names (tok_emb, layers.<i>.wq,
...), which are the model's published format.
"""

from __future__ import annotations

import math

import numpy as np

RMS_EPS = 1e-6


def default_theta(head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Stock rotary frequencies base**(-2i/d), i = 0..d/2-1."""
    i = np.arange(head_dim // 2, dtype=np.float64)
    return base ** (-2.0 * i / head_dim)


def drift(t: float, head_dim: int) -> np.ndarray:
    """Fixed drift of the log basis, d/dt log(t**(-2i/(d-2))) = -2i/((d-2) t)."""
    i = np.arange(head_dim // 2, dtype=np.float64)
    return -2.0 * i / ((head_dim - 2) * t)


def silu(a: np.ndarray) -> np.ndarray:
    return a * (0.5 + 0.5 * np.tanh(0.5 * a))


def rk4_log_basis(z1, t: float, w_up, w_down, steps_per_unit: int = 8) -> np.ndarray:
    """z(t) for dz/dt = w_down . silu(w_up . z) + drift(t), z(1) = z1.

    Fixed-step RK4 over [1, t] with max(8, ceil(steps_per_unit*(t-1)))
    steps, the discretisation the method specifies; t == 1 returns z1.
    """
    z = np.array(z1, dtype=np.float64)
    if t == 1.0:
        return z
    w_up = np.asarray(w_up, dtype=np.float64)
    w_down = np.asarray(w_down, dtype=np.float64)
    head_dim = 2 * z.size

    def f(state, s):
        return silu(state @ w_up) @ w_down + drift(s, head_dim)

    n = max(8, math.ceil(steps_per_unit * (t - 1.0)))
    h = (t - 1.0) / n
    for k in range(n):
        s = 1.0 + k * h
        k1 = f(z, s)
        k2 = f(z + 0.5 * h * k1, s + 0.5 * h)
        k3 = f(z + 0.5 * h * k2, s + 0.5 * h)
        k4 = f(z + h * k3, s + h)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def forward(params, n_layers: int, n_heads: int, tokens, positions, theta,
            attn_scale_mult: float = 1.0) -> np.ndarray:
    """Logits [B, S, V] of the pre-norm rotary decoder with tied embeddings."""
    w = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    tokens = np.asarray(tokens)
    b, s = tokens.shape
    d_model = w["tok_emb"].shape[1]
    dh = d_model // n_heads
    ang = np.asarray(positions, dtype=np.float64)[:, None] * np.asarray(theta, dtype=np.float64)[None, :]
    cos, sin = np.cos(ang), np.sin(ang)

    def norm(x, gain):
        return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + RMS_EPS) * gain

    def heads(x):
        return x.reshape(b, s, n_heads, dh).transpose(0, 2, 1, 3)

    def rotate(x):
        even, odd = x[..., 0::2], x[..., 1::2]
        out = np.empty_like(x)
        out[..., 0::2] = even * cos - odd * sin
        out[..., 1::2] = even * sin + odd * cos
        return out

    future = ~np.tril(np.ones((s, s), dtype=bool))
    x = w["tok_emb"][tokens]
    for i in range(n_layers):
        p = f"layers.{i}."
        pre = norm(x, w[p + "attn_norm"])
        q, k, v = (heads(pre @ w[p + n]) for n in ("wq", "wk", "wv"))
        scores = rotate(q) @ rotate(k).transpose(0, 1, 3, 2) * (attn_scale_mult / math.sqrt(dh))
        scores[..., future] = -np.inf
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        x = x + (weights @ v).transpose(0, 2, 1, 3).reshape(b, s, d_model) @ w[p + "wo"]
        x = x + silu(norm(x, w[p + "mlp_norm"]) @ w[p + "w1"]) @ w[p + "w2"]
    return norm(x, w["final_norm"]) @ w["tok_emb"].T


def cross_entropy(logits, targets) -> float:
    """Mean negative log-likelihood of integer targets under softmax(logits)."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    picked = np.take_along_axis(z, np.asarray(targets)[..., None], axis=-1)[..., 0]
    return float((lse - picked).mean())


def eval_factor(eval_len: int, train_len: int, cache_factors) -> float:
    """Basis factor of the cache rule: the smallest cached t with
    t*train_len >= eval_len, else eval_len/train_len (solved on demand)."""
    for t in cache_factors:
        if t * train_len >= eval_len:
            return float(t)
    return eval_len / train_len


def log_scale(train_len: int, eval_len: int) -> float:
    """Attention score multiplier max(1, ln L / ln L_train)."""
    return max(1.0, math.log(eval_len) / math.log(train_len))
