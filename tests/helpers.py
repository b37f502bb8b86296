"""Shared test oracles: finite differences, dense rotation matrices, a
straight-line numpy reimplementation of the transformer forward pass, the
RK4 solve unrolled into elementary tape ops, a weighted-sum loss, and the
demo corpus drawn with one Generator.choice call per pick.

Everything here except the unrolled solve and the weighted-sum loss is
deliberately independent of the library's autodiff path: plain numpy,
explicit loops, no tape. The unrolled solve is built from ad.matmul,
ad.silu, ad.add and the test-only tape op scale, one node per operation, so
its gradients come from backpropagation through every stage."""

from __future__ import annotations

import math

import numpy as np

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.continuous import xi
from ropekit.harness import _WORDS


def max_rel_err(a, b, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def numerical_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def weighted_sum(out: Tensor, w) -> Tensor:
    """sum(w * out) as a scalar tape node, one product of out flattened to
    [1, n] with w as an [n, 1] column: the flow it passes back to out is
    1.0 * w, which is w itself."""
    w = Tensor(np.asarray(w).reshape(-1, 1), dtype=out.dtype)
    return ad.matmul(ad.reshape(out, (1, out.size)), w)


def grad_check(build, x: np.ndarray, tol: float = 1e-5, h: float = 1e-6, seed: int = 0) -> float:
    """Check d(sum(w * build(x)))/dx against central differences.

    build maps a Tensor to a Tensor; a fixed random projection w turns the
    output into a scalar so every output component is exercised.
    """
    x = np.asarray(x, dtype=np.float64)
    xt = Tensor(x, requires_grad=True)
    out = build(xt)
    w = np.random.default_rng(seed).normal(size=out.shape)
    ad.backward(weighted_sum(out, w))

    def f(arr):
        with ad.no_grad():
            val = build(Tensor(arr)).data
        return float((val * w).sum())

    fd = numerical_grad(f, x.copy(), h=h)
    err = max_rel_err(xt.grad, fd, floor=1e-6)
    assert err < tol, f"gradient mismatch: max rel err {err:.3e} >= {tol}"
    return err


def rotation_matrix(theta: np.ndarray, m: float) -> np.ndarray:
    """Dense block-diagonal rotation matrix for the adjacent-pair layout."""
    theta = np.asarray(theta, dtype=np.float64)
    d = 2 * theta.size
    r = np.zeros((d, d))
    for i, th in enumerate(theta):
        c, s = np.cos(m * th), np.sin(m * th)
        r[2 * i, 2 * i] = c
        r[2 * i, 2 * i + 1] = -s
        r[2 * i + 1, 2 * i] = s
        r[2 * i + 1, 2 * i + 1] = c
    return r


def reference_forward(params, cfg, tokens, positions, theta, attn_scale_mult=1.0):
    """Independent float64 forward pass built from dense numpy primitives."""
    w = {
        k: np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
        for k, v in params.items()
    }
    theta = np.asarray(theta, dtype=np.float64)
    tokens = np.asarray(tokens)
    b, s = tokens.shape
    h_count, dh = cfg.n_heads, cfg.d_head
    pos = np.asarray(positions, dtype=np.float64)

    def norm(x, gain):
        ms = (x * x).mean(axis=-1, keepdims=True)
        return x / np.sqrt(ms + 1e-6) * gain

    ang = pos[:, None] * theta[None, :]
    cos_t, sin_t = np.cos(ang), np.sin(ang)

    def rot(v):
        e, o = v[..., 0::2], v[..., 1::2]
        out = np.empty_like(v)
        out[..., 0::2] = e * cos_t - o * sin_t
        out[..., 1::2] = e * sin_t + o * cos_t
        return out

    def heads(v):
        return v.reshape(b, s, h_count, dh).transpose(0, 2, 1, 3)

    x = w["tok_emb"][tokens]
    tri = np.tril(np.ones((s, s), dtype=bool))
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        pre = norm(x, w[p + "attn_norm"])
        q, k, v = (heads(pre @ w[p + n]) for n in ("wq", "wk", "wv"))
        q, k = rot(q), rot(k)
        att = q @ k.transpose(0, 1, 3, 2) * (attn_scale_mult / np.sqrt(dh))
        att = np.where(tri, att, -np.inf)
        att = att - att.max(axis=-1, keepdims=True)
        weights = np.exp(att)
        weights /= weights.sum(axis=-1, keepdims=True)
        ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(b, s, cfg.d_model)
        x = x + ctx @ w[p + "wo"]
        pre = norm(x, w[p + "mlp_norm"])
        hidden = pre @ w[p + "w1"]
        hidden = hidden / (1.0 + np.exp(-hidden))
        x = x + hidden @ w[p + "w2"]
    x = norm(x, w["final_norm"])
    return x @ w["tok_emb"].T


def scale(x, s: float) -> Tensor:
    """Multiply by a python scalar, as x * dtype(s): a tape op that only the
    tests use."""
    x = ad.as_tensor(x)
    s = float(s)
    out = ad._node(x.data * x.data.dtype.type(s), (x,))
    if out.requires_grad:

        def bw(g):
            ad._accum(x, g * x.data.dtype.type(s))

        out._backward = bw
    return out


def unrolled_dynamics(z, t, net):
    """dz/dt = w_down . silu(w_up . z) + xi_t as a chain of tape ops."""
    half = net.head_dim // 2
    hidden = ad.silu(ad.matmul(ad.reshape(z, (1, half)), net.w_up))
    learned = ad.reshape(ad.matmul(hidden, net.w_down), (half,))
    return ad.add(learned, Tensor(xi(t, net.head_dim).astype(z.dtype)))


def unrolled_solve(z1, t_target, net, steps_per_unit):
    """Fixed-step RK4 from 1 to t_target (> 1) with about 35 tape nodes per
    step, on the step rule of continuous.solve."""
    z = ad.as_tensor(z1)
    n = max(8, math.ceil(steps_per_unit * (t_target - 1.0)))
    h = (t_target - 1.0) / n
    for k in range(n):
        t0 = 1.0 + k * h
        k1 = unrolled_dynamics(z, t0, net)
        k2 = unrolled_dynamics(ad.add(z, scale(k1, h / 2.0)), t0 + h / 2.0, net)
        k3 = unrolled_dynamics(ad.add(z, scale(k2, h / 2.0)), t0 + h / 2.0, net)
        k4 = unrolled_dynamics(ad.add(z, scale(k3, h)), t0 + h, net)
        incr = ad.add(ad.add(k1, scale(ad.add(k2, k3), 2.0)), k4)
        z = ad.add(z, scale(incr, h / 6.0))
    return z


def reference_demo_corpus_bytes(n_bytes: int, seed: int = 0) -> bytes:
    """harness.demo_corpus_bytes as first written: rng.choice(n, p=weights)
    for every weighted pick, which re-checks and re-sums the weights on each
    call."""
    rng = np.random.default_rng(seed)
    n_words = len(_WORDS)
    ranks = np.arange(n_words, dtype=np.float64)
    weights = 1.0 / (ranks + 2.0) ** 1.1
    weights /= weights.sum()
    # recurring collocations give the text verbatim n-grams worth copying
    phrases = [
        " ".join(_WORDS[j] for j in rng.choice(n_words, size=rng.integers(2, 5), p=weights))
        for _ in range(400)
    ]
    phrase_weights = 1.0 / (np.arange(len(phrases), dtype=np.float64) + 2.0)
    phrase_weights /= phrase_weights.sum()

    pieces: list[str] = []
    total = 0
    sentences_in_par = 0
    par_target = int(rng.integers(20, 60))
    while total < n_bytes:
        units = []
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.6:
                units.append(phrases[int(rng.choice(len(phrases), p=phrase_weights))])
            else:
                units.append(_WORDS[int(rng.choice(n_words, p=weights))])
        words = " ".join(units).split(" ")
        words[0] = words[0].capitalize()
        if len(words) > 8 and rng.random() < 0.5:
            cut = int(rng.integers(3, len(words) - 2))
            words[cut] = words[cut] + ","
        sentence = " ".join(words) + ". "
        sentences_in_par += 1
        if sentences_in_par >= par_target:
            sentence = sentence.rstrip() + "\n\n"
            sentences_in_par = 0
            par_target = int(rng.integers(20, 60))
        pieces.append(sentence)
        total += len(sentence)
    return "".join(pieces).encode("ascii")[:n_bytes]
