"""Adam with bias correction and global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global l2 norm is at most max_norm.
    Returns the pre-clip norm; a non-finite norm leaves the gradients as
    they are."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and math.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= g.dtype.type(factor)
    return norm


class Adam:
    """Adam over a dict of parameters, reading .grad off each one (a missing
    grad counts as zero) and updating .data in place."""

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, grad_clip: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> float:
        """One clipped, bias-corrected update. Returns the pre-clip global
        gradient norm. A non-finite norm is returned at once, before the
        moments, the step count or any parameter change."""
        grads = {}
        for name, p in self.params.items():
            grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        norm = clip_grad_norm(grads, self.grad_clip)
        if not math.isfinite(norm):
            return norm
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"grad shape {g.shape} != param shape {p.shape} for {name}")
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return norm

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
