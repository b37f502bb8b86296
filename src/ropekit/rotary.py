"""Rotary position embedding: frequency basis and pairwise rotations.

Positions are real-valued throughout (scaled-index schemes need fractional
positions). Channel pairing is adjacent (2i, 2i+1), matching the block
diagonal form of the rotation. Indexing of the frequency exponent is
0-based, so theta[0] == 1 for any base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class FrequencyBasis:
    """Rotation frequencies theta (radians per position unit), one per
    channel pair."""

    theta: np.ndarray
    head_dim: int
    base: float = 10000.0

    def __post_init__(self):
        theta = np.ascontiguousarray(np.asarray(self.theta, dtype=np.float64))
        if self.head_dim % 2 != 0 or self.head_dim < 2:
            raise ValueError(f"head_dim must be even and >= 2, got {self.head_dim}")
        if theta.shape != (self.head_dim // 2,):
            raise ValueError(
                f"theta must have shape ({self.head_dim // 2},), got {theta.shape}"
            )
        if not np.all(theta > 0):
            raise ValueError("all rotation frequencies must be positive")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


def default_basis(head_dim: int, base: float = 10000.0) -> FrequencyBasis:
    """theta_i = base**(-2i/d) for i = 0..d/2-1."""
    if head_dim % 2 != 0 or head_dim < 2:
        raise ValueError(f"head_dim must be even and >= 2, got {head_dim}")
    if base <= 1.0:
        raise ValueError(f"base must exceed 1, got {base}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    return FrequencyBasis(base ** (-2.0 * i / head_dim), head_dim, base)


def theta_tensor(basis: Tensor | FrequencyBasis, dtype) -> Tensor:
    """Frequencies as a graph tensor: a Tensor (such as a solved, trainable
    basis) passes through unchanged, a FrequencyBasis becomes a constant of
    the given dtype."""
    if isinstance(basis, Tensor):
        return basis
    return ad.constant(basis.theta.astype(dtype, copy=False))


def rotate_sequences(x: Tensor, positions, theta: Tensor) -> Tensor:
    """Rotate pair channels of x[..., S, d] by angle position*theta.

    positions has length S; theta is a length-d/2 tensor. Differentiable in
    both x and theta, so basis gradients reach the dynamics network.
    """
    d = x.shape[-1]
    s = x.shape[-2]
    if theta.shape != (d // 2,):
        raise ValueError(f"theta shape {theta.shape} does not match head dim {d}")
    if np.size(positions) != s:
        raise ValueError("positions length does not match sequence length")
    return ad.rotate_pairs(x, positions, theta)


def apply_rotary(x, m: float, basis: Tensor | FrequencyBasis) -> np.ndarray:
    """Rotate one d-vector, given as a plain array, to position m; returns
    a float64 array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"apply_rotary expects a vector, got shape {x.shape}")
    d = x.shape[0]
    if d % 2 != 0:
        raise ValueError(f"vector length must be even, got {d}")
    theta = theta_tensor(basis, x.dtype)
    return rotate_sequences(ad.constant(x.reshape(1, d)), [m], theta).data.reshape(d)


def pair_score(q, k, m: float, n: float, basis) -> float:
    """dot(rotate(q, m), rotate(k, n)): the rotary attention score for one
    query/key pair, which depends on positions only through n - m."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape:
        raise ValueError(f"q and k lengths differ: {q.shape} vs {k.shape}")
    return float(np.dot(apply_rotary(q, m, basis), apply_rotary(k, n, basis)))
