"""Rotary position embedding: frequency basis, pairwise rotations, and the
discrete scaling family of per-dimension basis multipliers (identity,
constant 1/t, geometric, fixed base retuning).

Positions are real-valued throughout (scaled-index schemes need fractional
positions). Channel pairing is adjacent (2i, 2i+1), matching the block
diagonal form of the rotation. Indexing of the frequency exponent is
0-based, so theta[0] == 1 for any base.
"""

from __future__ import annotations

import math
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


def _check_factor(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"scale factor must be finite and >= 1, got {t}")
    return t


PROFILE_METHODS = ("identity", "pi", "yarn", "codellama")


def alpha(method: str, t: float, head_dim: int) -> np.ndarray:
    """Basis multiplier of a named discrete method at scale factor t:
    identity is 1; pi the constant 1/t, index scaling expressed on the
    basis; yarn the geometric t**(-2i/(d-2)), spanning 1 down to 1/t; and
    codellama the fixed 100**(-2i/d), i.e. the base 10000 retuned to 1e6,
    with no dependence on t."""
    if method not in PROFILE_METHODS:
        raise ValueError(f"unknown profile {method!r}; pick from {PROFILE_METHODS}")
    t = _check_factor(t)
    if method == "pi":
        return np.full(head_dim // 2, 1.0 / t, dtype=np.float64)
    if method == "yarn":
        if head_dim < 4:
            raise ValueError(f"geometric profile needs head_dim >= 4, got {head_dim}")
        i = np.arange(head_dim // 2, dtype=np.float64)
        return t ** (-2.0 * i / (head_dim - 2))
    if method == "codellama":
        if head_dim % 2 != 0 or head_dim < 2:
            raise ValueError(f"head_dim must be even and >= 2, got {head_dim}")
        i = np.arange(head_dim // 2, dtype=np.float64)
        return 100.0 ** (-2.0 * i / head_dim)
    return np.ones(head_dim // 2, dtype=np.float64)


def scale_basis(basis: FrequencyBasis, alpha: np.ndarray) -> FrequencyBasis:
    """Elementwise theta_t = alpha * theta."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != basis.theta.shape:
        raise ValueError(f"alpha shape {alpha.shape} != theta shape {basis.theta.shape}")
    if not np.all(alpha > 0):
        raise ValueError("alpha entries must be positive")
    return FrequencyBasis(basis.theta * alpha, basis.head_dim, basis.base)


def theta_tensor(basis: Tensor | FrequencyBasis, dtype) -> Tensor:
    """Frequencies as a graph tensor: a Tensor (such as a solved, trainable
    basis) passes through unchanged, a FrequencyBasis becomes a constant of
    the given dtype."""
    if isinstance(basis, Tensor):
        return basis
    return Tensor(basis.theta, dtype=dtype)


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
    return rotate_sequences(Tensor(x.reshape(1, d)), [m], theta).data.reshape(d)


def pair_score(q, k, m: float, n: float, basis) -> float:
    """dot(rotate(q, m), rotate(k, n)): the rotary attention score for one
    query/key pair, which depends on positions only through n - m."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape:
        raise ValueError(f"q and k lengths differ: {q.shape} vs {k.shape}")
    return float(np.dot(apply_rotary(q, m, basis), apply_rotary(k, n, basis)))
