"""Discrete position-embedding scaling: the per-dimension basis multiplier
family (identity, constant 1/t, geometric, fixed base retuning) and the one
dispatch from a method name to its multiplier."""

from __future__ import annotations

import math

import numpy as np

from .rotary import FrequencyBasis


def _check_factor(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"scale factor must be finite and >= 1, got {t}")
    return t


def alpha_pi(t: float, head_dim: int) -> np.ndarray:
    """Constant 1/t multiplier: index scaling expressed on the basis."""
    t = _check_factor(t)
    return np.full(head_dim // 2, 1.0 / t, dtype=np.float64)


def alpha_yarn(t: float, head_dim: int) -> np.ndarray:
    """Geometric multiplier t**(-2i/(d-2)), spanning 1 down to 1/t."""
    t = _check_factor(t)
    if head_dim < 4:
        raise ValueError(f"geometric profile needs head_dim >= 4, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    return t ** (-2.0 * i / (head_dim - 2))


def alpha_codellama(head_dim: int) -> np.ndarray:
    """Fixed multiplier 100**(-2i/d), i.e. retuning the base 10000 to 1e6.
    Carries no dependence on the scale factor."""
    if head_dim % 2 != 0 or head_dim < 2:
        raise ValueError(f"head_dim must be even and >= 2, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    return 100.0 ** (-2.0 * i / head_dim)


def scale_basis(basis: FrequencyBasis, alpha: np.ndarray) -> FrequencyBasis:
    """Elementwise theta_t = alpha * theta."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != basis.theta.shape:
        raise ValueError(f"alpha shape {alpha.shape} != theta shape {basis.theta.shape}")
    if not np.all(alpha > 0):
        raise ValueError("alpha entries must be positive")
    return FrequencyBasis(basis.theta * alpha, basis.head_dim, basis.base)


PROFILE_METHODS = ("identity", "pi", "yarn", "codellama")


def alpha(method: str, t: float, head_dim: int) -> np.ndarray:
    """Basis multiplier of a named discrete method at scale factor t."""
    if method == "pi":
        return alpha_pi(t, head_dim)
    if method == "yarn":
        return alpha_yarn(t, head_dim)
    if method not in PROFILE_METHODS:
        raise ValueError(f"unknown profile {method!r}; pick from {PROFILE_METHODS}")
    _check_factor(t)
    if method == "codellama":
        return alpha_codellama(head_dim)
    return np.ones(head_dim // 2, dtype=np.float64)
