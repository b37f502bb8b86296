"""Continuous basis scaling: learnable dynamics over the log frequency
basis, a fixed-step RK4 solver that is one tape node whose gradients come
from the discrete adjoint, training-time position sampling, and the
inference-time basis cache."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rotary import FrequencyBasis, _check_factor, default_basis


def xi(t, head_dim: int) -> np.ndarray:
    """Fixed (non-learned) drift of the log basis at each scale factor of t,
    -2i/((d-2) t), shape [..., head_dim/2]; a scalar t gives shape
    [head_dim/2]. It is d/dt of the log of the yarn profile, so a net with
    w_down = 0 solves to that profile exactly (acceptance criterion 3)."""
    t = np.asarray(t, dtype=np.float64)[..., None]
    for bound in (t.min(), t.max()):  # both are nan if any factor is
        _check_factor(bound)
    if head_dim < 4:
        raise ValueError(f"drift needs head_dim >= 4, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    return -2.0 * i / ((head_dim - 2) * t)


class OdeNet:
    """Up-and-down projection parameterizing the learned part of the basis
    dynamics.

    w_up maps d/2 -> lambda*d and w_down maps lambda*d -> d/2 (row-vector
    convention). w_down starts at zero so a fresh net reproduces the
    geometric profile's constant dynamics exactly.
    """

    def __init__(self, head_dim: int, lambda_amp: int = 1, dtype=np.float64, rng=None):
        if head_dim % 2 != 0 or head_dim < 4:
            raise ValueError(f"head_dim must be even and >= 4, got {head_dim}")
        if lambda_amp < 1:
            raise ValueError(f"lambda_amp must be a positive integer, got {lambda_amp}")
        self.head_dim = head_dim
        self.lambda_amp = int(lambda_amp)
        half = head_dim // 2
        width = self.lambda_amp * head_dim
        if rng is None:
            rng = np.random.default_rng(0)
        bound = 1.0 / math.sqrt(half)
        w_up = rng.uniform(-bound, bound, size=(half, width))
        self.w_up = Tensor(w_up.astype(dtype), requires_grad=True)
        self.w_down = Tensor(np.zeros((width, half), dtype=dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return {"ode.w_up": self.w_up, "ode.w_down": self.w_down}

    @classmethod
    def from_params(cls, head_dim: int, w_up, w_down) -> "OdeNet":
        w_up = w_up.data if isinstance(w_up, Tensor) else np.asarray(w_up)
        w_down = w_down.data if isinstance(w_down, Tensor) else np.asarray(w_down)
        lambda_amp = w_up.shape[1] // head_dim
        net = cls(head_dim, lambda_amp, dtype=w_up.dtype)
        if net.w_up.shape != w_up.shape or net.w_down.shape != w_down.shape:
            raise ValueError("parameter shapes inconsistent with head_dim")
        net.w_up = Tensor(w_up, requires_grad=True)
        net.w_down = Tensor(w_down, requires_grad=True)
        return net


def check_fits(what: str, entries) -> None:
    """ValueError unless a float64 array of `entries` entries fits both
    numpy's size limit and the machine's physical memory; entries may be a
    float, even an infinite one."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limit = min(np.iinfo(np.intp).max, memory) // 8
    if not entries <= limit:
        raise ValueError(f"{what} is {entries} entries, more than one array can hold "
                         f"({limit}, by numpy's size limit or physical memory)")


def rk4_steps(t_target: float, steps_per_unit: int, head_dim: int) -> int:
    """Number of RK4 steps of a solve from factor 1 to t_target,
    max(8, ceil(steps_per_unit*(t_target-1))), checked so that the solve's
    [steps, 4, head_dim/2] float64 drift table fits. The count stays a float
    until it is checked, so an infinite one never reaches int."""
    steps = max(8.0, steps_per_unit * (t_target - 1.0))
    check_fits("RK4 steps x 4 x d_head/2 (the ODE solve's drift table)", steps * 2 * head_dim)
    return math.ceil(steps)


def solve(z1, t_target: float, net: OdeNet, steps_per_unit: int = 8) -> Tensor:
    """Integrate the log basis from factor 1 to t_target with fixed-step RK4
    under dz/dt = w_down . silu(w_up . z) + xi_t.

    Uses n = rk4_steps(t_target, steps_per_unit, head_dim) steps, all in one
    ad.rk4_solve node fed one xi call's [n, 4, d/2] drift table; its
    gradients in z1 and the net parameters come from the discrete adjoint,
    the exact gradient of the discretised solve.
    t_target == 1 returns the initial state unchanged.
    """
    t_target = _check_factor(t_target)
    if steps_per_unit < 1:
        raise ValueError(f"steps_per_unit must be >= 1, got {steps_per_unit}")
    z = ad.as_tensor(z1, dtype=net.w_up.dtype)
    if t_target == 1.0:
        return z
    n = rk4_steps(t_target, steps_per_unit, net.head_dim)
    h = (t_target - 1.0) / n
    # xi at each stage's time: the step's start, its midpoint (stages k2 and
    # k3) and its end
    t0 = 1.0 + np.arange(n) * h
    drift = xi(np.stack([t0, t0 + h / 2.0, t0 + h / 2.0, t0 + h], axis=1), net.head_dim)
    return ad.rk4_solve(z, net.w_up, net.w_down, drift, h)


def solve_theta(t_target: float, net: OdeNet, steps_per_unit: int = 8) -> Tensor:
    """theta = exp(z(t_target)) in the net's dtype, z solved from the log of
    the stock basis default_basis(net.head_dim); a graph tensor when grad is on."""
    return ad.exp(solve(np.log(default_basis(net.head_dim).theta), t_target, net, steps_per_unit))


def solve_basis(t_target: float, net: OdeNet, steps_per_unit: int = 8) -> FrequencyBasis:
    """solve_theta's values as a plain (non-graph) basis: exactly the theta
    that a training step at t_target feeds the model, held in float64."""
    with ad.no_grad():
        return FrequencyBasis(solve_theta(t_target, net, steps_per_unit).data, net.head_dim)


def position_plan(train_len: int, t_prime: float, rng_seed: int) -> np.ndarray:
    """train_len distinct integer positions drawn without replacement from
    [1, floor(t_prime * train_len)], ascending, by a generator seeded with
    rng_seed; t_prime = 1 gives 1..train_len."""
    span = _check_factor(t_prime) * train_len
    draw = np.random.default_rng(rng_seed).choice(math.floor(span), size=train_len, replace=False)
    return np.sort(draw).astype(np.float64) + 1.0


@dataclass(frozen=True)
class BasisCache:
    """Immutable map from discrete scale factors to solved bases."""

    native_len: int
    factors: tuple[float, ...]
    bases: tuple[FrequencyBasis, ...]

    def __post_init__(self):
        if len(self.factors) != len(self.bases) or not self.factors:
            raise ValueError("cache needs one basis per factor")
        if self.factors[0] < 1.0:
            raise ValueError("first cached factor must be >= 1")
        if any(b <= a for a, b in zip(self.factors, self.factors[1:])):
            raise ValueError("cached factors must be strictly increasing")
        if self.native_len < 1:
            raise ValueError("native_len must be positive")


def build_cache(solver: Callable[[float], FrequencyBasis], t_ks, native_len: int) -> BasisCache:
    """Call solver (a factor -> solved basis map, such as a solve_basis
    closure over one net) once per requested factor and freeze the results."""
    t_ks = tuple(float(t) for t in t_ks)
    return BasisCache(native_len, t_ks, tuple(solver(t) for t in t_ks))


class CacheSession:
    """Lookup frontend over a frozen cache and the solver that built it."""

    def __init__(self, cache: BasisCache, solver: Callable[[float], FrequencyBasis]):
        self.cache = cache
        self._solver = solver

    def lookup(self, seq_len: int) -> tuple[float, FrequencyBasis]:
        """(factor, basis) for the smallest cached factor whose supported
        length covers seq_len; beyond the cache, the solver's basis at
        t = seq_len/native_len, solved afresh on every call and never added
        to the cache."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        for t, basis in zip(self.cache.factors, self.cache.bases):
            if t * self.cache.native_len >= seq_len:
                return t, basis
        t = seq_len / self.cache.native_len
        return t, self._solver(t)


def cache_to_json(cache: BasisCache) -> dict:
    return {
        "native_len": cache.native_len,
        "head_dim": cache.bases[0].head_dim,
        "base": cache.bases[0].base,
        "entries": [
            {"t": t, "theta": basis.theta.tolist()}
            for t, basis in zip(cache.factors, cache.bases)
        ],
    }
