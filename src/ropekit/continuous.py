"""Continuous basis scaling: learnable dynamics over the log frequency
basis, a fixed-step RK4 solver that is one tape node whose gradients come
from the discrete adjoint, training-time factor and position sampling, and
the inference-time basis cache."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rotary import FrequencyBasis
from .scaling import _check_factor


class XiForm(enum.Enum):
    """Which closed form to use for the fixed drift term.

    LOG_DERIVATIVE is d/dt of the log of the geometric profile,
    -2i/((d-2) t), consistent with dynamics over z = log theta.
    PAPER_PRINTED is -2i/((d-2) t^(2i/(d-2)+1)), which is d/dt of the
    profile itself; kept selectable since both readings are defensible.
    """

    LOG_DERIVATIVE = "log_derivative"
    PAPER_PRINTED = "paper_printed"


def xi(t: float, head_dim: int, form: XiForm = XiForm.LOG_DERIVATIVE) -> np.ndarray:
    """Fixed (non-learned) drift of the log basis at scale factor t."""
    t = _check_factor(t)
    if head_dim < 4:
        raise ValueError(f"drift needs head_dim >= 4, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    if form is XiForm.LOG_DERIVATIVE:
        return -2.0 * i / ((head_dim - 2) * t)
    return -2.0 * i / ((head_dim - 2) * t ** (2.0 * i / (head_dim - 2) + 1.0))


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


def _as_state(z, dtype=None) -> Tensor:
    if isinstance(z, Tensor):
        return z
    return ad.constant(np.asarray(z, dtype=dtype))


def solve(
    z1,
    t_target: float,
    net: OdeNet,
    form: XiForm = XiForm.LOG_DERIVATIVE,
    steps_per_unit: int = 8,
) -> Tensor:
    """Integrate the log basis from factor 1 to t_target with fixed-step RK4
    under dz/dt = w_down . silu(w_up . z) + xi_t.

    Uses max(8, ceil(steps_per_unit*(t_target-1))) steps, all in one
    ad.rk4_solve node; its gradients in z1 and the net parameters come from
    the discrete adjoint, the exact gradient of the discretised solve.
    t_target == 1 returns the initial state unchanged.
    """
    t_target = _check_factor(t_target)
    if steps_per_unit < 1:
        raise ValueError(f"steps_per_unit must be >= 1, got {steps_per_unit}")
    z = _as_state(z1, dtype=net.w_up.dtype)
    if t_target == 1.0:
        return z
    n = max(8, math.ceil(steps_per_unit * (t_target - 1.0)))
    h = (t_target - 1.0) / n
    # xi at each stage's time: the step's start, its midpoint (stages k2 and
    # k3) and its end
    drift = np.empty((n, 4, net.head_dim // 2))
    for k in range(n):
        t0 = 1.0 + k * h
        drift[k, 0] = xi(t0, net.head_dim, form)
        drift[k, 1] = drift[k, 2] = xi(t0 + h / 2.0, net.head_dim, form)
        drift[k, 3] = xi(t0 + h, net.head_dim, form)
    return ad.rk4_solve(z, net.w_up, net.w_down, drift, h)


def solve_basis(
    basis: FrequencyBasis,
    t_target: float,
    net: OdeNet,
    form: XiForm = XiForm.LOG_DERIVATIVE,
    steps_per_unit: int = 8,
) -> FrequencyBasis:
    """Solved frequency basis exp(z(t)) as a plain (non-graph) basis."""
    with ad.no_grad():
        z = solve(np.log(basis.theta), t_target, net, form, steps_per_unit)
        theta = np.exp(z.data.astype(np.float64))
    return FrequencyBasis(theta, basis.head_dim, basis.base)


def sample_train_factor(t_train: float, rng: np.random.Generator) -> float:
    """Draw t' uniformly from the continuous interval [1, t_train]."""
    t_train = _check_factor(t_train)
    return float(rng.uniform(1.0, t_train))


class PlanMode(enum.Enum):
    NATURAL = "natural"
    UNIFORM_SCALED = "uniform"
    RANDOM_SAMPLED = "random"


def position_plan(train_len: int, t_prime: float, mode: PlanMode, rng_seed: int | None = None) -> np.ndarray:
    """Assign train_len strictly increasing positions spanning up to
    span = t_prime * train_len.

    NATURAL: 1..train_len. UNIFORM_SCALED: j * span/train_len.
    RANDOM_SAMPLED: train_len distinct integers drawn without replacement
    from [1, floor(span)], ascending, by a generator seeded with rng_seed.
    """
    span = _check_factor(t_prime) * train_len
    if mode is PlanMode.NATURAL:
        pos = np.arange(1, train_len + 1, dtype=np.float64)
    elif mode is PlanMode.UNIFORM_SCALED:
        pos = np.arange(1, train_len + 1, dtype=np.float64) * (span / train_len)
    elif mode is PlanMode.RANDOM_SAMPLED:
        if rng_seed is None:
            raise ValueError("random sampling needs an rng_seed")
        draw = np.random.default_rng(rng_seed).choice(math.floor(span), size=train_len, replace=False)
        pos = np.sort(draw).astype(np.float64) + 1.0
    else:
        raise ValueError(f"unknown plan mode {mode}")
    return pos


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


def build_cache(
    net: OdeNet,
    form: XiForm,
    t_ks,
    base_basis: FrequencyBasis,
    native_len: int,
    steps_per_unit: int = 8,
) -> BasisCache:
    """Solve the dynamics once per requested factor and freeze the results."""
    t_ks = [float(t) for t in t_ks]
    bases = tuple(solve_basis(base_basis, t, net, form, steps_per_unit) for t in t_ks)
    return BasisCache(native_len, tuple(t_ks), bases)


class CacheSession:
    """Lookup frontend holding session-local on-demand extensions."""

    def __init__(self, cache: BasisCache, solver: Callable[[float], FrequencyBasis]):
        self.cache = cache
        self._solver = solver
        self._extra: dict[float, FrequencyBasis] = {}

    def lookup(self, seq_len: int) -> tuple[float, FrequencyBasis]:
        """(factor, basis) for the smallest cached factor whose supported
        length covers seq_len; beyond the cache, solve on demand at
        t = seq_len/native_len and keep the result in this session only."""
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        for t, basis in zip(self.cache.factors, self.cache.bases):
            if t * self.cache.native_len >= seq_len:
                return t, basis
        t = seq_len / self.cache.native_len
        if t not in self._extra:
            self._extra[t] = self._solver(t)
        return t, self._extra[t]


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
