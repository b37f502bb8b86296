"""Per-layer timing for the traced run, installed from outside the package.

Each wrapper replaces the module or class attribute through which ropekit's
own callers reach a function, so nothing under src/ changes:

- model.py, rotary.py, continuous.py and harness.py call tape ops as
  ``ad.<op>``, so every op is wrapped on ``ropekit.autodiff``, and so is
  ``backward``;
- ``model.forward`` calls ``rmsnorm`` and ``rotate_sequences`` as its own
  globals, so both are wrapped on ``ropekit.model``;
- harness binds ``forward``, ``solve``, ``position_plan``, ``build_cache``,
  ``sample_train_batch`` and ``score_windows`` by name, so those are wrapped
  on ``ropekit.harness``; ``solve_basis`` reaches ``solve`` through
  ``ropekit.continuous``;
- ``CacheSession.lookup`` and ``Adam.step`` are wrapped on their classes and
  ``clip_grad_norm`` on ``ropekit.optim``.

An op's backward time is split by op kind and by the public functions that
were running when the op recorded its node: the tracer wraps the backward
closure of every node it sees created.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

from ropekit import autodiff, continuous, harness, model, optim

KINDS = (
    "matmul_proj", "matmul_attn", "scale", "causal_mask", "softmax_last", "silu",
    "mul", "add", "reshape", "transpose", "expand", "gather_rows",
    "softmax_cross_entropy", "other",
)
# Op kinds that get a per-length split on eval-long: the S^2 score chain,
# the projections and the MLP activation.
EVAL_KINDS = ("matmul_proj", "matmul_attn", "scale", "causal_mask", "softmax_last", "silu", "other")
EVAL_LENS = (128, 512, 1024, 2048)

# Public names of ropekit.autodiff that are not tape ops.
_NOT_OPS = {"no_grad", "grad_enabled", "set_debug_checks", "as_tensor", "constant", "backward"}


def _arg(fn, name):
    """Reader of one argument of fn from a call's (args, kwargs)."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


class Tracer:
    """Accumulates seconds, bytes and counts per layer while installed."""

    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._scopes: list[str] = []
        self._length: int | None = None
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for name, fn in list(vars(autodiff).items()):
            if (inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                    and not name.startswith("_") and name not in _NOT_OPS):
                self._patch(autodiff, name, self._wrap_op(name, fn))
        self._patch(autodiff, "backward", self._wrap_backward(autodiff.backward))

        solve = harness.solve
        t_target, spu = _arg(solve, "t_target"), _arg(solve, "steps_per_unit")

        def count_rk4(args, kwargs):
            t = float(t_target(args, kwargs))
            if t > 1.0:
                self.counts["continuous.rk4_steps"] += max(8, math.ceil(spu(args, kwargs) * (t - 1.0)))

        windows = _arg(harness.score_windows, "windows")

        def score_length(args, kwargs):
            w = windows(args, kwargs)
            self.counts[f"harness.score_windows.tokens.L{w.shape[1]}"] += w.shape[0] * (w.shape[1] - 1)
            return w.shape[1]

        seq_len = _arg(continuous.CacheSession.lookup, "seq_len")
        for owner, attr, label, length, note in (
            (harness, "forward", "model.forward", None, None),
            (model, "rmsnorm", "model.rmsnorm", None, None),
            (model, "rotate_sequences", "rotary.rotate_sequences", None, None),
            (harness, "solve", "continuous.solve", None, count_rk4),
            (continuous, "solve", "continuous.solve", None, count_rk4),
            (harness, "position_plan", "continuous.position_plan", None, None),
            (harness, "build_cache", "continuous.build_cache", None, None),
            (continuous.CacheSession, "lookup", "continuous.lookup", seq_len, None),
            (optim.Adam, "step", "optim.Adam.step", None, None),
            (optim, "clip_grad_norm", "optim.clip_grad_norm", None, None),
            (harness, "sample_train_batch", "harness.sample_train_batch", None, None),
            (harness, "score_windows", "harness.score_windows", score_length, None),
        ):
            self._patch(owner, attr, self._wrap_fn(label, getattr(owner, attr), length, note))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------

    def _wrap_op(self, name, fn):
        @functools.wraps(fn)
        def op(*args, **kwargs):
            if self._in_op:  # an op built from other ops counts once, as itself
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_op = False
            dt = time.perf_counter() - t0
            if not isinstance(out, autodiff.Tensor):
                return out
            kind = name if name in KINDS else "other"
            if name == "matmul":
                kind = "matmul_attn" if out.ndim == 4 else "matmul_proj"
            self.seconds[f"autodiff.{kind}.fwd"] += dt
            self.counts[f"autodiff.{kind}.bytes"] += out.data.nbytes
            if self._length is not None:
                self.seconds[f"autodiff.{kind}.L{self._length}"] += dt
            if out._backward is not None:
                self.counts["autodiff.nodes"] += 1
                out._backward = self._wrap_closure(out._backward, kind, tuple(set(self._scopes)))
            return out

        return op

    def _wrap_closure(self, closure, kind, scopes):
        def timed(g):
            t0 = time.perf_counter()
            closure(g)
            dt = time.perf_counter() - t0
            self.seconds[f"autodiff.{kind}.bwd"] += dt
            self.seconds["autodiff.closures"] += dt
            for scope in scopes:
                self.seconds[f"{scope}.bwd"] += dt

        return timed

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def backward(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds["autodiff.backward"] += time.perf_counter() - t0

        return backward

    def _wrap_fn(self, label, fn, length, note):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            outer = self._length
            if length is not None:
                self._length = int(length(args, kwargs))
            if note is not None:
                note(args, kwargs)
            self.counts[label] += 1
            self._scopes.append(label)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._scopes.pop()
                self.seconds[label] += dt
                if self._length is not None:
                    self.seconds[f"{label}.L{self._length}"] += dt
                self._length = outer

        return call


def per_layer(tr: Tracer, n_ops: int, setup: dict[str, float], overhead_ms: float) -> dict:
    """Per-layer metrics {name: (value, unit)}.

    Times, bytes and node counts are per operation of the traced phase (a
    training step, or one evaluate call over the length grid); ``.L<len>``
    times are seconds spent at that length per evaluate call. ``setup``
    holds medians of the set-up parts the benchmark timed itself.
    """
    s, c = tr.seconds, tr.counts
    per = 1.0 / n_ops
    m: dict[str, tuple[float, str]] = {}

    def ms(name, key):
        m[name] = (1e3 * per * s[key], "ms")

    for k in KINDS:
        ms(f"autodiff.{k}.fwd_ms", f"autodiff.{k}.fwd")
        ms(f"autodiff.{k}.bwd_ms", f"autodiff.{k}.bwd")
        m[f"autodiff.{k}.out_mb"] = (per * c[f"autodiff.{k}.bytes"] / 2**20, "MB")
    for k in EVAL_KINDS:
        for L in EVAL_LENS:
            m[f"autodiff.{k}.s.L{L}"] = (per * s[f"autodiff.{k}.L{L}"], "s")
    m["autodiff.nodes_per_step"] = (per * c["autodiff.nodes"], "count")
    ms("autodiff.backward.ms", "autodiff.backward")
    m["autodiff.backward_overhead.ms"] = (1e3 * per * (s["autodiff.backward"] - s["autodiff.closures"]), "ms")

    ms("model.forward.fwd_ms", "model.forward")
    ms("model.rmsnorm.fwd_ms", "model.rmsnorm")
    ms("model.rmsnorm.bwd_ms", "model.rmsnorm.bwd")
    ms("rotary.rotate_sequences.fwd_ms", "rotary.rotate_sequences")
    ms("rotary.rotate_sequences.bwd_ms", "rotary.rotate_sequences.bwd")
    for L in EVAL_LENS:
        m[f"model.forward.s.L{L}"] = (per * s[f"model.forward.L{L}"], "s")
        m[f"rotary.rotate_sequences.s.L{L}"] = (per * s[f"rotary.rotate_sequences.L{L}"], "s")

    ms("continuous.solve.fwd_ms", "continuous.solve")
    ms("continuous.solve.bwd_ms", "continuous.solve.bwd")
    solves = c["continuous.solve"]
    m["continuous.rk4_steps"] = (c["continuous.rk4_steps"] / solves if solves else 0.0, "count")
    ms("continuous.position_plan.ms", "continuous.position_plan")
    ms("continuous.build_cache.ms", "continuous.build_cache")
    m["continuous.lookup.s.L2048"] = (per * s["continuous.lookup.L2048"], "s")

    ms("optim.Adam.step.ms", "optim.Adam.step")
    ms("optim.clip_grad_norm.ms", "optim.clip_grad_norm")

    m["checkpoint.save.ms"] = (1e3 * setup.get("checkpoint.save", 0.0), "ms")
    m["checkpoint.load.ms"] = (1e3 * setup.get("checkpoint.load", 0.0), "ms")
    m["checkpoint.bytes"] = (setup.get("checkpoint.bytes", 0.0), "bytes")

    ms("harness.sample_train_batch.ms", "harness.sample_train_batch")
    for L in EVAL_LENS:
        score = s[f"harness.score_windows.L{L}"]
        m[f"harness.score_self_s.L{L}"] = (per * (score - s[f"model.forward.L{L}"]), "s")
        spent = score + s[f"continuous.lookup.L{L}"]
        tokens = c[f"harness.score_windows.tokens.L{L}"]
        m[f"eval_tok_s.L{L}"] = (tokens / spent if spent else 0.0, "tokens/s")
    m["harness.write_demo_corpus.s"] = (setup.get("harness.write_demo_corpus", 0.0), "s")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return m
