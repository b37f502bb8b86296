"""The benchmark's workloads: set-up, timed closed loop and correctness checks.

All three run single-process through ropekit's public API at the
criterion-7 shape: 2 layers, d_model 64, 4 heads, train_len 128, batch 8,
float32. Each timed loop repeats one round of identical work back to back:

- train-rope: a round is one ``harness.train`` call of ROUND_STEPS steps
  with method rope, from a fresh seeded model; an operation is one step.
- train-ode: the same with method ode, t_train 8 and random positions, so
  every step also solves the basis ODE at a seeded t' in [1, 8].
- eval-long: a round and an operation are one no-grad ``harness.evaluate``
  call of one ode model at 128, 512, 1024 and 2048 tokens; the model is
  trained, saved and loaded in set-up.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from ropekit import autodiff as ad
from ropekit import checkpoint, continuous, harness, model
from ropekit.harness import TrainSettings
from ropekit.model import ModelConfig
from ropekit.rotary import default_basis
from tracer import EVAL_LENS, Tracer, per_layer

END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "tok_s": "tokens/s", "peak_rss_mb": "MB"}

CORPUS_BYTES = 262_144
VAL_BYTES = 2_048  # one window at 2048, so an eval-long call is short and a run holds many
SPLIT = 1.0 - VAL_BYTES / CORPUS_BYTES  # 0.9921875 is exact, so val is VAL_BYTES long
ROUND_STEPS = 30  # training steps per round on train-*
SETUP_STEPS = 20  # ode steps trained in eval-long's set-up
SETUP_REPEATS = 3
BATCH = 8
TRAIN_LEN = 128
D_HEAD = 16
LN_VOCAB = math.log(256)

# Tolerances of the program's outputs against the float64 references.
LOGIT_TOL = 1e-4  # float32 logits: max |error| over max(1, max |logit|)
THETA_TOL = 1e-4  # relative error of a float32 solve of up to 120 RK4 steps
GRAD_TOL = 1e-5  # float64 program gradient against finite differences
FD_STEP = 2e-6


def model_config(method: str, seed: int) -> ModelConfig:
    return ModelConfig(n_layers=2, n_heads=4, d_model=64, train_len=TRAIN_LEN, method=method,
                       t_train=8.0 if method == "ode" else 1.0, seed=seed)


def train_settings(steps: int) -> TrainSettings:
    return TrainSettings(steps=steps, batch_size=BATCH)


class Loop:
    """Bookkeeping shared by the closed loops."""

    def __init__(self):
        self.op_s: list[float] = []  # wall time of each operation
        self.round_s: list[float] = []  # wall time of each round
        self.tokens = self.attempted = self.failed = self.differing = 0

    def restart(self) -> None:
        """Forget the timings so far; the counts of operations stay."""
        self.op_s, self.round_s, self.tokens = [], [], 0


@dataclasses.dataclass
class Outcome:
    setup_s: list[float]
    loop: Loop
    peak_rss_mb: float
    errors: list[str]
    layers: dict | None  # per-layer metrics of a traced run


def end_to_end(out: Outcome) -> dict:
    """End-to-end metrics {name: (value, unit)} of an untraced run.

    Rounds repeat identical work, so tok_s is a round's tokens over the
    median round: it counts round start-up and the long-t' steps, as a
    median of steps would not, and a slow phase of the machine moves it no
    more than it moves op_ms."""
    loop = out.loop
    values = {
        "setup_s": statistics.median(out.setup_s),
        "op_ms": 1e3 * statistics.median(loop.op_s),
        "tok_s": loop.tokens / len(loop.round_s) / statistics.median(loop.round_s),
        "peak_rss_mb": out.peak_rss_mb,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    if workload == "eval-long":
        return run_eval(seed, seconds, trace, work)
    return run_train(workload.split("-")[1], seed, seconds, trace, work)


def closed_loop(loop: Loop, seconds: float) -> None:
    """Run whole rounds back to back, at least two, until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    for n in itertools.count(1):
        loop()
        if n >= 2 and time.perf_counter() >= deadline:
            return


def measure(loop: Loop, seconds: float, trace: bool, parts) -> dict | None:
    """One untimed warm-up round, so that first-call allocation and page
    faults stay out of the figures. Then, untraced: one closed loop.
    Traced: an untraced half, then a traced half that yields the per-layer
    metrics and the tracing overhead."""
    loop()
    loop.restart()
    if not trace:
        closed_loop(loop, seconds)
        return None
    closed_loop(loop, seconds / 2)
    plain = loop.op_s
    loop.restart()
    tr = Tracer()
    tr.install()
    try:
        closed_loop(loop, seconds / 2)
    finally:
        tr.uninstall()
    traced = loop.op_s
    overhead_ms = 1e3 * (statistics.median(traced) - statistics.median(plain))
    return per_layer(tr, len(traced), _medians(parts), overhead_ms)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_corpus(path: Path, seed: int, parts) -> harness.Corpus:
    t0 = time.perf_counter()
    harness.write_demo_corpus(path, CORPUS_BYTES, seed)
    parts["harness.write_demo_corpus"].append(time.perf_counter() - t0)
    return harness.load_corpus(path, SPLIT)


# ---------------------------------------------------------------------------
# train-rope and train-ode


class StepClock:
    """Stamps the clock as each training step starts: harness.train draws
    the step's batch first, through harness.sample_train_batch."""

    def __init__(self):
        self.stamps: list[float] = []
        self._original = harness.sample_train_batch

    def __enter__(self):
        original = self._original

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        harness.sample_train_batch = stamped
        return self

    def __exit__(self, *exc):
        harness.sample_train_batch = self._original


class TrainLoop(Loop):
    def __init__(self, method: str, seed: int, corpus, clock: StepClock):
        super().__init__()
        self.cfg, self.corpus, self.clock = model_config(method, seed), corpus, clock
        self.first = None  # TrainResult of the first round

    def __call__(self):
        self.clock.stamps = []
        self.attempted += ROUND_STEPS
        t0 = time.perf_counter()
        try:
            result = harness.train(self.cfg, train_settings(ROUND_STEPS), self.corpus)
        except harness.NumericalAbort:
            self.failed += ROUND_STEPS - (len(self.clock.stamps) - 1)
            return
        end = time.perf_counter()
        if len(self.clock.stamps) != ROUND_STEPS:
            raise RuntimeError(f"step clock saw {len(self.clock.stamps)} steps, expected {ROUND_STEPS}")
        self.op_s.extend(np.diff(self.clock.stamps + [end]).tolist())
        self.round_s.append(end - t0)
        self.tokens += ROUND_STEPS * BATCH * TRAIN_LEN
        if self.first is None:
            self.first = result
        elif _steps(result.trace) != _steps(self.first.trace):
            self.differing += 1


def _steps(trace):
    return [(s.loss, s.t_prime) for s in trace]


def run_train(method: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    setup_s, parts, corpora = [], defaultdict(list), []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpora.append(make_corpus(work / f"corpus{i}.txt", seed, parts))
        setup_s.append(time.perf_counter() - t0)
    corpus = corpora[-1]
    with StepClock() as clock:
        loop = TrainLoop(method, seed, corpus, clock)
        layers = measure(loop, seconds, trace, parts)
    rss = peak_rss_mb()
    errors = check_train(loop, seed, corpus)
    if any(not np.array_equal(c.data, corpus.data) for c in corpora):
        errors.append("the demo corpus differs between set-ups with one seed")
    return Outcome(setup_s, loop, rss, errors, layers)


def check_train(loop: TrainLoop, seed: int, corpus) -> list[str]:
    if loop.first is None:
        return ["no round completed"]
    errors = []
    if loop.differing:
        errors.append(f"{loop.differing} repeated rounds gave a different loss trace")
    trace = loop.first.trace
    first, tail = trace[0].loss, statistics.fmean(s.loss for s in trace[-5:])
    if abs(first - LN_VOCAB) > 0.1:
        errors.append(f"step-0 loss {first:.4f} is not within 0.1 of ln 256")
    if not tail < first - 0.5:
        errors.append(f"loss fell only from {first:.4f} to {tail:.4f}")

    # The trained weights on a batch drawn here; for ode at the t' of the
    # round's first step.
    rng = np.random.default_rng([seed, 1])
    starts = rng.integers(0, corpus.train.size - TRAIN_LEN, size=BATCH)
    windows = np.stack([corpus.train[s : s + TRAIN_LEN + 1] for s in starts]).astype(np.int64)
    inputs, targets = windows[:, :-1], windows[:, 1:]
    params, cfg = loop.first.params, loop.cfg
    arrays = {k: v.data for k, v in params.items()}
    t_prime = trace[0].t_prime
    if t_prime is None:
        positions = np.arange(1, TRAIN_LEN + 1, dtype=np.float64)
        theta_ref = ref.default_theta(D_HEAD)
        theta = default_basis(D_HEAD)
    else:
        positions = np.sort(rng.choice(math.floor(t_prime * TRAIN_LEN), size=TRAIN_LEN, replace=False)) + 1.0
        z1 = np.log(ref.default_theta(D_HEAD))
        theta_ref = np.exp(ref.rk4_log_basis(z1, t_prime, arrays["ode.w_up"], arrays["ode.w_down"]))
        net = continuous.OdeNet.from_params(D_HEAD, params["ode.w_up"], params["ode.w_down"])
        with ad.no_grad():
            theta = ad.exp(continuous.solve(z1.astype(np.float32), t_prime, net))
        errors += _close("solved basis", theta.data, theta_ref, THETA_TOL)
    with ad.no_grad():
        logits = model.forward(params, cfg, inputs, positions, theta).data
    want = ref.forward(arrays, cfg.n_layers, cfg.n_heads, inputs, positions, theta_ref)
    errors += _logits_close("training logits", logits, want)
    return errors + check_gradients(arrays, cfg, inputs, targets, positions, t_prime)


def check_gradients(arrays, cfg, inputs, targets, positions, t_prime) -> list[str]:
    """The program's float64 gradient against finite differences of the
    reference loss, on the largest and one seeded entry of two weights."""
    p64 = {k: ad.Tensor(v.astype(np.float64), requires_grad=True) for k, v in arrays.items()}
    z1 = np.log(ref.default_theta(D_HEAD))
    if t_prime is None:
        names = ("layers.0.wq", "layers.1.w2")
        theta = default_basis(D_HEAD)
    else:
        names = ("ode.w_up", "ode.w_down")
        net = continuous.OdeNet.from_params(D_HEAD, p64["ode.w_up"], p64["ode.w_down"])
        p64["ode.w_up"], p64["ode.w_down"] = net.w_up, net.w_down
        theta = ad.exp(continuous.solve(z1, t_prime, net))
    ad.backward(ad.softmax_cross_entropy(model.forward(p64, cfg, inputs, positions, theta), targets))

    base = {k: v.astype(np.float64) for k, v in arrays.items()}

    def ref_loss(w):
        th = ref.default_theta(D_HEAD) if t_prime is None else np.exp(
            ref.rk4_log_basis(z1, t_prime, w["ode.w_up"], w["ode.w_down"]))
        return ref.cross_entropy(ref.forward(w, cfg.n_layers, cfg.n_heads, inputs, positions, th), targets)

    def central(name, idx, h):
        w = dict(base)
        w[name] = base[name].copy()
        cell = w[name].reshape(-1)
        cell[idx] += h
        up = ref_loss(w)
        cell[idx] -= 2 * h
        return (up - ref_loss(w)) / (2 * h)

    errors = []
    for name in names:
        flat = p64[name].grad.reshape(-1)
        for idx in (int(np.argmax(np.abs(flat))), int(np.random.default_rng(flat.size).integers(flat.size))):
            # Richardson step: the loss curves fast in ode.w_down at large t'.
            fd = (4.0 * central(name, idx, FD_STEP / 2) - central(name, idx, FD_STEP)) / 3.0
            if abs(flat[idx] - fd) > GRAD_TOL * max(abs(fd), 1e-3):
                errors.append(f"d loss / d {name}[{idx}]: program {flat[idx]:.8e}, finite difference {fd:.8e}")
    return errors


# ---------------------------------------------------------------------------
# eval-long


class EvalLoop(Loop):
    def __init__(self, params, cfg, settings, corpus):
        super().__init__()
        self.params, self.cfg, self.settings, self.corpus = params, cfg, settings, corpus
        self.report = None  # report of the first call

    def __call__(self):
        t0 = time.perf_counter()
        report = harness.evaluate(self.params, self.cfg, self.settings, self.corpus, EVAL_LENS)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if report.errors or len(report.rows) != len(EVAL_LENS):
            self.failed += 1
        self.op_s.append(dt)
        self.round_s.append(dt)
        self.tokens += sum((VAL_BYTES // r.eval_len) * (r.eval_len - 1) for r in report.rows)
        if self.report is None:
            self.report = report
        elif report.rows != self.report.rows:
            self.differing += 1


def setup_eval(work: Path, seed: int, parts):
    corpus = make_corpus(work / "corpus.txt", seed, parts)
    cfg = model_config("ode", seed)
    settings = train_settings(SETUP_STEPS)
    result = harness.train(cfg, settings, corpus)
    t0 = time.perf_counter()
    checkpoint.save_checkpoint(work / "checkpoint", result.params, {"method": "ode"})
    parts["checkpoint.save"].append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    params, _ = checkpoint.load_checkpoint(work / "checkpoint")
    parts["checkpoint.load"].append(time.perf_counter() - t0)
    parts["checkpoint.bytes"].append(sum(f.stat().st_size for f in (work / "checkpoint").iterdir()))
    return corpus, cfg, settings, result, params


def run_eval(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    setup_s, parts, setups = [], defaultdict(list), []
    for i in range(SETUP_REPEATS):
        (work / f"setup{i}").mkdir()
        t0 = time.perf_counter()
        setups.append(setup_eval(work / f"setup{i}", seed, parts))
        setup_s.append(time.perf_counter() - t0)
    corpus, cfg, settings, _, params = setups[-1]
    loop = EvalLoop(params, cfg, settings, corpus)
    layers = measure(loop, seconds, trace, parts)
    rss = peak_rss_mb()
    errors = check_setups(setups) + check_eval(loop, params, cfg, settings, corpus)
    return Outcome(setup_s, loop, rss, errors, layers)


def check_setups(setups) -> list[str]:
    errors = []
    corpus0, _, _, result0, _ = setups[0]
    for i, (corpus, _, _, result, params) in enumerate(setups):
        if set(params) != set(result.params) or any(
                not np.array_equal(result.params[k].data, params[k]) for k in params):
            errors.append(f"set-up {i}: the loaded checkpoint differs from the trained weights")
        if _steps(result.trace) != _steps(result0.trace) or not np.array_equal(corpus.data, corpus0.data):
            errors.append(f"set-up {i}: corpus or training did not repeat bit for bit")
    if not result0.trace[-1].loss < LN_VOCAB - 0.3:
        errors.append("set-up training did not bring the loss below ln 256")
    return errors


def check_eval(loop: EvalLoop, params, cfg, settings, corpus) -> list[str]:
    errors = []
    if loop.differing:
        errors.append(f"{loop.differing} repeated evaluate calls gave a different report")
    rows = loop.report.rows
    if [r.eval_len for r in rows] != list(EVAL_LENS):
        return errors + [f"report has lengths {[r.eval_len for r in rows]}"]
    if not rows[0].ppl < 256.0:
        errors.append(f"ppl {rows[0].ppl} at the training length is no better than uniform")
    tensors = {k: ad.Tensor(v) for k, v in params.items()}
    _, session = harness.make_cache_session(tensors, cfg, settings)
    z1 = np.log(ref.default_theta(D_HEAD))
    for row in rows:
        L = row.eval_len
        t = ref.eval_factor(L, TRAIN_LEN, settings.cache_factors)
        mult = ref.log_scale(TRAIN_LEN, L)
        if row.eval_t != t:
            errors.append(f"L{L}: eval_t {row.eval_t} breaks the cache rule ({t})")
        if abs(row.attn_scale_mult - mult) > 1e-12 * mult:
            errors.append(f"L{L}: attn_scale_mult {row.attn_scale_mult} != max(1, ln L / ln 128) = {mult}")
        if not (math.isfinite(row.ppl) and row.ppl >= 1.0) or not 0.0 <= row.acc <= 1.0:
            errors.append(f"L{L}: ppl {row.ppl}, acc {row.acc}")
        # One window scored by the reference, at the factor the rule picks.
        window = corpus.val[:L].astype(np.int64)[None]
        positions = np.arange(1, L + 1, dtype=np.float64)
        theta_ref = np.exp(ref.rk4_log_basis(z1, t, params["ode.w_up"], params["ode.w_down"]))
        _, basis = session.lookup(L)
        errors += _close(f"L{L} basis", basis.theta, theta_ref, THETA_TOL)
        with ad.no_grad():
            logits = model.forward(tensors, cfg, window, positions, basis, row.attn_scale_mult).data
        want = ref.forward(params, cfg.n_layers, cfg.n_heads, window, positions, theta_ref, mult)
        errors += _logits_close(f"L{L} logits", logits, want)
        nll, _, count = harness.score_windows(tensors, cfg, window, positions, basis, row.attn_scale_mult, 1)
        want_nll = ref.cross_entropy(want[:, :-1], window[:, 1:])
        if abs(nll / count - want_nll) > LOGIT_TOL * max(1.0, want_nll):
            errors.append(f"L{L}: mean NLL {nll / count:.6f}, reference {want_nll:.6f}")
    return errors


# ---------------------------------------------------------------------------


def _medians(parts) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in parts.items()}


def _close(what, got, want, tol) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got, np.float64) - want) / np.abs(want)))
    return [] if err <= tol else [f"{what}: max relative error {err:.3e} > {tol:.0e}"]


def _logits_close(what, got, want) -> list[str]:
    err = float(np.max(np.abs(got.astype(np.float64) - want))) / max(1.0, float(np.max(np.abs(want))))
    return [] if err <= LOGIT_TOL else [f"{what}: max error {err:.3e} of scale > {LOGIT_TOL:.0e}"]
