"""Training and evaluation harness: byte corpus handling, each method's
positions, basis and attention multiplier at a given length (the one rule
training, its random draws included, and evaluation share), the training
loop, and length-grouped perplexity/accuracy evaluation with baseline
self-extension and the log attention-scaling trick."""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import write_replace
from .continuous import (
    BasisCache,
    CacheSession,
    OdeNet,
    build_cache,
    position_plan,
    solve,  # unused here; perfbench reads and patches harness.solve
    solve_basis,
    solve_theta,
)
from .model import ModelConfig, forward, init_params, log_scale_mult
from .optim import Adam
from .rotary import FrequencyBasis, alpha, default_basis, scale_basis


class NumericalAbort(RuntimeError):
    """Training hit a non-finite loss or gradient norm."""


# ---------------------------------------------------------------------------
# corpus and batching


@dataclass(frozen=True)
class Corpus:
    """Byte-level token stream with a deterministic train/validation split."""

    data: np.ndarray
    train_end: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.uint8))
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        if not 0 <= self.train_end <= arr.size:
            raise ValueError("split offset out of range")

    @property
    def train(self) -> np.ndarray:
        return self.data[: self.train_end]

    @property
    def val(self) -> np.ndarray:
        return self.data[self.train_end :]


def load_corpus(path, split_fraction: float = 0.9) -> Corpus:
    if not 0.0 <= split_fraction <= 1.0:
        raise ValueError(f"split_fraction must be in [0, 1], got {split_fraction}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"corpus not found: {path}") from None
    if not raw:
        raise ValueError(f"corpus is empty: {path}")
    data = np.frombuffer(raw, dtype=np.uint8)
    train_end = int(data.size * split_fraction + 1e-9)
    return Corpus(data, train_end)


def sample_train_batch(corpus: Corpus, seq_len: int, batch_size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random contiguous windows of seq_len+1 tokens from the training split,
    returned as (inputs, next-token targets)."""
    train = corpus.train
    span = seq_len + 1
    if train.size < span:
        raise ValueError(f"training split too short: {train.size} < {span}")
    starts = rng.integers(0, train.size - span + 1, size=batch_size)
    windows = np.stack([train[s : s + span] for s in starts])
    return windows[:, :-1].astype(np.int64), windows[:, 1:].astype(np.int64)


def evaluation_windows(corpus: Corpus, seq_len: int) -> np.ndarray:
    """Non-overlapping consecutive seq_len windows covering the validation
    split; the remainder is dropped."""
    val = corpus.val
    if val.size == 0:
        raise ValueError("validation split is empty; evaluation refuses to run")
    n = val.size // seq_len
    if n == 0:
        raise ValueError(f"validation split shorter than one window of {seq_len}")
    return val[: n * seq_len].reshape(n, seq_len).astype(np.int64)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    steps: int = 200
    batch_size: int = 8
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    grad_clip: float = 1.0
    precision: str = "float32"
    steps_per_unit: int = 8
    lambda_amp: int = 1
    cache_factors: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64

    def validate(self) -> "TrainSettings":
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"precision must be float32 or float64, got {self.precision}")
        # nan compares false, so it passes these checks and a nan lr aborts training (exit 4)
        for key, low in (("steps", 1), ("batch_size", 1), ("steps_per_unit", 1), ("lambda_amp", 1),
                         ("lr", 0), ("grad_clip", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        factors = self.cache_factors
        ascending = all(b > a for a, b in zip(factors, factors[1:]))
        if not factors or not factors[0] >= 1.0 or not ascending or not np.isfinite(factors).all():
            raise ValueError(f"cache_factors must be finite, strictly ascending and >= 1, got {list(factors)}")
        return self


@dataclass
class StepRecord:
    step: int
    loss: float
    t_prime: float | None = None


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    trace: list[StepRecord]


def train(cfg: ModelConfig, settings: TrainSettings, corpus: Corpus) -> TrainResult:
    """Train one model from scratch. Every random draw comes from a single
    generator seeded by cfg.seed, so runs are bit-reproducible."""
    cfg.validate()
    settings.validate()
    dtype = settings.dtype
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, dtype=dtype, rng=rng)

    solver = None
    if cfg.method == "ode":
        net = OdeNet(cfg.d_head, settings.lambda_amp, dtype=dtype, rng=rng)
        params.update(net.params())
        solver = partial(solve_theta, net=net, steps_per_unit=settings.steps_per_unit)

    opt = Adam(params, settings.lr, settings.beta1, settings.beta2, settings.eps,
               grad_clip=settings.grad_clip)

    trace: list[StepRecord] = []
    for step in range(settings.steps):
        inputs, targets = sample_train_batch(corpus, cfg.train_len, settings.batch_size, rng)
        positions, theta, t_prime, mult = method_inputs(cfg, cfg.train_len, rng=rng, solver=solver)
        logits = forward(params, cfg, inputs, positions, theta, mult)
        loss = ad.softmax_cross_entropy(logits, targets)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise NumericalAbort(
                f"non-finite loss {loss_val} at step {step} (method={cfg.method})"
            )
        ad.backward(loss)
        grad_norm = opt.step()
        if not math.isfinite(grad_norm):
            raise NumericalAbort(
                f"non-finite gradient norm {grad_norm} at step {step} (method={cfg.method})"
            )
        opt.zero_grad()
        trace.append(StepRecord(step, loss_val, t_prime))
        if settings.steps >= 1000 and (step + 1) % 500 == 0:
            print(
                f"[{cfg.method}] step {step + 1}/{settings.steps} loss {loss_val:.4f}",
                file=sys.stderr,
            )
    return TrainResult(params, trace)


# ---------------------------------------------------------------------------
# evaluation


def self_extension_factor(t_fixed: float, base_len: int, eval_len: int) -> float:
    """Evaluation-time scale factor for discretely scaled models:
    proportionally enlarged once eval_len exceeds the trained extension
    t_fixed*base_len, otherwise the training factor itself."""
    if t_fixed < 1.0:
        raise ValueError(f"t_fixed must be >= 1, got {t_fixed}")
    return max(float(t_fixed), eval_len / base_len)


def method_inputs(
    cfg: ModelConfig, length: int, session: CacheSession | None = None,
    rng: np.random.Generator | None = None, solver: Callable[[float], Tensor] | None = None,
) -> tuple[np.ndarray, FrequencyBasis | Tensor, float | None, float]:
    """(positions, basis, t, attn_mult) that cfg.method feeds the model at a
    sequence length: the one rule of every method, in training and in
    evaluation.

    rope and randompos use natural positions and the stock basis. pi and
    yarn self-extend their factor past t_fixed*train_len: pi divides the
    positions by it (its 1/t profile moved onto the indices), yarn scales
    the basis by its geometric profile. codellama's profile does not depend
    on t. ode looks its basis up in the session's cache. All of them scale
    attention scores by log_scale_mult(train_len, length), 1 at train_len.

    A training step passes the run's generator as rng, at cfg.train_len:
    randompos draws positions from [1, t_train*train_len]; ode draws t' from
    U[1, t_train], then positions from [1, t'*train_len], and takes its graph
    basis from solver(t'). t is then the drawn t', None for the methods that
    draw none, which feed their evaluation inputs.
    """
    positions = np.arange(1, length + 1, dtype=np.float64)
    mult = log_scale_mult(cfg.train_len, length)
    if cfg.method == "ode":
        if rng is None:
            t, basis = session.lookup(length)
            return positions, basis, t, mult
        t = float(rng.uniform(1.0, cfg.t_train))
        return position_plan(length, t, int(rng.integers(0, 2**63))), solver(t), t, mult
    if cfg.method == "randompos" and rng is not None:
        positions = position_plan(length, cfg.t_train, int(rng.integers(0, 2**63)))
    basis, t = default_basis(cfg.d_head), 1.0
    if cfg.method == "codellama":
        basis = scale_basis(basis, alpha("codellama", 1.0, cfg.d_head))
    elif cfg.method in ("pi", "yarn"):
        t = self_extension_factor(cfg.t_fixed, cfg.train_len, length)
        if cfg.method == "pi":
            positions = positions / t
        else:
            basis = scale_basis(basis, alpha("yarn", t, cfg.d_head))
    elif cfg.method not in ("rope", "randompos"):
        raise ValueError(f"unknown method {cfg.method!r}")
    return positions, basis, t if rng is None else None, mult


@dataclass(frozen=True)
class EvalRow:
    method: str
    train_len: int
    eval_len: int
    eval_t: float
    attn_scale_mult: float
    ppl: float
    acc: float


CSV_HEADER = ",".join(f.name for f in fields(EvalRow))


@dataclass
class EvalReport:
    """Rows of one evaluation grid. cache is the basis cache that evaluate
    built for an ode checkpoint (None for the discrete methods); neither
    report file holds it, and reports compare by rows and errors only.
    errors is always empty: nothing writes it any more, and it stays only
    because report.json holds an "errors" key and the benchmark reads it."""

    rows: list[EvalRow] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    cache: BasisCache | None = field(default=None, compare=False)

    def to_csv(self) -> str:
        """One line per row in EvalRow's field order: floats at 6 decimals,
        everything else as str gives it."""
        lines = [CSV_HEADER]
        for r in self.rows:
            values = (getattr(r, f.name) for f in fields(EvalRow))
            lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values))
        return "\n".join(lines) + "\n"

    def to_json_doc(self, meta: dict | None = None) -> dict:
        return {
            "meta": meta or {},
            "errors": list(self.errors),
            "rows": [asdict(r) for r in self.rows],
        }

    def row(self, method: str, eval_len: int) -> EvalRow:
        for r in self.rows:
            if r.method == method and r.eval_len == eval_len:
                return r
        raise KeyError(f"no row for ({method}, {eval_len})")


def score_windows(
    params: dict[str, Tensor | np.ndarray],
    cfg: ModelConfig,
    windows: np.ndarray,
    positions: np.ndarray,
    basis,
    attn_scale_mult: float,
    batch_size: int,
) -> tuple[float, int, int]:
    """Sum of next-token NLL (in float64), correct argmax count, and
    prediction count over the given eval windows. params may hold Tensors
    or a loaded checkpoint's arrays. The last position of each window has
    no target and is skipped."""
    nll_sum = 0.0
    correct = 0
    count = 0
    with ad.no_grad():
        for start in range(0, windows.shape[0], batch_size):
            chunk = windows[start : start + batch_size]
            logits = forward(params, cfg, chunk, positions, basis, attn_scale_mult)
            z = logits.data.astype(np.float64)[:, :-1, :]
            targets = chunk[:, 1:]
            zmax = z.max(axis=-1, keepdims=True)
            lse = zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1))
            picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
            nll_sum += float((lse - picked).sum())
            correct += int((z.argmax(axis=-1) == targets).sum())
            count += targets.size
    return nll_sum, correct, count


def make_cache_session(
    params: dict, cfg: ModelConfig, settings: TrainSettings
) -> tuple[BasisCache, CacheSession]:
    """Basis cache for an ode-method checkpoint plus a lookup session that
    solves on demand past the cached factors, both from one solver."""
    net = OdeNet.from_params(cfg.d_head, params["ode.w_up"], params["ode.w_down"])
    solver = partial(solve_basis, net=net, steps_per_unit=settings.steps_per_unit)
    cache = build_cache(solver, settings.cache_factors, cfg.train_len)
    return cache, CacheSession(cache, solver)


def evaluate(
    params: dict[str, Tensor | np.ndarray],
    cfg: ModelConfig,
    settings: TrainSettings,
    corpus: Corpus,
    eval_lens,
    label: str | None = None,
) -> EvalReport:
    """Length-grouped perplexity and next-token accuracy.

    Per length: take the method's positions, basis, factor and attention
    multiplier from method_inputs, and score all validation windows.
    """
    cfg.validate()
    settings.validate()
    label = label or cfg.method
    report = EvalReport()
    session = None
    if cfg.method == "ode":
        report.cache, session = make_cache_session(params, cfg, settings)
    for eval_len in eval_lens:
        if eval_len < 2:
            raise ValueError(f"eval_len must be >= 2, got {eval_len}")
        windows = evaluation_windows(corpus, eval_len)
        positions, basis, eval_t, mult = method_inputs(cfg, eval_len, session)
        nll, correct, count = score_windows(
            params, cfg, windows, positions, basis, mult, settings.batch_size
        )
        report.rows.append(
            EvalRow(
                method=label,
                train_len=cfg.train_len,
                eval_len=int(eval_len),
                eval_t=float(eval_t),
                attn_scale_mult=float(mult),
                ppl=float(math.exp(nll / count)),
                acc=float(correct / count),
            )
        )
    return report


@dataclass
class CompareEntry:
    cfg: ModelConfig
    settings: TrainSettings
    params: dict | None = None  # pre-trained parameters; None means train here
    label: str | None = None


def compare(entries: list[CompareEntry], corpus: Corpus, eval_lens) -> tuple[EvalReport, list[TrainResult | None]]:
    """Train (or reuse) each configuration and evaluate all of them on the
    shared length grid, merging rows into one report."""
    vocabs = {e.cfg.vocab for e in entries}
    if len(vocabs) > 1:
        raise ValueError(f"conflicting vocab sizes across configs: {sorted(vocabs)}")
    merged = EvalReport()
    results: list[TrainResult | None] = []
    for entry in entries:
        if entry.params is None:
            result = train(entry.cfg, entry.settings, corpus)
            params = result.params
        else:
            result = None
            params = entry.params
        results.append(result)
        rep = evaluate(params, entry.cfg, entry.settings, corpus, eval_lens, entry.label)
        merged.rows.extend(rep.rows)
    return merged, results


def extrapolation_breakpoints(report: EvalReport) -> dict[str, int | None]:
    """Smallest eval_len where a method's ppl exceeds twice its ppl at its
    training length; None if that never happens on the grid."""
    out: dict[str, int | None] = {}
    methods = []
    for r in report.rows:
        if r.method not in methods:
            methods.append(r.method)
    for method in methods:
        rows = sorted((r for r in report.rows if r.method == method), key=lambda r: r.eval_len)
        base = next((r.ppl for r in rows if r.eval_len == r.train_len), None)
        if base is None:
            base = rows[0].ppl
        out[method] = next((r.eval_len for r in rows if r.ppl > 2.0 * base), None)
    return out


# ---------------------------------------------------------------------------
# demo corpus

_WORDS = (
    "the of and to in a is that it was for on are as with his they at be this "
    "have from or had by word but what some we can out other were all there "
    "when up use your how said an each she which do their time if will way "
    "about many then them write would like so these her long make thing see "
    "him two has look more day could go come did number sound no most people "
    "my over know water than call first who may down side been now find any "
    "new work part take get place made live where after back little only "
    "round man year came show every good me give our under name very through "
    "just form sentence great think say help low line differ turn cause much "
    "mean before move right boy old too same tell does set three want air "
    "well also play small end put home read hand port large spell add even "
    "land here must big high such follow act why ask men change went light "
    "kind off need house picture try us again animal point mother world near "
    "build self earth father head stand own page should country found answer "
    "school grow study still learn plant cover food sun four between state "
    "keep eye never last let thought city tree cross farm hard start might "
    "story saw far sea draw left late run while press close night real life "
    "few north open seem together next white children begin got walk example "
    "ease paper group always music those both mark often letter until mile "
    "river car feet care second book carry took science eat room friend began "
    "idea fish mountain stop once base hear horse cut sure watch color face "
    "wood main enough plain girl usual young ready above ever red list though "
    "feel talk bird soon body dog family direct pose leave song measure door "
    "product black short numeral class wind question happen complete ship "
    "area half rock order fire south problem piece told knew pass since top "
    "whole king space heard best hour better true during hundred five "
    "remember step early hold west ground interest reach fast verb sing "
    "listen six table travel less morning ten simple several vowel toward war "
    "lay against pattern slow center love person money serve appear road map "
    "rain rule govern pull cold notice voice unit power town fine certain fly "
    "fall lead cry dark machine note wait plan figure star box noun field "
    "rest correct able pound done beauty drive stood contain front teach week "
    "final gave green oh quick develop ocean warm free minute strong special "
    "mind behind clear tail produce fact street inch multiply nothing course "
    "stay wheel full force blue object decide surface deep moon island foot "
    "system busy test record boat common gold possible plane stead dry "
    "wonder laugh thousand ago ran check game shape equate hot miss brought "
    "heat snow tire bring yes distant fill east paint language among"
).split()


def _choice_cdf(weights: np.ndarray) -> list[float]:
    """The cumulative table that Generator.choice(p=weights) builds on every call."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def demo_corpus_bytes(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-English byte stream: Zipf-weighted words plus a
    bank of recurring multi-word phrases, grouped into sentences and
    paragraphs. Compressible enough for a tiny byte-level model to learn
    real structure from; fixed given (n_bytes, seed).

    Sampling rule: every weighted pick is bisect_right(cdf, rng.random()),
    with cdf built once per table as Generator.choice(p=weights) builds it
    on each call (cumsum, divided by its last entry). That is choice's draw
    from the same one double, so the bytes are those of one rng.choice per
    pick."""
    rng = np.random.default_rng(seed)
    n_words = len(_WORDS)
    ranks = np.arange(n_words, dtype=np.float64)
    weights = 1.0 / (ranks + 2.0) ** 1.1
    weights /= weights.sum()
    word_cdf = _choice_cdf(weights)
    # recurring collocations give the text verbatim n-grams worth copying
    phrases = [
        " ".join(_WORDS[bisect_right(word_cdf, u)] for u in rng.random(int(rng.integers(2, 5))).tolist())
        for _ in range(400)
    ]
    phrase_weights = 1.0 / (np.arange(len(phrases), dtype=np.float64) + 2.0)
    phrase_weights /= phrase_weights.sum()
    phrase_cdf = _choice_cdf(phrase_weights)

    pieces: list[str] = []
    total = 0
    sentences_in_par = 0
    par_target = int(rng.integers(20, 60))
    while total < n_bytes:
        units = []
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.6:
                units.append(phrases[bisect_right(phrase_cdf, rng.random())])
            else:
                units.append(_WORDS[bisect_right(word_cdf, rng.random())])
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


def write_demo_corpus(path, n_bytes: int = 2_621_440, seed: int = 0) -> None:
    """Write demo_corpus_bytes(n_bytes, seed) to path whole or not at all:
    an interrupted write would leave a shorter corpus that loads as valid."""
    write_replace(path, demo_corpus_bytes(n_bytes, seed))
