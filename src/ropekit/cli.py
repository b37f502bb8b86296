"""Command-line entry point: config-driven train / eval / basis / compare.

Runs are experiment records: every command resolves its config (file plus
--set overrides plus defaults), writes the resolved snapshot next to its
outputs in a fresh run directory, and is bit-reproducible from that
snapshot and the seed alone.

Each command reads and checks all of its input first and then returns its
work as a callable, so main is the one place that maps errors to exit
codes: 0 success, 2 input error, 3 checkpoint/config mismatch, 4 numerical
abort. An error the work raises otherwise is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import ATTENTION_BLOCK
from .checkpoint import load_checkpoint, save_checkpoint
from .continuous import OdeNet, cache_to_json, check_fits, rk4_steps, solve_basis
from .harness import (
    EvalReport,
    NumericalAbort,
    TrainResult,
    TrainSettings,
    evaluate,
    extrapolation_breakpoints,
    load_corpus,
    train,
    write_demo_corpus,
)
from .model import ModelConfig, init_params
from .rotary import alpha, default_basis, scale_basis


class InputError(ValueError):
    """Bad config, flags, input files or output path (exit 2)."""


class CompatError(ValueError):
    """Checkpoint and config disagree (exit 3)."""


# Keys outside the two dataclasses. compare reads them once for all runs,
# so a runs entry may not set them.
_SHARED_DEFAULTS = {
    "corpus": None,
    "split_fraction": 0.9,
    "eval_lens": [128, 256, 512, 1024],
    "out_dir": None,
}
# Every other key is a ModelConfig or TrainSettings field, and its default
# there is its only definition, a tuple written as a list.
DEFAULTS: dict = {
    **{
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for cls in (ModelConfig, TrainSettings) for f in fields(cls)
    },
    **_SHARED_DEFAULTS,
}

_RUN_ONLY_KEYS = {"label", "checkpoint"}

# The JSON values that a default's type admits, and how an error names them.
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((str, type(None)), "null or a string"),
}


def resolve_config(doc: dict, allow_runs: bool = False) -> dict:
    """Defaults + document, rejecting unknown keys."""
    known = set(DEFAULTS) | ({"runs"} if allow_runs else set())
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(doc)
    if allow_runs:
        runs = cfg.get("runs")
        if not (runs is None or isinstance(runs, list) and all(isinstance(e, dict) for e in runs)):
            raise InputError(f"runs must be a list of objects, got {runs!r}")
        checked = []
        for i, entry in enumerate(runs or [{}]):
            bad = set(entry) - set(DEFAULTS) - _RUN_ONLY_KEYS
            if bad:
                raise InputError(f"unknown keys in runs[{i}]: {sorted(bad)}")
            shared = set(entry) & _SHARED_DEFAULTS.keys()
            if shared:
                raise InputError(f"runs[{i}] sets top-level-only keys {sorted(shared)}")
            for key in sorted(_RUN_ONLY_KEYS & entry.keys()):
                _typed(f"runs[{i}].{key}", entry[key], None)
            checked.append(dict(entry))
        cfg["runs"] = checked
    return cfg


def apply_overrides(cfg: dict, sets: list[str] | None) -> dict:
    for item in sets or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in DEFAULTS:
            raise InputError(f"unknown config key in --set: {key!r}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, an integer too long, or nested too deep
            value = raw
        cfg[key] = value
    return cfg


def load_config_file(path, allow_runs: bool = False) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"config not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # not JSON, an integer too long, or nested too deep
        raise InputError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    return resolve_config(doc, allow_runs=allow_runs)


def _typed(key: str, value, default):
    """A config value checked against the type of its default, so that no
    value is truncated or reinterpreted: an int takes only a JSON integer, a
    float an integer or a float, and neither a bool; an integer must fit in
    int64 and a float key's integer in a float; a str takes a string
    and a None default null or a string, and a list or tuple a list of its
    first entry's type."""
    listed = isinstance(default, (list, tuple))
    kind = type(default[0]) if listed else type(default)
    types, name = _JSON_TYPES[kind]
    entries = value if listed else [value]
    if not isinstance(entries, list) or any(isinstance(v, bool) or not isinstance(v, types) for v in entries):
        name = f"a list, each entry {name}" if listed else name
        raise ValueError(f"{key} must be {name}, got {value!r}")
    if kind is int and not all(-2**63 <= v < 2**63 for v in entries):
        raise ValueError(f"{key} must be an integer in the signed 64-bit range, got {value!r}")
    if kind is float:
        try:
            entries = [float(v) for v in entries]
        except OverflowError:
            raise ValueError(f"{key} must be a number that a float can hold, got {value!r}") from None
    return type(default)(entries) if listed else entries[0]


def split_config(cfg: dict) -> tuple[ModelConfig, TrainSettings]:
    """Typed model config and train settings from a resolved config, after
    checking every value, so bad input fails before any corpus load or
    training."""
    model_cfg, settings = (
        cls(**{f.name: _typed(f.name, cfg[f.name], f.default) for f in fields(cls)}).validate()
        for cls in (ModelConfig, TrainSettings)
    )
    shared = {k: _typed(k, cfg[k], d) for k, d in _SHARED_DEFAULTS.items()}
    if model_cfg.vocab < 256:
        raise ValueError(f"vocab must be >= 256 to hold every byte of the corpus, got {model_cfg.vocab}")
    if not shared["eval_lens"]:
        raise ValueError("eval_lens must list at least one length")
    if not all(n >= 2 for n in shared["eval_lens"]):
        raise ValueError(f"eval_lens must all be >= 2, got {shared['eval_lens']}")
    m, batch, longest = model_cfg, settings.batch_size, max(shared["eval_lens"])
    if m.method == "ode":
        # continuous.solve's drift table at the largest factor the config solves at
        t_max = max(m.t_train, settings.cache_factors[-1], longest / m.train_len)
        rk4_steps(t_max, settings.steps_per_unit, m.d_head)
    for shape, size in (
        ("vocab x d_model (the embedding table)", m.vocab * m.d_model),
        ("d_model x 4 d_model (an MLP weight)", 4 * m.d_model**2),
        ("batch_size x train_len x vocab (a step's logits)", batch * m.train_len * m.vocab),
        ("batch_size x n_heads x train_len^2 (a step's attention weights)", batch * m.n_heads * m.train_len**2),
        ("batch_size x max(eval_lens) x vocab (an eval step's logits)", batch * longest * m.vocab),
        ("batch_size x n_heads x min(ATTENTION_BLOCK, max(eval_lens)) x max(eval_lens) (an eval attention slab)",
         batch * m.n_heads * min(ATTENTION_BLOCK, longest) * longest),
    ):
        check_fits(shape, size)
    return model_cfg, settings


def config_hash(cfg: dict) -> str:
    doc = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_commit() -> str:
    """HEAD of the checkout holding this module, whatever the cwd; else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, cwd=Path(__file__).resolve().parent)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):  # no git, or a hung one
        return "unknown"


def make_run_dir(cfg: dict, cli_out: str | None, command: str, tag: str) -> Path:
    root = Path(cli_out or cfg.get("out_dir") or os.environ.get("ROPEKIT_OUT") or "runs")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"{stamp}-{command}-{tag}"
    candidate = root / base
    suffix = 2
    try:
        root.mkdir(parents=True, exist_ok=True)
        while candidate.exists():
            candidate = root / f"{base}-{suffix}"
            suffix += 1
        candidate.mkdir()
    except OSError as e:
        raise InputError(f"cannot make a run directory under {root}: {e}") from None
    return candidate


def output_file(path) -> Path:
    """path as a command's output file, checked to lie in an existing
    directory and not to be one, so a bad path fails before any work."""
    out = Path(path)
    if not out.parent.is_dir():
        raise InputError(f"output directory does not exist: {out.parent}")
    if out.is_dir():
        raise InputError(f"output path is a directory: {out}")
    return out


def write_resolved_config(run_dir: Path, cfg: dict) -> None:
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def checkpoint_extra(cfg: dict) -> dict:
    return {
        "model": {f.name: cfg[f.name] for f in fields(ModelConfig)},
        "precision": cfg["precision"],
        "lambda_amp": cfg["lambda_amp"],
        "config_hash": config_hash(cfg),
    }


def _spec(t) -> str:
    return "none" if t is None else f"{t.dtype.name} {tuple(t.shape)}"


def _check_tensors(params: dict, expected: dict, names) -> None:
    """CompatError naming each of names whose checkpoint tensor is absent,
    or present though not expected, or of another dtype or shape."""
    bad = [f"{n}: checkpoint has {_spec(params.get(n))}, expected {_spec(expected.get(n))}"
           for n in sorted(names) if _spec(params.get(n)) != _spec(expected.get(n))]
    if bad:
        raise CompatError(f"checkpoint tensors do not match ({'; '.join(bad)})")


def check_compat(params: dict, ckpt_extra: dict, cfg: dict, model_cfg: ModelConfig, settings: TrainSettings) -> None:
    """The checkpoint's recorded config, then its tensor names, dtypes and
    shapes, against the resolved cfg and its split_config output (model_cfg,
    settings). The expected tensors come from init_params, plus the dynamics
    net for ode."""
    want = checkpoint_extra(cfg)
    recorded = ckpt_extra.get("model")
    recorded = recorded if isinstance(recorded, dict) else {}
    mismatched = [key for key, value in want["model"].items() if recorded.get(key) != value]
    for key in ("precision", "lambda_amp"):
        if ckpt_extra.get(key) != want[key]:
            mismatched.append(key)
    if mismatched:
        raise CompatError(
            f"checkpoint is incompatible with config (mismatched: {sorted(set(mismatched))})"
        )
    expected = init_params(model_cfg, settings.dtype)
    if model_cfg.method == "ode":
        expected.update(OdeNet(model_cfg.d_head, settings.lambda_amp, settings.dtype).params())
    _check_tensors(params, expected, set(params) | set(expected))


def write_report(run_dir: Path, report: EvalReport, cfg: dict) -> None:
    (run_dir / "report.csv").write_text(report.to_csv())
    meta = {"seed": cfg["seed"], "commit": git_commit(), "config_hash": config_hash(cfg)}
    doc = report.to_json_doc(meta)
    (run_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_table(report: EvalReport) -> str:
    """The lines of report.csv as left-aligned columns."""
    rows = [line.split(",") for line in report.to_csv().splitlines()]
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


def plan_runs(cfg: dict, run_docs: list[dict], scored: bool = True):
    """Each of run_docs (compare's runs, or the one run of train or eval) as
    [label, resolved config, model config, settings, checkpoint params or
    None to train it], and the corpus. Every command checks in this order:
    the runs' values, labels and vocab, then the corpus (the validation split
    only when the runs are scored), then each checkpoint against its run."""
    shared = {k: v for k, v in cfg.items() if k != "runs"}
    runs = []
    for doc in run_docs:
        run_cfg = {**shared, **{k: v for k, v in doc.items() if k not in _RUN_ONLY_KEYS}}
        model_cfg, settings = split_config(run_cfg)
        runs.append([doc.get("label") or model_cfg.method, run_cfg, model_cfg, settings, doc.get("checkpoint")])
    labels = [run[0] for run in runs]
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate run labels: {labels}; set distinct 'label' keys")
    if any("," in label for label in labels):
        raise InputError(f"run labels are report.csv fields and may not contain commas: {labels}")
    reserved = {".", "..", "config.json", "report.csv", "report.json"}
    if any(label in reserved or set(label) & {os.sep, os.altsep, "\0"} for label in labels):
        raise InputError(f"run labels name subdirectories of the run directory, so may not be one of "
                         f"{sorted(reserved)} or contain a path separator: {labels}")
    vocabs = sorted({run[2].vocab for run in runs})
    if len(vocabs) > 1:
        raise InputError(f"runs must share one vocab, got vocab sizes {vocabs}")

    if not cfg.get("corpus"):
        raise InputError("config key 'corpus' is required")
    corpus = load_corpus(cfg["corpus"], cfg["split_fraction"])
    for _, _, model_cfg, _, checkpoint in runs:
        if checkpoint is None and corpus.train.size < model_cfg.train_len + 1:
            raise InputError(f"training split too short: {corpus.train.size} bytes "
                             f"< train_len {model_cfg.train_len} + 1")
    if scored and corpus.val.size < max(cfg["eval_lens"]):
        raise InputError(
            f"validation split too short: {corpus.val.size} bytes < one window of {max(cfg['eval_lens'])}"
        )
    for run in runs:
        if run[4] is not None:
            params, extra = load_checkpoint(run[4])
            check_compat(params, extra, *run[1:4])
            run[4] = params
    return runs, corpus


def train_run(run_dir: Path, cfg: dict, model_cfg: ModelConfig, settings: TrainSettings, corpus) -> TrainResult:
    """Trains a run into run_dir: config.json first, then loss.csv and checkpoint/."""
    write_resolved_config(run_dir, cfg)
    result = train(model_cfg, settings, corpus)
    lines = ["step,loss,t_prime"]
    for rec in result.trace:
        t = "" if rec.t_prime is None else f"{rec.t_prime:.8f}"
        lines.append(f"{rec.step},{rec.loss:.8f},{t}")
    (run_dir / "loss.csv").write_text("\n".join(lines) + "\n")
    save_checkpoint(run_dir / "checkpoint", result.params, checkpoint_extra(cfg))
    return result


# ---------------------------------------------------------------------------
# commands: each checks all of its input, then returns its work for main to run


def cmd_train(args) -> Callable[[], None]:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    [(_, _, model_cfg, settings, _)], corpus = plan_runs(cfg, [{}], scored=False)
    run_dir = make_run_dir(cfg, args.out, "train", model_cfg.method)

    def work():
        print(f"run dir: {run_dir}", file=sys.stderr)
        result = train_run(run_dir, cfg, model_cfg, settings, corpus)
        print(f"trained {model_cfg.method} for {settings.steps} steps; "
              f"final loss {result.trace[-1].loss:.6f}")
        print(f"checkpoint: {run_dir / 'checkpoint'}")
    return work


def cmd_eval(args) -> Callable[[], None]:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    [(_, _, model_cfg, settings, params)], corpus = plan_runs(cfg, [{"checkpoint": args.checkpoint}])
    run_dir = make_run_dir(cfg, args.out, "eval", model_cfg.method)

    def work():
        write_resolved_config(run_dir, cfg)
        report = evaluate(params, model_cfg, settings, corpus, cfg["eval_lens"])
        write_report(run_dir, report, cfg)
        if report.cache is not None:
            (run_dir / "cache.json").write_text(
                json.dumps(cache_to_json(report.cache), indent=2, sort_keys=True) + "\n"
            )
        print(format_table(report))
        print(f"report: {run_dir / 'report.csv'}", file=sys.stderr)
    return work


def cmd_basis(args) -> Callable[[], None]:
    d = args.head_dim
    if d % 2 != 0 or d < 2:
        raise InputError(f"head dim must be even and >= 2, got {d}")
    check_fits("d/2 (the frequency basis)", d // 2)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        t_values = [float(t) for t in args.t.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"--t expects comma-separated numbers, got {args.t!r}") from None
    if not methods or not t_values:
        raise InputError("need at least one method and one t value")
    out = output_file(args.out) if args.out else None

    net = None
    # a given checkpoint is read and checked even when no ode row uses it
    if "ode" in methods or args.checkpoint:
        check_fits("d/2 x d (the dynamics net's w_up)", d // 2 * d)
        net = OdeNet(d)  # w_down = 0: pure drift
        if args.checkpoint:
            params, _ = load_checkpoint(args.checkpoint)
            # the width of w_up gives lambda_amp, and its dtype the precision
            w_up = params.get("ode.w_up", np.empty((0, 0)))
            lambda_amp = max(1, w_up.shape[1] // d) if w_up.ndim == 2 else 1
            expected = OdeNet(d, lambda_amp, w_up.dtype).params()
            _check_tensors(params, expected, expected)
            net = OdeNet.from_params(d, params["ode.w_up"], params["ode.w_down"])

    # computing the rows is what checks each method and t, so only writing them is work
    base = default_basis(d)
    lines = ["method,t,i,theta_i"]
    for method in methods:
        for t in t_values:
            if method == "ode":
                basis = solve_basis(t, net, args.steps_per_unit)
            else:
                basis = scale_basis(base, alpha(method, t, d))
            for i, theta_i in enumerate(basis.theta):
                lines.append(f"{method},{t:.6f},{i},{theta_i:.12g}")
    text = "\n".join(lines) + "\n"

    def work():
        if not out:
            print(text, end="")
            return
        try:
            out.write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {out}: {e}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    return work


def cmd_compare(args) -> Callable[[], None]:
    cfg = apply_overrides(load_config_file(args.config, allow_runs=True), args.set)
    runs, corpus = plan_runs(cfg, cfg["runs"])
    labels = [run[0] for run in runs]
    run_dir = make_run_dir(cfg, args.out, "compare", "x".join(labels))

    def work():
        write_resolved_config(run_dir, cfg)
        print(f"run dir: {run_dir}", file=sys.stderr)
        report = EvalReport()
        # each trained run is saved before the next one starts, so an abort keeps it
        for label, run_cfg, model_cfg, settings, params in runs:
            if params is None:
                (run_dir / label).mkdir()
                try:
                    params = train_run(run_dir / label, run_cfg, model_cfg, settings, corpus).params
                except NumericalAbort as e:
                    raise NumericalAbort(f"run {label}: {e}") from None
            report.rows.extend(evaluate(params, model_cfg, settings, corpus, cfg["eval_lens"], label).rows)
        write_report(run_dir, report, cfg)

        print(format_table(report))
        print()
        breaks = extrapolation_breakpoints(report)
        for label in labels:
            bp = breaks.get(label)
            where = f"eval_len {bp}" if bp is not None else "none within the grid"
            print(f"extrapolation breakpoint for {label}: {where}")
    return work


def cmd_corpus(args) -> Callable[[], None]:
    if args.bytes < 1:
        raise InputError("corpus size must be positive")
    check_fits("--bytes (the corpus, one entry per byte)", args.bytes)
    if args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
    out = output_file(args.out)

    def work():
        try:
            write_demo_corpus(out, args.bytes, args.seed)
        except OSError as e:
            raise InputError(f"cannot write {out}: {e}") from None
        print(f"wrote {args.bytes} bytes to {args.out}", file=sys.stderr)
    return work


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropekit",
        description="Rotary-basis scaling experiments: train, evaluate, and "
        "compare positional strategies on a byte-level toy transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model from a config file")
    p_train.add_argument("-c", "--config", required=True)
    p_train.add_argument("-o", "--out", default=None, help="output root (default $ROPEKIT_OUT or ./runs)")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the config's length grid")
    p_eval.add_argument("-c", "--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("-o", "--out", default=None)
    p_eval.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_eval.set_defaults(func=cmd_eval)

    p_basis = sub.add_parser("basis", help="dump scaled frequency bases as CSV")
    p_basis.add_argument("-d", "--head-dim", type=int, required=True)
    p_basis.add_argument("--methods", default="pi,yarn,codellama",
                         help="comma list from: identity,pi,yarn,codellama,ode")
    p_basis.add_argument("--t", default="1,2,4", help="comma list of scale factors")
    p_basis.add_argument("--checkpoint", default=None, help="dynamics weights for ode rows")
    p_basis.add_argument("--steps-per-unit", type=int, default=DEFAULTS["steps_per_unit"])
    p_basis.add_argument("-o", "--out", default=None)
    p_basis.set_defaults(func=cmd_basis)

    p_cmp = sub.add_parser("compare", help="train and evaluate several methods on one grid")
    p_cmp.add_argument("-c", "--config", required=True)
    p_cmp.add_argument("-o", "--out", default=None)
    p_cmp.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_cmp.set_defaults(func=cmd_compare)

    p_corpus = sub.add_parser("corpus", help="write the deterministic demo byte corpus")
    p_corpus.add_argument("-o", "--out", required=True)
    p_corpus.add_argument("--bytes", type=int, default=2_621_440)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def _fail(error: Exception, code: int) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Runs a command's input phase, where a CompatError exits 3 and any
    ValueError or OSError exits 2, then its work, where only an InputError
    (exit 2) or a NumericalAbort (exit 4) is expected."""
    args = build_parser().parse_args(argv)
    try:
        work = args.func(args)
    except CompatError as e:
        return _fail(e, 3)
    except (ValueError, OSError) as e:
        return _fail(e, 2)
    try:
        work()
    except InputError as e:
        return _fail(e, 2)
    except NumericalAbort as e:
        return _fail(e, 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
