"""Command-line entry point: config-driven train / eval / basis / compare.

Runs are experiment records: every command resolves its config (file plus
--set overrides plus defaults), writes the resolved snapshot next to its
outputs in a fresh run directory, and is bit-reproducible from that
snapshot and the seed alone.

Exit codes: 0 success, 2 input error, 3 checkpoint/config mismatch,
4 numerical abort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .continuous import OdeNet, PlanMode, XiForm, cache_to_json, solve_basis
from .harness import (
    CompareEntry,
    EvalReport,
    NumericalAbort,
    TrainSettings,
    compare,
    evaluate,
    extrapolation_breakpoints,
    load_corpus,
    make_cache_session,
    train,
    write_demo_corpus,
)
from .model import ModelConfig
from .rotary import default_basis
from .scaling import alpha, scale_basis


class InputError(ValueError):
    """Bad config, flags, or input files (exit 2)."""


class CompatError(ValueError):
    """Checkpoint and config disagree (exit 3)."""


DEFAULTS: dict = {
    "method": "rope",
    "corpus": None,
    "split_fraction": 0.9,
    "vocab": 256,
    "n_layers": 2,
    "n_heads": 4,
    "d_model": 64,
    "train_len": 128,
    "t_train": 1.0,
    "t_fixed": 1.0,
    "xi_form": "log_derivative",
    "steps_per_unit": 8,
    "lambda_amp": 1,
    "position_mode": "random",
    "cache_factors": [1.0, 2.0, 4.0, 8.0],
    "steps": 200,
    "batch_size": 8,
    "lr": 3e-4,
    "beta1": 0.9,
    "beta2": 0.95,
    "eps": 1e-8,
    "grad_clip": 1.0,
    "eval_lens": [128, 256, 512, 1024],
    "seed": 0,
    "precision": "float32",
    "out_dir": None,
}

_RUN_ONLY_KEYS = {"label", "checkpoint"}
# compare reads these once for all runs, so a runs entry may not set them.
_SHARED_ONLY_KEYS = {"eval_lens", "corpus", "split_fraction", "out_dir"}

_XI_FORMS = {f.value: f for f in XiForm}
_PLAN_MODES = {m.value: m for m in PlanMode}


def resolve_config(doc: dict, allow_runs: bool = False) -> dict:
    """Defaults + document, rejecting unknown keys."""
    known = set(DEFAULTS) | ({"runs"} if allow_runs else set())
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(doc)
    if allow_runs:
        runs = cfg.get("runs") or [{}]
        checked = []
        for i, entry in enumerate(runs):
            bad = set(entry) - set(DEFAULTS) - _RUN_ONLY_KEYS
            if bad:
                raise InputError(f"unknown keys in runs[{i}]: {sorted(bad)}")
            shared = set(entry) & _SHARED_ONLY_KEYS
            if shared:
                raise InputError(f"runs[{i}] sets top-level-only keys {sorted(shared)}")
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
        except json.JSONDecodeError:
            value = raw
        cfg[key] = value
    return cfg


def load_config_file(path, allow_runs: bool = False) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"config not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    return resolve_config(doc, allow_runs=allow_runs)


def split_config(cfg: dict) -> tuple[ModelConfig, TrainSettings]:
    """Typed model config and train settings from a resolved config, after
    checking every value, so bad input fails before any corpus load or
    training."""
    try:
        model_cfg = ModelConfig(
            vocab=int(cfg["vocab"]),
            n_layers=int(cfg["n_layers"]),
            n_heads=int(cfg["n_heads"]),
            d_model=int(cfg["d_model"]),
            train_len=int(cfg["train_len"]),
            method=str(cfg["method"]),
            t_train=float(cfg["t_train"]),
            t_fixed=float(cfg["t_fixed"]),
            seed=int(cfg["seed"]),
        ).validate()
        if cfg["xi_form"] not in _XI_FORMS:
            raise ValueError(f"xi_form must be one of {sorted(_XI_FORMS)}")
        if cfg["position_mode"] not in _PLAN_MODES:
            raise ValueError(f"position_mode must be one of {sorted(_PLAN_MODES)}")
        settings = TrainSettings(
            steps=int(cfg["steps"]),
            batch_size=int(cfg["batch_size"]),
            lr=float(cfg["lr"]),
            beta1=float(cfg["beta1"]),
            beta2=float(cfg["beta2"]),
            eps=float(cfg["eps"]),
            grad_clip=float(cfg["grad_clip"]),
            precision=str(cfg["precision"]),
            xi_form=_XI_FORMS[cfg["xi_form"]],
            steps_per_unit=int(cfg["steps_per_unit"]),
            lambda_amp=int(cfg["lambda_amp"]),
            position_mode=_PLAN_MODES[cfg["position_mode"]],
            cache_factors=tuple(float(t) for t in cfg["cache_factors"]),
        )
        _ = settings.dtype
        if settings.steps < 1:
            raise ValueError(f"steps must be >= 1, got {settings.steps}")
        if settings.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {settings.batch_size}")
        factors = settings.cache_factors
        ascending = all(b > a for a, b in zip(factors, factors[1:]))
        if not factors or not factors[0] >= 1.0 or not ascending or not np.isfinite(factors).all():
            raise ValueError(f"cache_factors must be finite, strictly ascending and >= 1, got {list(factors)}")
        lens = cfg["eval_lens"]
        if not isinstance(lens, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in lens
        ):
            raise ValueError(f"eval_lens must be a list of ints >= 2, got {lens!r}")
    except (TypeError, ValueError) as e:
        raise InputError(str(e)) from None
    return model_cfg, settings


def config_hash(cfg: dict) -> str:
    doc = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_meta(cfg: dict) -> dict:
    return {
        "seed": cfg["seed"],
        "commit": git_commit(),
        "config_hash": config_hash(cfg),
        "xi_form": cfg["xi_form"],
    }


def make_run_dir(cfg: dict, cli_out: str | None, command: str, tag: str) -> Path:
    root = Path(cli_out or cfg.get("out_dir") or os.environ.get("ROPEKIT_OUT") or "runs")
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"{stamp}-{command}-{tag}"
    candidate = root / base
    suffix = 2
    while candidate.exists():
        candidate = root / f"{base}-{suffix}"
        suffix += 1
    candidate.mkdir()
    return candidate


def write_resolved_config(run_dir: Path, cfg: dict) -> None:
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _load_run_corpus(cfg: dict):
    path = cfg.get("corpus")
    if not path:
        raise InputError("config key 'corpus' is required")
    try:
        return load_corpus(path, float(cfg["split_fraction"]))
    except FileNotFoundError:
        raise InputError(f"corpus not found: {path}") from None
    except ValueError as e:
        raise InputError(str(e)) from None


def _load_checkpoint(path):
    try:
        return load_checkpoint(path)
    except (FileNotFoundError, ValueError) as e:
        raise InputError(str(e)) from None


def write_loss_csv(run_dir: Path, trace) -> None:
    lines = ["step,loss,t_prime"]
    for rec in trace:
        t = "" if rec.t_prime is None else f"{rec.t_prime:.8f}"
        lines.append(f"{rec.step},{rec.loss:.8f},{t}")
    (run_dir / "loss.csv").write_text("\n".join(lines) + "\n")


def checkpoint_extra(cfg: dict) -> dict:
    model_keys = (
        "vocab", "n_layers", "n_heads", "d_model", "train_len",
        "method", "t_train", "t_fixed", "seed",
    )
    return {
        "model": {k: cfg[k] for k in model_keys},
        "precision": cfg["precision"],
        "lambda_amp": cfg["lambda_amp"],
        "config_hash": config_hash(cfg),
    }


def check_compat(ckpt_extra: dict, cfg: dict) -> None:
    want = checkpoint_extra(cfg)
    mismatched = []
    for key, value in want["model"].items():
        if ckpt_extra.get("model", {}).get(key) != value:
            mismatched.append(key)
    for key in ("precision", "lambda_amp"):
        if ckpt_extra.get(key) != want[key]:
            mismatched.append(key)
    if mismatched:
        raise CompatError(
            f"checkpoint is incompatible with config (mismatched: {sorted(set(mismatched))})"
        )


def write_report(run_dir: Path, report: EvalReport, cfg: dict) -> None:
    (run_dir / "report.csv").write_text(report.to_csv())
    doc = report.to_json_doc(run_meta(cfg))
    (run_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_table(report: EvalReport) -> str:
    """The lines of report.csv as left-aligned columns."""
    rows = [line.split(",") for line in report.to_csv().splitlines()]
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    model_cfg, settings = split_config(cfg)
    corpus = _load_run_corpus(cfg)
    run_dir = make_run_dir(cfg, args.out, "train", model_cfg.method)
    write_resolved_config(run_dir, cfg)
    print(f"run dir: {run_dir}", file=sys.stderr)
    result = train(model_cfg, settings, corpus)
    write_loss_csv(run_dir, result.trace)
    save_checkpoint(run_dir / "checkpoint", result.params, checkpoint_extra(cfg))
    print(f"trained {model_cfg.method} for {settings.steps} steps; "
          f"final loss {result.trace[-1].loss:.6f}")
    print(f"checkpoint: {run_dir / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    model_cfg, settings = split_config(cfg)
    corpus = _load_run_corpus(cfg)
    params, extra = _load_checkpoint(args.checkpoint)
    check_compat(extra, cfg)
    run_dir = make_run_dir(cfg, args.out, "eval", model_cfg.method)
    write_resolved_config(run_dir, cfg)
    report = evaluate(params, model_cfg, settings, corpus, cfg["eval_lens"])
    write_report(run_dir, report, cfg)
    if model_cfg.method == "ode":
        cache, _ = make_cache_session(params, model_cfg, settings)
        (run_dir / "cache.json").write_text(
            json.dumps(cache_to_json(cache), indent=2, sort_keys=True) + "\n"
        )
    print(format_table(report))
    for err in report.errors:
        print(f"warning: {err}", file=sys.stderr)
    print(f"report: {run_dir / 'report.csv'}", file=sys.stderr)
    return 0


def cmd_basis(args) -> int:
    d = args.head_dim
    if d % 2 != 0 or d < 2:
        raise InputError(f"head dim must be even and >= 2, got {d}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        t_values = [float(t) for t in args.t.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"--t expects comma-separated numbers, got {args.t!r}") from None
    if not methods or not t_values:
        raise InputError("need at least one method and one t value")
    xi_form = _XI_FORMS.get(args.xi_form)
    if xi_form is None:
        raise InputError(f"xi_form must be one of {sorted(_XI_FORMS)}")

    net = None
    if "ode" in methods:
        if args.checkpoint:
            params, _ = _load_checkpoint(args.checkpoint)
            if "ode.w_up" not in params:
                raise CompatError("checkpoint has no dynamics-network parameters")
            if params["ode.w_up"].shape[0] != d // 2:
                raise CompatError(
                    f"checkpoint head dim {2 * params['ode.w_up'].shape[0]} != requested {d}"
                )
            net = OdeNet.from_params(d, params["ode.w_up"], params["ode.w_down"])
        else:
            try:
                net = OdeNet(d, rng=np.random.default_rng(0))  # w_down = 0: pure drift
            except ValueError as e:
                raise InputError(str(e)) from None

    base = default_basis(d)
    lines = ["method,t,i,theta_i"]
    for method in methods:
        for t in t_values:
            try:
                if method == "ode":
                    basis = solve_basis(base, t, net, xi_form, args.steps_per_unit)
                else:
                    basis = scale_basis(base, alpha(method, t, d))
            except ValueError as e:
                raise InputError(str(e)) from None
            for i, theta_i in enumerate(basis.theta):
                lines.append(f"{method},{t:.6f},{i},{theta_i:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    cfg = apply_overrides(load_config_file(args.config, allow_runs=True), args.set)
    shared = {k: v for k, v in cfg.items() if k != "runs"}
    entries = []
    labels = []
    run_cfgs = []
    for run_doc in cfg["runs"]:
        merged = dict(shared)
        merged.update({k: v for k, v in run_doc.items() if k not in _RUN_ONLY_KEYS})
        merged = resolve_config(merged)
        run_cfgs.append(merged)
        model_cfg, settings = split_config(merged)
        label = run_doc.get("label") or model_cfg.method
        labels.append(label)
        params = None
        if run_doc.get("checkpoint"):
            params, extra = _load_checkpoint(run_doc["checkpoint"])
            check_compat(extra, merged)
        entries.append(CompareEntry(model_cfg, settings, params, label))
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate run labels: {labels}; set distinct 'label' keys")
    if any("," in str(label) for label in labels):
        raise InputError(f"run labels are report.csv fields and may not contain commas: {labels}")

    corpus = _load_run_corpus(cfg)
    run_dir = make_run_dir(cfg, args.out, "compare", "x".join(labels))
    write_resolved_config(run_dir, cfg)
    print(f"run dir: {run_dir}", file=sys.stderr)
    report, results = compare(entries, corpus, cfg["eval_lens"])
    write_report(run_dir, report, cfg)
    for label, run_cfg, result in zip(labels, run_cfgs, results):
        if result is not None:
            sub = run_dir / label
            sub.mkdir(exist_ok=True)
            write_loss_csv(sub, result.trace)
            save_checkpoint(sub / "checkpoint", result.params, checkpoint_extra(run_cfg))

    print(format_table(report))
    print()
    breaks = extrapolation_breakpoints(report)
    for label in labels:
        bp = breaks.get(label)
        where = f"eval_len {bp}" if bp is not None else "none within the grid"
        print(f"extrapolation breakpoint for {label}: {where}")
    for err in report.errors:
        print(f"warning: {err}", file=sys.stderr)
    return 0


def cmd_corpus(args) -> int:
    if args.bytes < 1:
        raise InputError("corpus size must be positive")
    write_demo_corpus(args.out, args.bytes, args.seed)
    print(f"wrote {args.bytes} bytes to {args.out}", file=sys.stderr)
    return 0


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
    p_basis.add_argument("--xi-form", default="log_derivative")
    p_basis.add_argument("--steps-per-unit", type=int, default=8)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CompatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
