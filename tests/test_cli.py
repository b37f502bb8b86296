import contextlib
import csv
import io
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ropekit.checkpoint import load_checkpoint, save_checkpoint
from ropekit import cli
from ropekit.cli import DEFAULTS, main
from ropekit.harness import write_demo_corpus
from ropekit.rotary import alpha, default_basis


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demo.txt"
    write_demo_corpus(path, 60_000, seed=0)
    return path


@pytest.fixture(scope="module")
def short_corpus_file(tmp_path_factory):
    # a training split of 180 bytes, shorter than the 257 a train_len of 256 needs
    path = tmp_path_factory.mktemp("data") / "short.txt"
    write_demo_corpus(path, 200, seed=0)
    return path


def tiny_config(corpus_file, **kw):
    cfg = {
        "corpus": str(corpus_file),
        "vocab": 256,
        "n_layers": 1,
        "n_heads": 2,
        "d_model": 16,
        "train_len": 32,
        "steps": 3,
        "batch_size": 4,
        "eval_lens": [32, 64],
        "seed": 0,
    }
    cfg.update(kw)
    return cfg


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run_dirs(root):
    return sorted(p for p in Path(root).iterdir() if p.is_dir())


# ---------------------------------------------------------------------------
# train


def test_train_missing_corpus_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin")})
    code = main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")])
    assert code == 2
    assert "corpus not found" in capsys.readouterr().err


def test_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    # json refuses to convert an integer of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError
    digits = "1" * 5000
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"corpus": "absent.bin", "steps": {digits}}}')
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "error: config is not valid JSON" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"corpus": "absent.bin"})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs"), "--set", f"steps={digits}"]) == 2
    assert "error: steps must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("where, message", [
    ("file", "config is not valid JSON"),
    ("set", "eval_lens must be a list"),
])
def test_config_nested_too_deep_exits_2(tmp_path, capsys, where, message):
    # json.loads raises RecursionError, not a ValueError, on such input; a
    # --set value falls back to the raw string, which the key's type rejects
    cfg = write_config(tmp_path, {"corpus": "absent.bin"})
    argv = ["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]
    if where == "file":
        cfg.write_text("[" * 100_000)
    else:
        argv += ["--set", "eval_lens=" + "[" * 50_000]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_train_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"corpsu": "x"})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"steps": 0}, "steps must"),
    ({"batch_size": 0}, "batch_size must"),
    ({"eval_lens": [128, 1]}, "eval_lens must"),
    ({"eval_lens": []}, "eval_lens must list at least one length"),
    ({"eval_lens": [64.5]}, "eval_lens must"),
    ({"eval_lens": "128"}, "eval_lens must"),
    ({"cache_factors": [2.0, 1.0]}, "cache_factors must"),
    ({"cache_factors": [0.5, 1.0]}, "cache_factors must"),
    ({"cache_factors": [1.0, float("inf")]}, "cache_factors must"),
    ({"n_heads": 0}, "n_heads must"),
    ({"n_layers": 0}, "n_layers must"),
    ({"d_model": 0}, "d_model must"),
    ({"steps_per_unit": 0}, "steps_per_unit must"),
    ({"lambda_amp": 0}, "lambda_amp must"),
    ({"method": "ode", "d_model": 8, "n_heads": 4}, "head dim must be >= 4 for method ode"),
    ({"steps": 2.5}, "steps must"),
    ({"train_len": 40.9}, "train_len must"),
    ({"d_model": 16.0}, "d_model must"),
    ({"steps": True}, "steps must"),
    ({"cache_factors": "12"}, "cache_factors must"),
    ({"cache_factors": [True, 2]}, "cache_factors must"),
    ({"corpus": 7}, "corpus must"),
    ({"corpus": True}, "corpus must"),
    ({"split_fraction": None}, "split_fraction must"),
    ({"split_fraction": [1]}, "split_fraction must"),
    ({"out_dir": 5}, "out_dir must"),
    ({"vocab": 100}, "vocab must"),
    ({"seed": -1}, "seed must"),
    ({"beta1": 1.0}, "beta1 must"),
    ({"beta2": 1.0}, "beta2 must"),
    ({"lr": -3e-3}, "lr must be >= 0"),
    ({"grad_clip": -1.0}, "grad_clip must be >= 0"),
    ({"eps": 0.0}, "eps must be > 0"),
    ({"eps": -1.0}, "eps must be > 0"),
    ({"t_train": 10**400}, "t_train must be a number that a float can hold"),
    ({"d_model": 10**30, "n_heads": 1}, "d_model must be an integer in the signed 64-bit range"),
    ({"vocab": 2**62}, "vocab x d_model (the embedding table) is 295147905179352825856 entries"),
    ({"batch_size": 2**62}, "batch_size x train_len x vocab (a step's logits) is"),
], ids=["steps", "batch_size", "eval_len_1", "eval_lens_empty", "eval_len_float", "eval_lens_str",
        "cache_descending", "cache_below_1", "cache_inf", "n_heads", "n_layers", "d_model",
        "steps_per_unit", "lambda_amp", "ode_head_dim_2",
        "steps_fraction", "train_len_fraction", "d_model_integral_float", "steps_bool",
        "cache_str", "cache_bool_entry", "corpus_int", "corpus_bool", "split_fraction_null",
        "split_fraction_list", "out_dir_int", "vocab_below_256", "seed_negative",
        "beta1_1", "beta2_1", "lr_negative", "grad_clip_negative", "eps_0", "eps_negative",
        "t_train_401_digits", "d_model_beyond_int64",
        "vocab_array_too_big", "batch_size_array_too_big"])
def test_bad_config_value_exits_2_before_corpus_load(tmp_path, capsys, doc, message):
    # the corpus is absent, so only a check made before loading it can name the key
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin"), **doc})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_model_too_big_for_memory_exits_2_before_corpus_load(tmp_path, capsys):
    # 2**44 entries are under numpy's size limit but more than any machine's
    # memory holds, so the size check rejects them before the corpus loads
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin"), "vocab": 2**40, "d_model": 16})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "error: vocab x d_model" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [("xi_form", "log_derivative"), ("position_mode", "random")])
@pytest.mark.parametrize("where", ["file", "set"])
def test_removed_config_key_exits_2_before_corpus_load(tmp_path, capsys, key, value, where):
    # the drift and the training positions have one form each, so a config
    # snapshot that still names a variant is rejected like any unknown key
    doc = {"corpus": str(tmp_path / "absent.bin")}
    argv = ["train", "-o", str(tmp_path / "runs")]
    if where == "file":
        doc[key] = value
    else:
        argv += ["--set", f"{key}={value}"]
    assert main([*argv, "-c", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key") and repr(key) in err
    assert not (tmp_path / "runs").exists()


# JSON values by kind, and the kinds that each default's type admits; a key's
# type is the type of its DEFAULTS entry (a list's, that of its first entry)
_JSON_VALUES = {
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.one_of(st.integers(-1000, 1000).map(float),
                       st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())),
    "str": st.text(max_size=8),
    "null": st.none(),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}
_ADMITS = {int: {"int"}, float: {"int", "float"}, str: {"str"}, type(None): {"str", "null"}, list: {"list"}}


def wrong_json_type(default):
    kinds = [values for kind, values in _JSON_VALUES.items() if kind not in _ADMITS[type(default)]]
    if isinstance(default, list):
        kinds.append(st.lists(wrong_json_type(default[0]), min_size=1, max_size=3))
    return st.one_of(kinds)


@pytest.mark.parametrize("key", sorted(DEFAULTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_wrong_json_type_exits_2_before_corpus_load(key, data):
    value = data.draw(wrong_json_type(DEFAULTS[key]), label=key)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, {"corpus": str(tmp / "absent.bin"), key: value})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "-c", str(cfg), "-o", str(tmp / "runs")])
        assert code == 2
        assert err.getvalue().startswith(f"error: {key} must")
        assert "Traceback" not in err.getvalue()
        assert not (tmp / "runs").exists()


def test_train_corpus_shorter_than_train_len_exits_2(tmp_path, capsys, short_corpus_file):
    cfg = write_config(tmp_path, tiny_config(short_corpus_file, train_len=256))
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "error: training split too short" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_eval_validation_split_shorter_than_eval_len_exits_2(tmp_path, capsys, corpus_file):
    # checked right after the corpus loads, before the checkpoint is even read
    cfg = write_config(tmp_path, tiny_config(corpus_file, eval_lens=[32, 8192]))
    argv = ["eval", "-c", str(cfg), "--checkpoint", str(tmp_path / "absent"), "-o", str(tmp_path / "runs")]
    assert main(argv) == 2
    assert "error: validation split too short" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("corpus, key, value, message", [
    ("short_corpus_file", "train_len", 256, "training split too short"),
    ("corpus_file", "eval_lens", [32, 8192], "validation split too short"),
], ids=["train_len", "eval_len"])
def test_compare_corpus_too_short_exits_2_before_training(tmp_path, capsys, request, corpus, key, value, message):
    doc = tiny_config(request.getfixturevalue(corpus), **{key: value})
    doc["runs"] = [{"method": "rope"}, {"method": "pi", "t_fixed": 2.0}]
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("config", [
    {"method": "ode", "t_train": float("nan")},
    {"method": "yarn", "t_fixed": float("inf")},
], ids=["t_train_nan", "t_fixed_inf"])
def test_train_non_finite_scale_factor_exits_2(tmp_path, capsys, corpus_file, config):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg = write_config(tmp_path, tiny_config(corpus_file, **config))
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "error: scale factors must be finite" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


_DRIFT_TABLE = "RK4 steps x 4 x d_head/2 (the ODE solve's drift table) is"


@pytest.mark.parametrize("command, doc", [
    ("train", {"method": "ode", "steps_per_unit": 2**60}),
    ("eval", {"method": "ode", "steps_per_unit": 2**60}),
    ("train", {"method": "ode", "t_train": 1e300}),
    ("train", {"method": "ode", "t_train": 1e308, "steps_per_unit": 2**62}),
    ("eval", {"method": "ode", "cache_factors": [1.0, 1e300]}),
    ("eval", {"method": "ode", "eval_lens": [128, 2**62]}),
], ids=["train_steps_per_unit", "eval_steps_per_unit", "train_t_train", "train_infinite_steps",
        "eval_cache_factor", "eval_length"])
def test_ode_drift_table_too_big_exits_2_before_corpus_load(tmp_path, capsys, command, doc):
    # the largest factor solved at is t_train, the last cache factor or the
    # longest eval length over train_len
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin"), **doc})
    argv = [command, "-c", str(cfg), "-o", str(tmp_path / "runs")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "absent")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_DRIFT_TABLE}") and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_drift_table_row_applies_to_ode_only(tmp_path, capsys):
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin"), "steps_per_unit": 2**60})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "corpus not found" in capsys.readouterr().err


def test_train_writes_outputs(tmp_path, corpus_file):
    cfg = write_config(tmp_path, tiny_config(corpus_file))
    out = tmp_path / "runs"
    assert main(["train", "-c", str(cfg), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    assert (run_dir / "config.json").exists()
    assert (run_dir / "checkpoint" / "manifest.json").exists()
    assert (run_dir / "checkpoint" / "params.bin").exists()
    loss_rows = (run_dir / "loss.csv").read_text().strip().split("\n")
    assert loss_rows[0] == "step,loss,t_prime"
    assert len(loss_rows) == 1 + 3  # header + one row per step
    resolved = json.loads((run_dir / "config.json").read_text())
    assert resolved["steps"] == 3 and resolved["method"] == "rope"


def test_train_set_override(tmp_path, corpus_file):
    cfg = write_config(tmp_path, tiny_config(corpus_file))
    out = tmp_path / "runs"
    assert main(["train", "-c", str(cfg), "-o", str(out), "--set", "steps=5"]) == 0
    (run_dir,) = run_dirs(out)
    assert len((run_dir / "loss.csv").read_text().strip().split("\n")) == 6
    assert json.loads((run_dir / "config.json").read_text())["steps"] == 5


def test_train_rerun_bit_identical(tmp_path, corpus_file):
    cfg = write_config(tmp_path, tiny_config(corpus_file, method="ode", t_train=2.0))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "-c", str(cfg), "-o", str(out_a)]) == 0
    assert main(["train", "-c", str(cfg), "-o", str(out_b)]) == 0
    (dir_a,), (dir_b,) = run_dirs(out_a), run_dirs(out_b)
    for rel in ("loss.csv", "config.json", "checkpoint/manifest.json", "checkpoint/params.bin"):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# eval


def _train_then(tmp_path, corpus_file, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "train_runs"
    assert main(["train", "-c", str(cfg), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    return cfg, run_dir / "checkpoint"


def test_eval_writes_report(tmp_path, corpus_file, capsys):
    cfg, ckpt = _train_then(tmp_path, corpus_file, tiny_config(corpus_file))
    out = tmp_path / "eval_runs"
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "method,train_len,eval_len,eval_t,attn_scale_mult,ppl,acc"
    assert len(lines) == 3  # header + 2 eval lengths
    doc = json.loads((run_dir / "report.json").read_text())
    assert set(doc["meta"]) == {"seed", "commit", "config_hash"}
    assert len(doc["rows"]) == 2
    table = capsys.readouterr().out
    for piece in lines[1].split(","):
        assert piece in table


def test_eval_default_grid_has_four_rows(tmp_path, corpus_file):
    doc = tiny_config(corpus_file)
    del doc["eval_lens"]  # default grid: 128, 256, 512, 1024
    cfg, ckpt = _train_then(tmp_path, corpus_file, doc)
    out = tmp_path / "eval_default"
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4


def test_train_reproducible_from_resolved_snapshot(tmp_path, corpus_file):
    cfg = write_config(tmp_path, tiny_config(corpus_file))
    out_a = tmp_path / "orig"
    assert main(["train", "-c", str(cfg), "-o", str(out_a)]) == 0
    (dir_a,) = run_dirs(out_a)
    snapshot = dir_a / "config.json"  # fully resolved
    out_b = tmp_path / "from_snapshot"
    assert main(["train", "-c", str(snapshot), "-o", str(out_b)]) == 0
    (dir_b,) = run_dirs(out_b)
    assert (dir_a / "loss.csv").read_bytes() == (dir_b / "loss.csv").read_bytes()
    assert (dir_a / "checkpoint/params.bin").read_bytes() == (
        dir_b / "checkpoint/params.bin"
    ).read_bytes()


def test_train_numerical_abort_exits_4(tmp_path, corpus_file, capsys):
    cfg = write_config(tmp_path, tiny_config(corpus_file, steps=3))
    code = main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs"),
                 "--set", "lr=NaN"])
    assert code == 4
    assert "non-finite loss" in capsys.readouterr().err


def test_eval_checkpoint_mismatch_exits_3(tmp_path, corpus_file, capsys):
    cfg, ckpt = _train_then(tmp_path, corpus_file, tiny_config(corpus_file))
    code = main([
        "eval", "-c", str(cfg), "--checkpoint", str(ckpt),
        "-o", str(tmp_path / "runs"), "--set", "d_model=32",
    ])
    assert code == 3
    assert "incompatible" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ode_checkpoint(tmp_path_factory, corpus_file):
    """(config path, checkpoint path) of a tiny ode run."""
    tmp = tmp_path_factory.mktemp("ode")
    cfg = write_config(tmp, tiny_config(corpus_file, method="ode", t_train=2.0, cache_factors=[1.0, 2.0]))
    assert main(["train", "-c", str(cfg), "-o", str(tmp / "runs")]) == 0
    (run_dir,) = run_dirs(tmp / "runs")
    return cfg, run_dir / "checkpoint"


def _damaged(tmp_path, ode_checkpoint, name, shape):
    """The ode checkpoint without tensor name (shape None) or with zeros of
    another shape in its place."""
    params, extra = load_checkpoint(ode_checkpoint[1])
    if shape is None:
        del params[name]
    else:
        params[name] = np.zeros(shape, dtype=params[name].dtype)
    save_checkpoint(tmp_path / "damaged", params, extra)
    return tmp_path / "damaged"


_DAMAGE = [("layers.0.wq", None), ("ode.w_down", (3, 4)), ("layers.0.w1", (16, 5))]
_DAMAGE_IDS = ["no_wq", "w_down_3_rows", "w1_5_columns"]


@pytest.mark.parametrize("name, shape", _DAMAGE, ids=_DAMAGE_IDS)
def test_eval_checkpoint_tensor_mismatch_exits_3(tmp_path, capsys, ode_checkpoint, name, shape):
    ckpt = _damaged(tmp_path, ode_checkpoint, name, shape)
    argv = ["eval", "-c", str(ode_checkpoint[0]), "--checkpoint", str(ckpt), "-o", str(tmp_path / "runs")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint tensors do not match") and f"{name}: checkpoint has" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name, shape", _DAMAGE, ids=_DAMAGE_IDS)
def test_compare_checkpoint_tensor_mismatch_exits_3(tmp_path, capsys, corpus_file, ode_checkpoint, name, shape):
    ckpt = _damaged(tmp_path, ode_checkpoint, name, shape)
    doc = json.loads(ode_checkpoint[0].read_text())
    doc["runs"] = [{"checkpoint": str(ckpt)}]
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 3
    err = capsys.readouterr().err
    assert f"{name}: checkpoint has" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def _with_extra(tmp_path, ode_checkpoint, extra):
    """A copy of the ode checkpoint whose manifest records extra, given the
    checkpoint's own extra."""
    params, own = load_checkpoint(ode_checkpoint[1])
    save_checkpoint(tmp_path / "damaged", params)
    manifest = tmp_path / "damaged" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["extra"] = extra(own)
    manifest.write_text(json.dumps(doc))
    return tmp_path / "damaged"


_MODEL_KEYS = ["d_model", "method", "n_heads", "n_layers", "seed", "t_fixed", "t_train", "train_len", "vocab"]


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("extra, code, message", [
    (lambda own: [], 2, "checkpoint manifest 'extra' is not a JSON object: []"),
    (lambda own: None, 2, "checkpoint manifest 'extra' is not a JSON object: None"),
    (lambda own: {**own, "model": "abc"}, 3, f"checkpoint is incompatible with config (mismatched: {_MODEL_KEYS})"),
], ids=["extra_list", "extra_null", "model_str"])
def test_damaged_checkpoint_extra_exits_before_any_run(tmp_path, capsys, ode_checkpoint, command, extra, code, message):
    ckpt = _with_extra(tmp_path, ode_checkpoint, extra)
    if command == "eval":
        argv = ["eval", "-c", str(ode_checkpoint[0]), "--checkpoint", str(ckpt)]
    else:
        doc = json.loads(ode_checkpoint[0].read_text())
        argv = ["compare", "-c", str(write_config(tmp_path, {**doc, "runs": [{"checkpoint": str(ckpt)}]}))]
    assert main([*argv, "-o", str(tmp_path / "runs")]) == code
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


_ODE_DAMAGE = [("ode.w_down", None), ("ode.w_up", None), ("ode.w_down", (5, 4)), ("ode.w_up", (4, 12))]
_ODE_DAMAGE_IDS = ["no_w_down", "no_w_up", "w_down_5x4", "w_up_4x12"]


# the checkpoint is checked even when no ode row reads it
@pytest.mark.parametrize("name, shape, methods", [
    *((name, shape, "ode") for name, shape in _ODE_DAMAGE),
    *((name, shape, "pi") for name, shape in _ODE_DAMAGE),
], ids=[*_ODE_DAMAGE_IDS, *(f"pi_{i}" for i in _ODE_DAMAGE_IDS)])
def test_basis_checkpoint_tensor_mismatch_exits_3(tmp_path, capsys, ode_checkpoint, name, shape, methods):
    ckpt = _damaged(tmp_path, ode_checkpoint, name, shape)
    assert main(["basis", "-d", "8", "--methods", methods, "--t", "2", "--checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint tensors do not match") and f"{name}: checkpoint has" in err
    assert "Traceback" not in err


def test_basis_reads_a_checkpoint_net(capsys, ode_checkpoint):
    assert main(["basis", "-d", "8", "--methods", "ode", "--t", "2", "--checkpoint", str(ode_checkpoint[1])]) == 0
    assert capsys.readouterr().out.count("\node,") == 4


def test_eval_ode_writes_cache(tmp_path, corpus_file):
    cfg, ckpt = _train_then(
        tmp_path, corpus_file,
        tiny_config(corpus_file, method="ode", t_train=2.0, cache_factors=[1.0, 2.0]),
    )
    out = tmp_path / "eval_runs_ode"
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    cache = json.loads((run_dir / "cache.json").read_text())
    assert [e["t"] for e in cache["entries"]] == [1.0, 2.0]
    assert len(cache["entries"][0]["theta"]) == 4  # d_head 8


def test_eval_rerun_bit_identical(tmp_path, corpus_file):
    cfg, ckpt = _train_then(tmp_path, corpus_file, tiny_config(corpus_file))
    out_a, out_b = tmp_path / "ea", tmp_path / "eb"
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(out_a)]) == 0
    assert main(["eval", "-c", str(cfg), "--checkpoint", str(ckpt), "-o", str(out_b)]) == 0
    (dir_a,), (dir_b,) = run_dirs(out_a), run_dirs(out_b)
    for rel in ("report.csv", "report.json", "config.json"):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# basis


def parse_basis_csv(text):
    rows = list(csv.DictReader(text.strip().split("\n")))
    return {

        (r["method"], float(r["t"]), int(r["i"])): float(r["theta_i"]) for r in rows
    }


def test_basis_pi_at_one_is_default(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["basis", "-d", "4", "--methods", "pi", "--t", "1", "-o", str(out)]) == 0
    values = parse_basis_csv(out.read_text())
    assert values[("pi", 1.0, 0)] == 1.0
    assert abs(values[("pi", 1.0, 1)] - 0.01) < 1e-14


def test_basis_two_rows_per_method_for_d4(tmp_path):
    out = tmp_path / "basis.csv"
    assert main([
        "basis", "-d", "4", "--methods", "pi,yarn,codellama", "--t", "1,2", "-o", str(out)
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,t,i,theta_i"
    assert len(lines) == 1 + 3 * 2 * 2  # methods x t values x (d/2)


def test_basis_zero_init_ode_matches_yarn(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["basis", "-d", "8", "--methods", "yarn,ode", "--t", "4", "-o", str(out)]) == 0
    values = parse_basis_csv(out.read_text())
    for i in range(4):
        yarn_v = values[("yarn", 4.0, i)]
        ode_v = values[("ode", 4.0, i)]
        assert abs(ode_v - yarn_v) <= 1e-6 * max(abs(yarn_v), 1e-12)
    theta = default_basis(8).theta * alpha("yarn", 4.0, 8)
    assert abs(values[("yarn", 4.0, 3)] - theta[3]) < 1e-12


def test_basis_odd_dim_exits_2(tmp_path, capsys):
    assert main(["basis", "-d", "5", "--methods", "pi", "--t", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["-d", "8", "--methods", "ode", "--checkpoint", "{tmp}/absent"],
    ["-d", "8", "--methods", "pi", "--t", "2", "--checkpoint", "{tmp}/absent"],
    ["-d", "8", "--t", "abc"],
    ["-d", "8", "--methods", "ode", "--t", "0.5"],
    ["-d", "2", "--methods", "ode", "--t", "1"],
    ["-d", "8", "--methods", "ode", "--t", "inf"],
    ["-d", "8", "--methods", "ode", "--t", "1.7e308"],
    ["-d", "8", "--methods", "yarn", "--t", "nan"],
    ["-d", "8", "-o", "{tmp}/absent/basis.csv"],
    ["-d", "8", "-o", "{tmp}"],
    ["-d", "1000000000000", "--methods", "pi", "--t", "2"],
    ["-d", "8", "--methods", "ode", "--t", "2", "--steps-per-unit", "100000000000"],
    ["-d", "1000000", "--methods", "ode", "--t", "2"],
], ids=["missing_checkpoint", "missing_checkpoint_without_ode", "t_not_a_number", "ode_t_below_1",
        "ode_head_dim_2", "ode_t_inf", "t_overflows_steps", "yarn_t_nan", "missing_out_dir",
        "out_is_a_directory", "basis_beyond_memory", "drift_table_beyond_memory", "ode_net_beyond_memory"])
def test_basis_bad_input_exits_2(tmp_path, capsys, argv):
    assert main(["basis", *(a.format(tmp=tmp_path) for a in argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_basis_stdout_when_no_out(capsys):
    assert main(["basis", "-d", "4", "--methods", "identity", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method,t,i,theta_i")


# ---------------------------------------------------------------------------
# compare


def test_compare_two_methods(tmp_path, corpus_file, capsys):
    doc = tiny_config(corpus_file, eval_lens=[32, 64])
    doc["runs"] = [
        {"method": "rope"},
        {"method": "pi", "t_fixed": 2.0},
    ]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "-c", str(cfg), "-o", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4  # 2 methods x 2 lengths
    stdout = capsys.readouterr().out
    assert "extrapolation breakpoint for rope:" in stdout
    assert "extrapolation breakpoint for pi:" in stdout
    # stdout table carries exactly the csv values
    for line in lines[1:]:
        for piece in line.split(","):
            assert piece in stdout
    # per-method artifacts
    assert (run_dir / "rope" / "loss.csv").exists()
    assert (run_dir / "pi" / "checkpoint" / "params.bin").exists()


def test_compare_duplicate_labels_exit_2(tmp_path, corpus_file):
    doc = tiny_config(corpus_file)
    doc["runs"] = [{"method": "rope"}, {"method": "rope"}]
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2


def test_compare_label_with_comma_exits_2(tmp_path, corpus_file, capsys):
    doc = tiny_config(corpus_file)
    doc["runs"] = [{"method": "rope", "label": "rope,short"}]
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "may not contain commas" in capsys.readouterr().err


@pytest.mark.parametrize("runs, message", [
    ([1], "runs must be a list of objects, got [1]"),
    ([["method"]], "runs must be a list of objects, got [['method']]"),
    ({"a": 1}, "runs must be a list of objects, got {'a': 1}"),
    ([{"label": 5}], "runs[0].label must be null or a string, got 5"),
    ([{}, {"checkpoint": 5}], "runs[1].checkpoint must be null or a string, got 5"),
    ([{"label": ".."}], "run labels name subdirectories of the run directory"),
    ([{"label": "."}], "run labels name subdirectories of the run directory"),
    ([{"label": "a/b"}], "run labels name subdirectories of the run directory"),
    ([{"label": "report.csv"}], "run labels name subdirectories of the run directory"),
    ([{"vocab": 256}, {"vocab": 300, "label": "b"}], "runs must share one vocab, got vocab sizes [256, 300]"),
], ids=["int_entry", "list_entry", "object", "label_int", "checkpoint_int", "label_dotdot",
        "label_dot", "label_slash", "label_report_csv", "vocab_differs"])
def test_compare_bad_runs_exits_2_before_corpus_load(tmp_path, capsys, runs, message):
    # the corpus is absent, so only a check made before loading it can fail
    doc = {"corpus": str(tmp_path / "absent.bin"), "runs": runs}
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command", ["train", "eval", "compare"])
def test_output_root_that_is_a_file_exits_2(tmp_path, capsys, ode_checkpoint, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    argv = [command, "-c", str(ode_checkpoint[0]), "-o", str(out)]
    if command == "eval":
        argv += ["--checkpoint", str(ode_checkpoint[1])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make a run directory under {out}") and "Traceback" not in err
    assert out.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


_DIRECTORY_INPUTS = [
    ("train", "config"), ("eval", "config"), ("compare", "config"), ("train", "corpus"),
    *((command, name) for name in ("manifest.json", "params.bin") for command in ("eval", "compare", "basis")),
]


@pytest.mark.parametrize("command, given", _DIRECTORY_INPUTS, ids=[f"{c}-{g}" for c, g in _DIRECTORY_INPUTS])
def test_file_input_that_is_a_directory_exits_2_before_any_run(tmp_path, capsys, ode_checkpoint, command, given):
    # read in the input phase, so the OSError exits 2 before any work starts
    cfg, ckpt = ode_checkpoint
    doc = json.loads(cfg.read_text())
    folder = tmp_path / "folder"
    folder.mkdir()
    if given == "config":
        cfg = folder
    elif given == "corpus":
        cfg = write_config(tmp_path, {**doc, "corpus": str(folder)})
    else:
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(ode_checkpoint[1], ckpt)
        (ckpt / given).unlink()
        (ckpt / given).mkdir()
        if command == "compare":
            cfg = write_config(tmp_path, {**doc, "runs": [{"checkpoint": str(ckpt)}]})
    argv = {
        "train": ["train", "-c", str(cfg)],
        "eval": ["eval", "-c", str(cfg), "--checkpoint", str(ckpt)],
        "compare": ["compare", "-c", str(cfg)],
        "basis": ["basis", "-d", "8", "--methods", "ode", "--t", "2", "--checkpoint", str(ckpt)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["eval", "compare", "basis"])
@pytest.mark.parametrize("text", ["{", "[" * 100_000], ids=["not_json", "nested_too_deep"])
def test_checkpoint_manifest_not_json_exits_2_before_any_run(tmp_path, capsys, ode_checkpoint, command, text):
    # json.loads raises RecursionError, not a ValueError, on the nested one
    cfg, ckpt = ode_checkpoint
    damaged = tmp_path / "checkpoint"
    shutil.copytree(ckpt, damaged)
    (damaged / "manifest.json").write_text(text)
    if command == "compare":
        cfg = write_config(tmp_path, {**json.loads(cfg.read_text()), "runs": [{"checkpoint": str(damaged)}]})
    argv = {
        "eval": ["eval", "-c", str(cfg), "--checkpoint", str(damaged)],
        "compare": ["compare", "-c", str(cfg)],
        "basis": ["basis", "-d", "8", "--methods", "ode", "--t", "2", "--checkpoint", str(damaged)],
    }[command]
    assert main([*argv, "-o", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: checkpoint manifest is not valid JSON: ") and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


def test_git_commit_is_that_of_the_module_checkout_not_of_the_working_directory(tmp_path, monkeypatch):
    # run from a directory outside any checkout, report.json still records
    # the commit of the checkout that holds ropekit, or "unknown" if none does
    here = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(cli.__file__).resolve().parent,
                          capture_output=True, text=True)
    monkeypatch.chdir(tmp_path)
    assert cli.git_commit() == (here.stdout.strip() if here.returncode == 0 else "unknown")


def test_git_commit_is_unknown_when_git_hangs(monkeypatch):
    def hung(*args, **kwargs):
        raise subprocess.TimeoutExpired(args[0], kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung)
    assert cli.git_commit() == "unknown"


@pytest.mark.parametrize("command, target", [("train", "train"), ("eval", "evaluate")])
def test_value_error_from_the_work_keeps_its_traceback(tmp_path, monkeypatch, ode_checkpoint, command, target):
    # input is checked before the work, so a ValueError in the work is a bug
    def broken(*args, **kwargs):
        raise ValueError("a bug in the work")

    monkeypatch.setattr(cli, target, broken)
    argv = [command, "-c", str(ode_checkpoint[0]), "-o", str(tmp_path / "runs")]
    if command == "eval":
        argv += ["--checkpoint", str(ode_checkpoint[1])]
    with pytest.raises(ValueError, match="a bug in the work") as raised:
        main(argv)
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("key, value", [
    ("eval_lens", [64]),
    ("corpus", "/nonexistent"),
    ("split_fraction", 0.5),
    ("out_dir", "elsewhere"),
])
def test_compare_run_setting_shared_key_exits_2(tmp_path, corpus_file, capsys, key, value):
    # these keys are read once at the top level; in a run they were ignored
    doc = tiny_config(corpus_file)
    doc["runs"] = [{"method": "rope", key: value}]
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert f"runs[0] sets top-level-only keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# corpus subcommand


def test_corpus_subcommand(tmp_path):
    out = tmp_path / "c.bin"
    assert main(["corpus", "-o", str(out), "--bytes", "5000", "--seed", "1"]) == 0
    assert out.stat().st_size == 5000


@pytest.mark.parametrize("argv", [
    ["--bytes", "0"],
    ["--seed", "-1"],
    ["-o", "{tmp}/absent/c.txt"],
    ["-o", "{tmp}"],
], ids=["zero_bytes", "negative_seed", "missing_out_dir", "out_is_a_directory"])
def test_corpus_bad_input_exits_2(tmp_path, capsys, argv):
    args = ["corpus", "-o", "{tmp}/c.txt", "--bytes", "1000", *argv]
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
