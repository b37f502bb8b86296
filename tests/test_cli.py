import csv
import json
from pathlib import Path

import pytest

from ropekit.cli import main
from ropekit.harness import write_demo_corpus
from ropekit.rotary import default_basis
from ropekit.scaling import alpha_yarn


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demo.txt"
    write_demo_corpus(path, 60_000, seed=0)
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


def test_train_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"corpsu": "x"})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("steps", 0),
    ("batch_size", 0),
    ("eval_lens", [128, 1]),
    ("eval_lens", [64.5]),
    ("eval_lens", "128"),
    ("cache_factors", [2.0, 1.0]),
    ("cache_factors", [0.5, 1.0]),
    ("cache_factors", [1.0, float("inf")]),
], ids=["steps", "batch_size", "eval_len_1", "eval_len_float", "eval_lens_str",
        "cache_descending", "cache_below_1", "cache_inf"])
def test_bad_config_value_exits_2_before_corpus_load(tmp_path, capsys, key, value):
    # the corpus is absent, so only a check made before loading it can name the key
    cfg = write_config(tmp_path, {"corpus": str(tmp_path / "absent.bin"), key: value})
    assert main(["train", "-c", str(cfg), "-o", str(tmp_path / "runs")]) == 2
    assert f"error: {key} must" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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
    assert set(doc["meta"]) == {"seed", "commit", "config_hash", "xi_form"}
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
    doc = json.loads((run_dir / "report.json").read_text())
    assert doc["meta"]["xi_form"] == "log_derivative"


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
    theta = default_basis(8).theta * alpha_yarn(4.0, 8)
    assert abs(values[("yarn", 4.0, 3)] - theta[3]) < 1e-12


def test_basis_odd_dim_exits_2(tmp_path, capsys):
    assert main(["basis", "-d", "5", "--methods", "pi", "--t", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["-d", "8", "--methods", "ode", "--checkpoint", "{tmp}/absent"],
    ["-d", "8", "--t", "abc"],
    ["-d", "8", "--methods", "ode", "--t", "0.5"],
    ["-d", "2", "--methods", "ode", "--t", "1"],
    ["-d", "8", "--methods", "ode", "--t", "inf"],
    ["-d", "8", "--methods", "yarn", "--t", "nan"],
], ids=["missing_checkpoint", "t_not_a_number", "ode_t_below_1", "ode_head_dim_2",
        "ode_t_inf", "yarn_t_nan"])
def test_basis_bad_input_exits_2(tmp_path, capsys, argv):
    assert main(["basis", *(a.format(tmp=tmp_path) for a in argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
