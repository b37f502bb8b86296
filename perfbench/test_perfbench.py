"""Tests of the benchmark's own code: its references, its tracer and its output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ropekit import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_params(rng, d_model=8, n_layers=1, vocab=256, zero_weights=False):
    p = {"tok_emb": rng.normal(size=(vocab, d_model)), "final_norm": rng.uniform(0.5, 1.5, d_model)}
    for i in range(n_layers):
        pre = f"layers.{i}."
        for name, shape in (("wq", (d_model, d_model)), ("wk", (d_model, d_model)),
                            ("wv", (d_model, d_model)), ("wo", (d_model, d_model)),
                            ("w1", (d_model, 4 * d_model)), ("w2", (4 * d_model, d_model))):
            p[pre + name] = np.zeros(shape) if zero_weights else rng.normal(0, 0.3, shape)
        p[pre + "attn_norm"] = rng.uniform(0.5, 1.5, d_model)
        p[pre + "mlp_norm"] = rng.uniform(0.5, 1.5, d_model)
    return p


@pytest.mark.parametrize("t", [1.0, 2.0, 8.0, 16.0])
def test_rk4_at_zero_w_down_is_the_yarn_profile(t):
    d = 16
    rng = np.random.default_rng(0)
    z1 = np.log(ref.default_theta(d))
    z = ref.rk4_log_basis(z1, t, rng.normal(size=(d // 2, d)), np.zeros((d, d // 2)))
    i = np.arange(d // 2)
    closed = ref.default_theta(d) * t ** (-2.0 * i / (d - 2))
    assert np.max(np.abs(np.exp(z) / closed - 1.0)) < 1e-6  # RK4 truncation error


def test_rk4_is_fourth_order():
    # Zero w_up silences the learned term, so the exact z(t) is the log yarn
    # profile; halving the step must cut the error about 16x.
    d = 8
    z1 = np.log(ref.default_theta(d))
    exact = z1 - 2.0 * np.arange(d // 2) / (d - 2) * np.log(3.0)
    errs = [np.max(np.abs(ref.rk4_log_basis(z1, 3.0, np.zeros((d // 2, d)), np.ones((d, d // 2)), spu) - exact))
            for spu in (4, 8)]
    assert errs[0] / errs[1] > 12.0


def test_forward_with_zero_weights_is_the_normed_embedding():
    rng = np.random.default_rng(1)
    p = tiny_params(rng, zero_weights=True)
    tokens = rng.integers(0, 256, size=(2, 5))
    x = p["tok_emb"][tokens]
    want = x / np.sqrt((x * x).mean(-1, keepdims=True) + ref.RMS_EPS) * p["final_norm"] @ p["tok_emb"].T
    got = ref.forward(p, 1, 2, tokens, np.arange(1.0, 6.0), ref.default_theta(4))
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_depends_on_relative_positions_only_and_is_causal():
    rng = np.random.default_rng(2)
    p = tiny_params(rng, n_layers=2)
    tokens = rng.integers(0, 256, size=(1, 7))
    pos = np.arange(1.0, 8.0) * 1.7
    theta = ref.default_theta(4)
    a = ref.forward(p, 2, 2, tokens, pos, theta, 1.3)
    assert np.max(np.abs(ref.forward(p, 2, 2, tokens, pos + 11.0, theta, 1.3) - a)) < 1e-9
    changed = tokens.copy()
    changed[0, -1] = (changed[0, -1] + 1) % 256
    b = ref.forward(p, 2, 2, changed, pos, theta, 1.3)
    assert np.array_equal(a[:, :-1], b[:, :-1]) and not np.array_equal(a[:, -1], b[:, -1])


def test_one_token_attends_to_itself():
    rng = np.random.default_rng(3)
    p = tiny_params(rng)
    tok = np.array([[17]])

    def norm(v, g):
        return v / np.sqrt((v * v).mean(-1, keepdims=True) + ref.RMS_EPS) * g

    x = p["tok_emb"][17]
    x = x + norm(x, p["layers.0.attn_norm"]) @ p["layers.0.wv"] @ p["layers.0.wo"]
    x = x + ref.silu(norm(x, p["layers.0.mlp_norm"]) @ p["layers.0.w1"]) @ p["layers.0.w2"]
    want = norm(x, p["final_norm"]) @ p["tok_emb"].T
    assert np.max(np.abs(ref.forward(p, 1, 2, tok, [5.0], ref.default_theta(4))[0, 0] - want)) < 1e-12


def test_cross_entropy_of_uniform_logits_is_ln_vocab():
    assert abs(ref.cross_entropy(np.zeros((2, 3, 256)), np.zeros((2, 3), dtype=int)) - math.log(256)) < 1e-12


def test_cache_rule_and_log_scale():
    factors = (1.0, 2.0, 4.0, 8.0)
    assert [ref.eval_factor(L, 128, factors) for L in (128, 200, 512, 1024, 2048)] == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert ref.log_scale(128, 64) == 1.0
    assert abs(ref.log_scale(128, 2048) - 11 / 7) < 1e-15


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == workloads.END_TO_END_UNITS
    declared = tracer.per_layer(tracer.Tracer(), 1, {}, 0.0)
    assert {k: u for k, (_, u) in declared.items()} == layers
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tracer_leaves_results_and_module_attributes_unchanged(tmp_path):
    harness.write_demo_corpus(tmp_path / "c.txt", 65_536, 0)
    corpus = harness.load_corpus(tmp_path / "c.txt", 0.9)
    cfg = workloads.model_config("ode", 4)
    plain = harness.train(cfg, workloads.train_settings(3), corpus).trace
    before = {name: getattr(harness, name) for name in ("forward", "solve", "score_windows")}
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = harness.train(cfg, workloads.train_settings(3), corpus).trace
    finally:
        tr.uninstall()
    assert [(s.loss, s.t_prime) for s in traced] == [(s.loss, s.t_prime) for s in plain]
    assert {name: getattr(harness, name) for name in before} == before
    assert tr.counts["harness.sample_train_batch"] == 3 and tr.counts["continuous.solve"] == 3
    assert tr.counts["autodiff.nodes"] > 0 and tr.seconds["autodiff.backward"] > tr.seconds["autodiff.closures"] > 0


def run_bench(cwd, trace):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "train-rope",
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0 and not proc.stdout.strip()
