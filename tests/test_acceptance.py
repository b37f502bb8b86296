"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 7 trains three desk-scale models for 3000 steps each and is the
long pole of the suite (tens of minutes on one CPU core).
"""

import contextlib
import json
import time

import numpy as np
import pytest

from helpers import max_rel_err

from ropekit import autodiff as ad
from ropekit.autodiff import Tensor
from ropekit.cli import main
from ropekit.continuous import OdeNet, solve
from ropekit.harness import (
    EvalReport,
    TrainSettings,
    evaluate,
    load_corpus,
    train,
    write_demo_corpus,
)
from ropekit.model import ModelConfig, forward, init_params, log_scale_mult
from ropekit.rotary import FrequencyBasis, apply_rotary, default_basis, pair_score
from ropekit.rotary import alpha, scale_basis
from ropekit.harness import self_extension_factor


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_scalar_factor_equivalence():
    with criterion(1, "index/basis factor equivalence, 1000 random cases"):
        rng = np.random.default_rng(2024)
        dims = (4, 8, 64, 128)
        start = time.monotonic()
        for case in range(1000):
            d = dims[case % len(dims)]
            basis = default_basis(d)
            x = rng.normal(size=d)
            m = float(rng.uniform(-64, 64))
            t = float(np.exp(rng.uniform(np.log(1 / 16), np.log(16))))
            a = apply_rotary(x, t * m, basis)
            b = apply_rotary(x, m, FrequencyBasis(t * basis.theta, d, basis.base))
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) <= 1e-9 * scale
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_relative_identity_and_norms():
    with criterion(2, "relative-position identity and norm preservation"):
        rng = np.random.default_rng(2025)
        dims = (4, 8, 64, 128)
        for case in range(1000):
            d = dims[case % len(dims)]
            basis = default_basis(d)
            q, k = rng.normal(size=d), rng.normal(size=d)
            m, n = rng.uniform(-64, 64, size=2)
            a = pair_score(q, k, m, n, basis)
            b = pair_score(q, k, 0.0, n - m, basis)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
            rotated = apply_rotary(q, m, basis)
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(q)) <= 1e-9 * np.linalg.norm(q)


def test_criterion_3_yarn_reduction_and_rk4_order():
    with criterion(3, "zero-init solve reduces to the geometric profile"):
        for d in (8, 64, 128):
            base = default_basis(d)
            net = OdeNet(d, rng=np.random.default_rng(0))  # w_down = 0
            z1 = np.log(base.theta)
            for t in (2.0, 4.0, 8.0, 16.0):
                solved = np.exp(solve(z1, t, net).data)
                closed = base.theta * alpha("yarn", t, d)
                assert max_rel_err(solved, closed) < 1e-6, (d, t)
        # halving the step size must shrink the error like a 4th order method
        d, t = 8, 4.0
        base = default_basis(d)
        net = OdeNet(d, rng=np.random.default_rng(0))
        exact = np.log(base.theta) + np.log(alpha("yarn", t, d))
        errs = [
            float(np.max(np.abs(solve(np.log(base.theta), t, net,
                                      steps_per_unit=spu).data - exact)))
            for spu in (4, 8)
        ]
        assert errs[1] > 0
        ratio = errs[0] / errs[1]
        assert ratio >= 12.0, f"order ratio {ratio:.1f}"


def test_criterion_4_end_to_end_gradient_suite():
    with criterion(4, "finite-difference gradients through solve/rotary/attention"):
        start = time.monotonic()
        cfg = ModelConfig(
            vocab=13, n_layers=2, n_heads=2, d_model=16, train_len=8,
            method="ode", t_train=4.0, seed=0,
        ).validate()
        rng = np.random.default_rng(11)
        params = init_params(cfg, dtype=np.float64, rng=rng)
        # live dynamics on both projections so every path carries gradient
        w_up0 = rng.normal(scale=0.3, size=(cfg.d_head // 2, cfg.d_head))
        w_down0 = rng.normal(scale=0.3, size=(cfg.d_head, cfg.d_head // 2))
        tokens = rng.integers(0, cfg.vocab, size=(2, 6))
        targets = rng.integers(0, cfg.vocab, size=(2, 6))
        positions = np.array([1.0, 2.5, 3.0, 4.5, 6.0, 8.0])
        t_prime = 3.3
        z1 = np.log(default_basis(cfg.d_head).theta)

        def build_loss(arrays):
            net = OdeNet(cfg.d_head, dtype=np.float64)
            net.w_up = arrays["ode.w_up"]
            net.w_down = arrays["ode.w_down"]
            theta = ad.exp(solve(z1, t_prime, net, steps_per_unit=2))
            logits = forward(arrays, cfg, tokens, positions, theta, 1.1)
            return ad.softmax_cross_entropy(logits, targets)

        arrays = dict(params)
        arrays["ode.w_up"] = Tensor(w_up0, requires_grad=True)
        arrays["ode.w_down"] = Tensor(w_down0, requires_grad=True)
        loss = build_loss(arrays)
        ad.backward(loss)

        def central(flat, i, h):
            old = flat[i]
            flat[i] = old + h
            with ad.no_grad():
                fp = build_loss(arrays).item()
            flat[i] = old - h
            with ad.no_grad():
                fm = build_loss(arrays).item()
            flat[i] = old
            return (fp - fm) / (2 * h)

        h = 1e-6
        worst = 0.0
        for name, tensor in arrays.items():
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for i in range(flat.size):
                fd = central(flat, i, h)
                denom = max(abs(grad[i]), abs(fd), 1e-4)
                rel = abs(grad[i] - fd) / denom
                if rel >= 1e-4:
                    # extreme curvature in a few directions: refine the same
                    # central-difference oracle by Richardson extrapolation
                    fd = (4.0 * central(flat, i, h / 2) - fd) / 3.0
                    denom = max(abs(grad[i]), abs(fd), 1e-4)
                    rel = abs(grad[i] - fd) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{i}]: ad={grad[i]:.3e} fd={fd:.3e} rel={rel:.2e}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  worst relative gradient error: {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_discrete_method_equivalences():
    with criterion(5, "index-scaling twin logits and retuned-base identity"):
        cfg = ModelConfig(
            vocab=61, n_layers=2, n_heads=2, d_model=32, train_len=16, method="pi",
            t_fixed=4.0, seed=0,
        ).validate()
        params = init_params(cfg, dtype=np.float32, rng=np.random.default_rng(5))
        tokens = np.random.default_rng(6).integers(0, cfg.vocab, size=(2, 16))
        base = default_basis(cfg.d_head)
        natural = np.arange(1, 17, dtype=np.float64)
        t = 4.0
        a = forward(params, cfg, tokens, natural / t, base).data
        b = forward(params, cfg, tokens, natural,
                    scale_basis(base, alpha("pi", t, cfg.d_head))).data
        assert np.max(np.abs(a - b)) <= 1e-5 * max(1.0, float(np.max(np.abs(a))))
        for d in (4, 8, 64, 128):
            scaled = scale_basis(default_basis(d), alpha("codellama", 1.0, d))
            assert max_rel_err(scaled.theta, default_basis(d, base=1e6).theta) < 1e-12


def test_criterion_6_protocol_fidelity():
    with criterion(6, "self-extension factor and log scaling trick"):
        # trained with factor 4 at 16k (native 4k), evaluated at 32k: factor 8
        assert self_extension_factor(4.0, 4096, 32768) == 8.0
        assert log_scale_mult(128, 64) == 1.0
        assert log_scale_mult(128, 128) == 1.0
        assert abs(log_scale_mult(128, 512) - 9.0 / 7.0) < 1e-12
        assert abs(log_scale_mult(4096, 65536) - 4.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# criterion 7: desk-scale trend


TREND_SEED = 7
TREND_STEPS = 3000
TREND_EVAL_LENS = (128, 256, 512, 1024)


@pytest.fixture(scope="module")
def trend_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend")
    corpus_path = root / "corpus.txt"
    write_demo_corpus(corpus_path, 2_621_440, seed=0)  # 2.5 MB
    corpus = load_corpus(corpus_path, 0.95)
    settings = TrainSettings(
        steps=TREND_STEPS, batch_size=8, lr=3e-4, beta1=0.9, beta2=0.95,
        grad_clip=1.0, cache_factors=(1.0, 2.0, 4.0, 8.0),
    )

    def cfg(method, **kw):
        return ModelConfig(
            vocab=256, n_layers=2, n_heads=4, d_model=64, train_len=128,
            method=method, seed=TREND_SEED, **kw,
        ).validate()

    report = EvalReport()
    for model_cfg in (cfg("rope"), cfg("yarn", t_fixed=8.0), cfg("ode", t_train=8.0)):
        result = train(model_cfg, settings, corpus)
        report.rows.extend(evaluate(result.params, model_cfg, settings, corpus, TREND_EVAL_LENS).rows)
    print()
    print(report.to_csv())
    return report


def test_criterion_7_desk_scale_trend(trend_report):
    with criterion(7, "train short, test long: qualitative trend"):
        rope_128 = trend_report.row("rope", 128).ppl
        rope_512 = trend_report.row("rope", 512).ppl
        ode_128 = trend_report.row("ode", 128).ppl
        ode_512 = trend_report.row("ode", 512).ppl
        assert trend_report.row("yarn", 128).ppl >= 1.0  # trained and evaluated
        print(f"  rope: 128 -> {rope_128:.3f}, 512 -> {rope_512:.3f}")
        print(f"  ode:  128 -> {ode_128:.3f}, 512 -> {ode_512:.3f}")
        assert ode_512 <= 1.35 * ode_128, "continuous method degraded past 4x budget"
        assert rope_512 >= 2.0 * rope_128, "plain rotary did not degrade as expected"
        assert ode_128 <= 1.10 * rope_128, "short-length performance degraded"


# ---------------------------------------------------------------------------
# criterion 8: command determinism


def test_criterion_8_command_determinism(tmp_path):
    with criterion(8, "commands rerun bit-identically"):
        corpus_path = tmp_path / "corpus.txt"
        write_demo_corpus(corpus_path, 60_000, seed=0)
        config = {
            "corpus": str(corpus_path),
            "n_layers": 1,
            "n_heads": 2,
            "d_model": 16,
            "train_len": 32,
            "steps": 5,
            "batch_size": 4,
            "eval_lens": [32, 64],
            "method": "ode",
            "t_train": 2.0,
            "cache_factors": [1.0, 2.0],
            "seed": 3,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))

        train_dirs = []
        for sub in ("a", "b"):
            out = tmp_path / f"train_{sub}"
            assert main(["train", "-c", str(cfg_path), "-o", str(out)]) == 0
            (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
            train_dirs.append(run_dir)
        for rel in ("loss.csv", "config.json", "checkpoint/manifest.json",
                    "checkpoint/params.bin"):
            a = (train_dirs[0] / rel).read_bytes()
            b = (train_dirs[1] / rel).read_bytes()
            assert a == b, f"train output differs: {rel}"

        eval_dirs = []
        for sub in ("a", "b"):
            out = tmp_path / f"eval_{sub}"
            assert main([
                "eval", "-c", str(cfg_path),
                "--checkpoint", str(train_dirs[0] / "checkpoint"), "-o", str(out),
            ]) == 0
            (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
            eval_dirs.append(run_dir)
        for rel in ("report.csv", "report.json", "cache.json", "config.json"):
            a = (eval_dirs[0] / rel).read_bytes()
            b = (eval_dirs[1] / rel).read_bytes()
            assert a == b, f"eval output differs: {rel}"
