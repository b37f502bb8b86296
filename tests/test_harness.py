import math

import numpy as np
import pytest

from ropekit.continuous import PlanMode, position_plan, solve
from ropekit.harness import (
    CompareEntry,
    Corpus,
    EvalReport,
    EvalRow,
    NumericalAbort,
    TrainSettings,
    compare,
    demo_corpus_bytes,
    evaluate,
    evaluation_windows,
    extrapolation_breakpoints,
    load_corpus,
    method_inputs,
    sample_train_batch,
    score_windows,
    self_extension_factor,
    train,
    write_demo_corpus,
)
from ropekit.model import ModelConfig, init_params
from ropekit.rotary import default_basis
from ropekit.continuous import OdeNet


def tiny_cfg(**kw):
    base = dict(vocab=256, n_layers=1, n_heads=2, d_model=16, train_len=32, method="rope", seed=0)
    base.update(kw)
    return ModelConfig(**base).validate()


def tiny_settings(**kw):
    base = dict(steps=2, batch_size=4)
    base.update(kw)
    return TrainSettings(**base)


@pytest.fixture(scope="module")
def text_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "demo.txt"
    write_demo_corpus(path, 120_000, seed=0)
    return load_corpus(path, 0.9)


# ---------------------------------------------------------------------------
# corpus


def test_load_corpus_split(tmp_path):
    p = tmp_path / "ten.bin"
    p.write_bytes(b"0123456789")
    corpus = load_corpus(p, 0.8)
    assert corpus.train.size == 8 and corpus.val.size == 2
    again = load_corpus(p, 0.8)
    assert np.array_equal(corpus.data, again.data)
    assert corpus.train_end == again.train_end


def test_load_corpus_full_split_blocks_eval(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"x" * 100)
    corpus = load_corpus(p, 1.0)
    assert corpus.val.size == 0
    with pytest.raises(ValueError):
        evaluation_windows(corpus, 8)


def test_load_corpus_missing_and_empty(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.bin")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        load_corpus(empty)


def test_corpus_data_immutable(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"abcdef")
    corpus = load_corpus(p, 0.5)
    with pytest.raises(ValueError):
        corpus.data[0] = 0


# ---------------------------------------------------------------------------
# batching


def test_eval_windows_grouping_drops_remainder():
    data = np.arange(2000) % 256
    corpus = Corpus(data.astype(np.uint8), 1000)  # 1000 validation tokens
    windows = evaluation_windows(corpus, 128)
    assert windows.shape == (7, 128)  # 7 * 128 = 896, 104 dropped
    flat = windows.reshape(-1)
    assert np.array_equal(flat, corpus.val[:896])


def test_train_windows_have_targets():
    data = (np.arange(500) % 256).astype(np.uint8)
    corpus = Corpus(data, 400)
    rng = np.random.default_rng(0)
    inputs, targets = sample_train_batch(corpus, 16, 4, rng)
    assert inputs.shape == (4, 16) and targets.shape == (4, 16)
    # targets are the next token of a contiguous window
    assert np.array_equal(inputs[:, 1:], targets[:, :-1])


def test_train_windows_deterministic():
    data = (np.arange(500) % 256).astype(np.uint8)
    corpus = Corpus(data, 400)
    a = sample_train_batch(corpus, 16, 4, np.random.default_rng(3))
    b = sample_train_batch(corpus, 16, 4, np.random.default_rng(3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_corpus_too_short_for_training():
    corpus = Corpus(np.zeros(10, dtype=np.uint8), 10)
    with pytest.raises(ValueError):
        sample_train_batch(corpus, 16, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# training


def test_train_trace_bit_deterministic(text_corpus):
    cfg = tiny_cfg(seed=11)
    a = train(cfg, tiny_settings(), text_corpus)
    b = train(cfg, tiny_settings(), text_corpus)
    assert [r.loss for r in a.trace] == [r.loss for r in b.trace]
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


def test_train_ode_records_t_prime(text_corpus):
    cfg = tiny_cfg(method="ode", t_train=4.0, seed=1)
    result = train(cfg, tiny_settings(), text_corpus)
    assert all(r.t_prime is not None and 1.0 <= r.t_prime <= 4.0 for r in result.trace)
    assert "ode.w_up" in result.params and "ode.w_down" in result.params


def test_ode_with_unit_factor_degenerates_to_plain_rotary(text_corpus):
    # t' is always 1, random position sampling collapses to natural indices,
    # and the solved basis is the unscaled one
    cfg = tiny_cfg(method="ode", t_train=1.0, seed=2)
    result = train(cfg, tiny_settings(), text_corpus)
    assert all(r.t_prime == 1.0 for r in result.trace)
    plan = position_plan(32, 1.0, 32, PlanMode.RANDOM_SAMPLED, np.random.default_rng(0))
    assert np.array_equal(plan, np.arange(1.0, 33.0))
    net = OdeNet(cfg.d_head, rng=np.random.default_rng(0))
    z = np.log(default_basis(cfg.d_head).theta)
    assert np.array_equal(solve(z, 1.0, net).data, z)


def test_train_learns_alternating_bytes():
    # repetitive "abab..." is compressible below 1 bit per byte
    data = np.frombuffer(b"ab" * 4000, dtype=np.uint8)
    corpus = Corpus(data, 7000)
    cfg = tiny_cfg(train_len=16, seed=3)
    settings = tiny_settings(steps=200, batch_size=8, lr=3e-3)
    result = train(cfg, settings, corpus)
    assert result.trace[-1].loss < math.log(2)


def test_train_aborts_on_nonfinite(text_corpus):
    # nan learning rate poisons the params after step 0; step 1 must abort
    cfg = tiny_cfg(seed=4)
    with pytest.raises(NumericalAbort):
        train(cfg, tiny_settings(steps=3, lr=float("nan")), text_corpus)


# ---------------------------------------------------------------------------
# evaluation


def test_untrained_model_scores_near_uniform():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, size=30_000).astype(np.uint8)
    corpus = Corpus(data, 10_000)
    cfg = tiny_cfg(seed=5)
    params = init_params(cfg, dtype=np.float32)
    report = evaluate(params, cfg, tiny_settings(), corpus, [32, 64])
    for row in report.rows:
        assert abs(row.ppl - 256.0) < 12.0
        assert row.acc < 0.015


def test_ppl_consistency_and_shuffle_invariance(text_corpus):
    cfg = tiny_cfg(seed=6)
    params = init_params(cfg, dtype=np.float32)
    windows = evaluation_windows(text_corpus, 32)[:40]
    pos = np.arange(1, 33, dtype=np.float64)
    basis = default_basis(cfg.d_head)
    nll, correct, count = score_windows(params, cfg, windows, pos, basis, 1.0, 8)
    report = evaluate(params, cfg, tiny_settings(), text_corpus, [32])
    row = report.rows[0]
    # ppl is exactly exp(total nll / total predictions)
    full_nll, _, full_count = score_windows(
        params, cfg, evaluation_windows(text_corpus, 32), pos, basis, 1.0, 8
    )
    assert abs(row.ppl - math.exp(full_nll / full_count)) <= 1e-9 * row.ppl
    # window order cannot matter
    perm = np.random.default_rng(0).permutation(windows.shape[0])
    nll_s, correct_s, count_s = score_windows(
        params, cfg, windows[perm], pos, basis, 1.0, 8
    )
    assert count == count_s and correct == correct_s
    assert abs(nll - nll_s) <= 1e-9 * abs(nll)


def test_self_extension_factor_rule():
    # trained factor holds until the supported extension, then grows in
    # proportion to the evaluation length
    assert self_extension_factor(4.0, 4096, 16384) == 4.0
    assert self_extension_factor(4.0, 4096, 32768) == 8.0
    assert self_extension_factor(8.0, 128, 128) == 8.0
    assert self_extension_factor(8.0, 128, 1024) == 8.0
    assert self_extension_factor(8.0, 128, 2048) == 16.0
    lens = [128, 256, 512, 1024, 2048, 4096]
    factors = [self_extension_factor(4.0, 128, n) for n in lens]
    assert factors == sorted(factors)
    assert all(f == 4.0 for n, f in zip(lens, factors) if n <= 4.0 * 128)


def test_method_inputs_pi_scales_indices():
    cfg = tiny_cfg(method="pi", t_fixed=2.0)
    positions, basis, t = method_inputs(cfg, 32)
    assert t == 2.0 and np.array_equal(positions, np.arange(1.0, 33.0) / 2.0)
    positions, basis, t = method_inputs(cfg, 128)  # past the trained extension 2*32
    assert t == 4.0 and np.array_equal(positions, np.arange(1.0, 129.0) / 4.0)
    assert np.array_equal(basis.theta, default_basis(cfg.d_head).theta)


@pytest.mark.parametrize("method", ["rope", "pi", "yarn", "codellama"])
def test_train_feeds_forward_what_evaluate_feeds_at_train_len(text_corpus, monkeypatch, method):
    import ropekit.harness as hmod

    real = hmod.forward
    calls = []

    def recording(params, cfg, tokens, positions, basis, attn_scale_mult=1.0):
        calls.append((np.array(positions), np.array(basis.theta)))
        return real(params, cfg, tokens, positions, basis, attn_scale_mult)

    monkeypatch.setattr(hmod, "forward", recording)
    cfg = tiny_cfg(method=method, t_fixed=2.0)
    settings = tiny_settings(steps=1)
    result = train(cfg, settings, text_corpus)
    evaluate(result.params, cfg, settings, text_corpus, [cfg.train_len])
    (train_pos, train_theta), *eval_calls = calls
    assert eval_calls
    for eval_pos, eval_theta in eval_calls:
        assert np.array_equal(train_pos, eval_pos)
        assert np.array_equal(train_theta, eval_theta)


def test_evaluate_row_fields_per_method(text_corpus):
    settings = tiny_settings()
    for method, kw, want_t in (
        ("rope", {}, [1.0, 1.0]),
        ("pi", {"t_fixed": 2.0}, [2.0, 2.0]),
        ("yarn", {"t_fixed": 2.0}, [2.0, 2.0]),
        ("codellama", {}, [1.0, 1.0]),
        ("randompos", {"t_train": 4.0}, [1.0, 1.0]),
    ):
        cfg = tiny_cfg(method=method, **kw)
        params = init_params(cfg, dtype=np.float32)
        report = evaluate(params, cfg, settings, text_corpus, [32, 64])
        assert [r.eval_t for r in report.rows] == want_t
        assert [r.eval_len for r in report.rows] == [32, 64]
        assert report.rows[0].attn_scale_mult == 1.0
        assert report.rows[1].attn_scale_mult == pytest.approx(math.log(64) / math.log(32))
        for r in report.rows:
            assert r.ppl >= 1.0 and 0.0 <= r.acc <= 1.0


def test_evaluate_pi_extends_factor_beyond_training(text_corpus):
    cfg = tiny_cfg(method="pi", t_fixed=2.0)
    params = init_params(cfg, dtype=np.float32)
    report = evaluate(params, cfg, tiny_settings(), text_corpus, [32, 64, 128, 256])
    assert [r.eval_t for r in report.rows] == [2.0, 2.0, 4.0, 8.0]


def test_evaluate_ode_uses_cache_at_train_len(text_corpus):
    cfg = tiny_cfg(method="ode", t_train=2.0, seed=7)
    result = train(cfg, tiny_settings(), text_corpus)
    report = evaluate(result.params, cfg, result.settings, text_corpus, [32])
    row = report.rows[0]
    assert row.eval_t == 1.0
    assert row.attn_scale_mult == 1.0


def test_evaluate_ode_on_demand_beyond_cache(text_corpus):
    cfg = tiny_cfg(method="ode", t_train=2.0, seed=8)
    settings = tiny_settings(cache_factors=(1.0, 2.0))
    result = train(cfg, settings, text_corpus)
    report = evaluate(result.params, cfg, settings, text_corpus, [32, 256])
    assert report.rows[1].eval_t == 256 / 32


def test_evaluate_rejects_tiny_lengths(text_corpus):
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)
    with pytest.raises(ValueError):
        evaluate(params, cfg, tiny_settings(), text_corpus, [1])


def test_evaluate_reports_memory_exhaustion(text_corpus, monkeypatch):
    # a length that exhausts memory is recorded, not raised
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)

    import ropekit.harness as hmod

    real = hmod.score_windows

    def flaky(params, cfg, windows, *args, **kw):
        if windows.shape[1] >= 64:
            raise MemoryError("simulated")
        return real(params, cfg, windows, *args, **kw)

    monkeypatch.setattr(hmod, "score_windows", flaky)
    report = evaluate(params, cfg, tiny_settings(), text_corpus, [32, 64])
    assert [r.eval_len for r in report.rows] == [32]
    assert report.errors == ["eval_len 64: exceeded memory budget, skipped"]


# ---------------------------------------------------------------------------
# compare and reports


def test_compare_merges_and_counts(text_corpus):
    entries = [
        CompareEntry(tiny_cfg(method="rope", seed=9), tiny_settings()),
        CompareEntry(tiny_cfg(method="pi", t_fixed=2.0, seed=9), tiny_settings()),
    ]
    report, results = compare(entries, text_corpus, [32, 64])
    assert len(report.rows) == 4  # methods x lengths
    assert [r.method for r in report.rows] == ["rope", "rope", "pi", "pi"]
    assert results[0] is not None and results[1] is not None


def test_compare_single_entry_matches_evaluate(text_corpus):
    cfg = tiny_cfg(seed=10)
    settings = tiny_settings()
    result = train(cfg, settings, text_corpus)
    direct = evaluate(result.params, cfg, settings, text_corpus, [32])
    merged, _ = compare([CompareEntry(cfg, settings)], text_corpus, [32])
    assert merged.rows == direct.rows


def test_compare_rejects_conflicting_vocab(text_corpus):
    entries = [
        CompareEntry(tiny_cfg(vocab=256), tiny_settings()),
        CompareEntry(tiny_cfg(vocab=128), tiny_settings()),
    ]
    with pytest.raises(ValueError):
        compare(entries, text_corpus, [32])


def test_compare_reuses_pretrained_params(text_corpus):
    cfg = tiny_cfg(seed=12)
    settings = tiny_settings()
    result = train(cfg, settings, text_corpus)
    merged, results = compare(
        [CompareEntry(cfg, settings, params=result.params)], text_corpus, [32]
    )
    assert results == [None]
    direct = evaluate(result.params, cfg, settings, text_corpus, [32])
    assert merged.rows == direct.rows


def test_report_csv_schema():
    report = EvalReport(rows=[EvalRow("rope", 32, 64, 1.0, 1.25, 17.5, 0.25)])
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "method,train_len,eval_len,eval_t,attn_scale_mult,ppl,acc"
    assert lines[1] == "rope,32,64,1.000000,1.250000,17.500000,0.250000"


def test_extrapolation_breakpoints():
    rows = [
        EvalRow("a", 32, 32, 1.0, 1.0, 10.0, 0.1),
        EvalRow("a", 32, 64, 1.0, 1.0, 19.0, 0.1),
        EvalRow("a", 32, 128, 1.0, 1.0, 21.0, 0.1),
        EvalRow("b", 32, 32, 1.0, 1.0, 10.0, 0.1),
        EvalRow("b", 32, 64, 1.0, 1.0, 11.0, 0.1),
    ]
    breaks = extrapolation_breakpoints(EvalReport(rows=rows))
    assert breaks == {"a": 128, "b": None}


# ---------------------------------------------------------------------------
# demo corpus


def test_demo_corpus_deterministic_and_sized():
    a = demo_corpus_bytes(10_000, seed=3)
    b = demo_corpus_bytes(10_000, seed=3)
    assert a == b
    assert len(a) == 10_000
    assert max(a) < 128  # ascii
    assert demo_corpus_bytes(10_000, seed=4) != a
