import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_demo_corpus_bytes

from ropekit import autodiff as ad
from ropekit import checkpoint
from ropekit.checkpoint import load_checkpoint, save_checkpoint
from ropekit.continuous import position_plan, solve
from ropekit.harness import (
    CSV_HEADER,
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
    make_cache_session,
    method_inputs,
    sample_train_batch,
    score_windows,
    self_extension_factor,
    train,
    write_demo_corpus,
)
from ropekit.model import METHODS, ModelConfig, init_params, log_scale_mult
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
    plan = position_plan(32, 1.0, 0)
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


def test_train_aborts_on_nonfinite_grad_norm_before_updating(text_corpus, monkeypatch):
    # A nan gradient with a finite loss on the last step: Adam would skip the
    # clip and write nan into every weight, and the run would save them.
    real_backward = ad.backward
    snapshots = []

    def poisoned(root):
        real_backward(root)
        leaves = [n for n in ad._toposort(root) if n.requires_grad and not n._parents]
        snapshots.append([(leaf, leaf.data.copy()) for leaf in leaves])
        if len(snapshots) == 2:
            leaves[0].grad.flat[0] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)
    with pytest.raises(NumericalAbort, match="non-finite gradient norm nan at step 1"):
        train(tiny_cfg(seed=5), tiny_settings(steps=2), text_corpus)
    assert len(snapshots) == 2
    for leaf, before in snapshots[-1]:
        assert np.array_equal(leaf.data, before)


@pytest.mark.parametrize("kw, message", [
    ({"steps": 0}, "steps must be >= 1"),
    ({"beta1": 1.0}, r"beta1 must be in \[0, 1\)"),
    ({"cache_factors": (2.0, 1.0)}, "cache_factors must"),
    ({"precision": "float16"}, "precision must"),
    ({"lr": -3e-3}, "lr must be >= 0"),
    ({"grad_clip": -1.0}, "grad_clip must be >= 0"),
    ({"eps": 0.0}, "eps must be > 0"),
    ({"eps": -1.0}, "eps must be > 0"),
], ids=["steps_0", "beta1_1", "cache_descending", "precision", "lr_negative", "grad_clip_negative",
        "eps_0", "eps_negative"])
def test_train_and_evaluate_validate_settings(text_corpus, kw, message):
    # library callers get the same checks as the command line
    cfg = tiny_cfg()
    with pytest.raises(ValueError, match=message):
        train(cfg, tiny_settings(**kw), text_corpus)
    with pytest.raises(ValueError, match=message):
        evaluate(init_params(cfg), cfg, tiny_settings(**kw), text_corpus, [32])


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
    positions, basis, t, _ = method_inputs(cfg, 32)
    assert t == 2.0 and np.array_equal(positions, np.arange(1.0, 33.0) / 2.0)
    positions, basis, t, _ = method_inputs(cfg, 128)  # past the trained extension 2*32
    assert t == 4.0 and np.array_equal(positions, np.arange(1.0, 129.0) / 4.0)
    assert np.array_equal(basis.theta, default_basis(cfg.d_head).theta)


@pytest.mark.parametrize("method", METHODS)
def test_method_inputs_returns_the_attention_multiplier(text_corpus, method):
    # every method's rule carries the log scaling multiplier, exactly 1 at
    # train_len, and evaluate's rows report that value
    cfg = tiny_cfg(method=method, t_fixed=2.0, t_train=2.0)
    params = init_params(cfg, dtype=np.float32)
    settings = tiny_settings()
    session = None
    lens = [32, 128]
    if method == "ode":
        params.update(OdeNet(cfg.d_head, dtype=np.float32).params())
        _, session = make_cache_session(params, cfg, settings)
        lens.append(512)  # past the largest cached factor, 8 x 32
    mults = [method_inputs(cfg, length, session)[3] for length in lens]
    assert mults == [log_scale_mult(cfg.train_len, length) for length in lens]
    assert mults[0] == 1.0 and mults[1] > 1.0
    report = evaluate(params, cfg, settings, text_corpus, lens)
    assert [r.attn_scale_mult for r in report.rows] == mults


@pytest.mark.parametrize("method", METHODS)
def test_train_feeds_forward_what_evaluate_feeds_at_train_len(text_corpus, monkeypatch, method):
    # randompos and ode train at t_train 1, where their drawn positions are
    # 1..train_len and ode's solved basis is the stock one
    import ropekit.harness as hmod

    real = hmod.forward
    calls = []

    def recording(params, cfg, tokens, positions, basis, attn_scale_mult=1.0):
        theta = basis.data if isinstance(basis, ad.Tensor) else basis.theta
        calls.append((np.array(positions), np.array(theta, dtype=np.float64)))
        return real(params, cfg, tokens, positions, basis, attn_scale_mult)

    monkeypatch.setattr(hmod, "forward", recording)
    cfg = tiny_cfg(method=method, t_fixed=2.0, t_train=1.0)
    settings = tiny_settings(steps=1)
    result = train(cfg, settings, text_corpus)
    evaluate(result.params, cfg, settings, text_corpus, [cfg.train_len])
    (train_pos, train_theta), *eval_calls = calls
    assert eval_calls
    for eval_pos, eval_theta in eval_calls:
        assert np.array_equal(train_pos, eval_pos)
        assert np.array_equal(train_theta, eval_theta)


def test_train_feeds_forward_the_cached_basis_at_its_drawn_factor(text_corpus, monkeypatch):
    # at a drawn t' > 1 a float32 training step feeds forward, bit for bit,
    # the basis that a cache holding t' returns; lr 0 keeps the weights the
    # step solved with
    import ropekit.harness as hmod

    real = hmod.forward
    fed = []

    def recording(params, cfg, tokens, positions, basis, attn_scale_mult=1.0):
        fed.append(np.array(basis.data, dtype=np.float64))
        return real(params, cfg, tokens, positions, basis, attn_scale_mult)

    monkeypatch.setattr(hmod, "forward", recording)
    cfg = tiny_cfg(method="ode", t_train=8.0)
    result = train(cfg, tiny_settings(steps=1, lr=0.0), text_corpus)
    (record,) = result.trace
    assert record.t_prime > 1.0
    _, session = make_cache_session(result.params, cfg, tiny_settings(cache_factors=(record.t_prime,)))
    t, basis = session.lookup(cfg.train_len)
    assert t == record.t_prime
    assert np.array_equal(fed[0], basis.theta)


@pytest.mark.parametrize("method", ["randompos", "ode"])
def test_train_draws_replay_from_one_generator(text_corpus, monkeypatch, method):
    # one generator seeded by cfg.seed feeds, in order: init_params, the
    # OdeNet (ode), then per step the batch, t' (ode) and the positions' seed
    import ropekit.harness as hmod

    real = hmod.forward
    fed = []

    def recording(params, cfg, tokens, positions, basis, attn_scale_mult=1.0):
        fed.append((np.array(tokens), np.array(positions)))
        return real(params, cfg, tokens, positions, basis, attn_scale_mult)

    monkeypatch.setattr(hmod, "forward", recording)
    cfg = tiny_cfg(method=method, t_train=4.0, seed=21)
    settings = tiny_settings(steps=3)
    result = train(cfg, settings, text_corpus)

    rng = np.random.default_rng(cfg.seed)
    init_params(cfg, dtype=np.float32, rng=rng)
    if method == "ode":
        OdeNet(cfg.d_head, settings.lambda_amp, dtype=np.float32, rng=rng)
    assert len(fed) == len(result.trace) == 3
    for (tokens, positions), record in zip(fed, result.trace):
        inputs, _ = sample_train_batch(text_corpus, cfg.train_len, settings.batch_size, rng)
        t_prime = float(rng.uniform(1.0, cfg.t_train)) if method == "ode" else None
        want = position_plan(cfg.train_len, t_prime or cfg.t_train, int(rng.integers(0, 2**63)))
        assert np.array_equal(tokens, inputs)
        assert record.t_prime == t_prime
        assert np.array_equal(positions, want)


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
        assert report.cache is None
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
    settings = tiny_settings()
    result = train(cfg, settings, text_corpus)
    report = evaluate(result.params, cfg, settings, text_corpus, [32])
    row = report.rows[0]
    assert row.eval_t == 1.0
    assert row.attn_scale_mult == 1.0


def test_evaluate_ode_on_demand_beyond_cache(text_corpus):
    cfg = tiny_cfg(method="ode", t_train=2.0, seed=8)
    settings = tiny_settings(cache_factors=(1.0, 2.0))
    result = train(cfg, settings, text_corpus)
    report = evaluate(result.params, cfg, settings, text_corpus, [32, 256])
    assert report.rows[1].eval_t == 256 / 32
    # the report hands back the cache it looked up, not the on-demand solve
    cache, _ = make_cache_session(result.params, cfg, settings)
    assert report.cache.factors == (1.0, 2.0) and report.cache.native_len == 32
    for got, want in zip(report.cache.bases, cache.bases):
        assert np.array_equal(got.theta, want.theta)


@pytest.mark.parametrize("method, kw", [("rope", {}), ("yarn", {"t_fixed": 2.0}), ("ode", {"t_train": 2.0})])
def test_evaluate_checkpoint_arrays_match_trained_tensors(text_corpus, tmp_path, method, kw):
    cfg = tiny_cfg(method=method, seed=13, **kw)
    settings = tiny_settings(cache_factors=(1.0, 2.0))
    result = train(cfg, settings, text_corpus)
    save_checkpoint(tmp_path / "ckpt", result.params)
    arrays, _ = load_checkpoint(tmp_path / "ckpt")
    assert not any(isinstance(v, ad.Tensor) for v in arrays.values())
    lens = [32, 64, 96]  # 96 lies past the cache for ode
    from_arrays = evaluate(arrays, cfg, settings, text_corpus, lens)
    assert from_arrays.rows == evaluate(result.params, cfg, settings, text_corpus, lens).rows


def test_evaluate_rejects_tiny_lengths(text_corpus):
    cfg = tiny_cfg()
    params = init_params(cfg, dtype=np.float32)
    with pytest.raises(ValueError):
        evaluate(params, cfg, tiny_settings(), text_corpus, [1])


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
    assert report.to_json_doc()["rows"] == [{
        "method": "rope", "train_len": 32, "eval_len": 64, "eval_t": 1.0,
        "attn_scale_mult": 1.25, "ppl": 17.5, "acc": 0.25,
    }]


def test_csv_header_is_the_readme_schema():
    # EvalRow's field order is the file format; README states it literally
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (schema,) = re.findall(r"schema `(method,[^`]*)`", readme)
    assert CSV_HEADER == schema


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


@pytest.mark.parametrize("n_bytes", [1, 9_999, 60_000, 262_144])
@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_demo_corpus_matches_the_choice_reference(seed, n_bytes):
    assert demo_corpus_bytes(n_bytes, seed) == reference_demo_corpus_bytes(n_bytes, seed)


@pytest.mark.parametrize("n_bytes, seed, digest", [
    (10_000, 3, "4def08dd12d1675fcc8ad0b43270f26d1bc8094751cf20f9c3035e34b69b58de"),
    (262_144, 0, "c28409c264c0866297e7309de0e46500e95ebaaf874b0077191e83cf1ae40875"),
    (2_621_440, 0, "2e5f6ee30d4bb9131ddf80f93eb40fcfbc8f9069dd64ded447dda1f4a5ac9319"),
])
def test_demo_corpus_sha256_is_pinned(n_bytes, seed, digest):
    # the benchmark corpus, criterion 7's and a small one, as numpy 2.4.6 drew them
    assert hashlib.sha256(demo_corpus_bytes(n_bytes, seed)).hexdigest() == digest


@pytest.mark.parametrize("old", [None, b"old corpus"], ids=["no_old_file", "old_file"])
def test_write_demo_corpus_failing_midway_leaves_no_partial_file(tmp_path, monkeypatch, old):
    path = tmp_path / "c.txt"
    if old is not None:
        path.write_bytes(old)

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_demo_corpus(path, 5_000, seed=0)
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["c.txt"])
    if old is not None:
        assert path.read_bytes() == old
