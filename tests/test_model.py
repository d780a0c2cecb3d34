"""Toy-transformer tests: spec validation, forward contracts, the
adapter-friendly init, gradient coverage of every adapted role, base
freezing, and quantization of the base."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlorakit import model, quant
from qlorakit.errors import ConfigError, InputError
from qlorakit.lora import QLoraLinear
from qlorakit.matrix import softmax
from qlorakit.optim import TrainConfig
from qlorakit.model import (LAYER_ROLES, ROWS_PER_PASS, ModelParams, ToyModelSpec,
                            base_fingerprint, forward, forward_batch, init_adapters,
                            init_model_params, loss_and_grads, quantize_base)
from qlorakit.quant import Q4BlockMatrix, dequantize_4bit
from qlorakit.trainer import train

from conftest import (factor_wise_logits, factor_wise_loss_and_grads, make_batch,
                      max_relative_error, naive_logits, naive_loss)


def test_spec_validation():
    common = dict(vocab_size=8, n_layers=1, d_ff=4, n_classes=2, max_seq_len=4)
    with pytest.raises(ConfigError, match="divisible"):
        ToyModelSpec(d_model=6, n_heads=4, **common)
    with pytest.raises(ConfigError, match="unknown adapter target"):
        ToyModelSpec(d_model=4, n_heads=2, adapter_targets=("attn_z",), **common)
    with pytest.raises(ConfigError, match="duplicates"):
        ToyModelSpec(d_model=4, n_heads=2, adapter_targets=("attn_q", "attn_q"), **common)
    with pytest.raises(ConfigError, match="non-empty"):
        ToyModelSpec(d_model=4, n_heads=2, adapter_targets=(), **common)
    with pytest.raises(ConfigError, match="n_classes"):
        ToyModelSpec(d_model=4, n_heads=2, n_classes=1, vocab_size=8,
                     n_layers=1, d_ff=4, max_seq_len=4)


def test_param_inventory(small_spec):
    names = list(small_spec.shapes)
    assert names[0] == "tok_emb" and names[-1] == "head"
    assert len(names) == 2 + 2 * len(LAYER_ROLES) + 1
    manual = (23 * 8 + 6 * 8                 # embeddings
              + 2 * (4 * 8 * 8 + 8 * 12 + 12 * 8)  # per-layer projections
              + 8 * 3)                       # head
    assert small_spec.total_params() == manual
    assert small_spec.adapter_names() == [
        "layers.0.attn_q", "layers.0.attn_v",
        "layers.1.attn_q", "layers.1.attn_v",
    ]


def test_forward_shape_determinism_and_softmax(small_setup):
    spec, params, adapters, batch = small_setup
    toks = batch[0][0]
    logits = forward(params, spec, toks, adapters)
    assert logits.shape == (spec.n_classes,)
    assert np.array_equal(logits, forward(params, spec, toks, adapters))
    assert abs(softmax(logits).sum() - 1.0) <= 1e-12


def test_token_validation(small_setup):
    spec, params, adapters, _ = small_setup
    with pytest.raises(InputError, match="non-empty"):
        forward(params, spec, [], adapters)
    # emptiness is reported before the dtype, so an empty float array is not "integers"
    with pytest.raises(InputError, match="non-empty"):
        forward(params, spec, np.array([]), adapters)
    assert forward_batch(params, spec, [], adapters).shape == (0, spec.n_classes)
    with pytest.raises(InputError, match="max_seq_len"):
        forward(params, spec, [0] * (spec.max_seq_len + 1), adapters)
    with pytest.raises(InputError, match="outside"):
        forward(params, spec, [spec.vocab_size], adapters)
    # ids past int64 are range-checked before any cast, so each names its real value
    for tokens, bad in (([2**70], 2**70), ((4, np.uint64(2**64 - 1)), 2**64 - 1),
                        (np.array([2**64 - 1], dtype=np.uint64), 2**64 - 1),
                        ([2**63], 2**63)):
        message = re.escape(f"token id {bad} outside [0, {spec.vocab_size})")
        with pytest.raises(InputError, match=message):
            forward(params, spec, tokens, adapters)
        with pytest.raises(InputError, match=message):
            forward_batch(params, spec, [[1, 2], tokens], adapters)
        with pytest.raises(InputError, match=message):
            loss_and_grads(params, spec, [([1, 2], 0), (tokens, 1)], adapters)


@pytest.mark.parametrize("tokens", [
    [1.7, 2.2], ["1", "2"], [True, 2], [np.True_, 2], np.array([1.0, 2.0]),
    np.array([True, False]), np.array(["1", "2"]),
    5, [[1, 2], [3]], [[1, 2], [3, 4]], np.array([[1, 2], [3, 4]])],
    ids=["floats", "strings", "bool-in-list", "np-bool-in-list", "float-array",
         "bool-array", "str-array", "scalar", "ragged", "nested-list", "2-d-array"])
def test_non_integer_tokens_are_refused_not_coerced(small_setup, tokens):
    spec, params, adapters, _ = small_setup
    with pytest.raises(InputError, match="integers") as one:
        forward(params, spec, tokens, adapters)
    with pytest.raises(InputError) as batched:
        forward_batch(params, spec, [[1, 2], tokens, [3]], adapters)
    assert str(batched.value) == str(one.value)
    with pytest.raises(InputError) as window:
        loss_and_grads(params, spec, [([1, 2], 0), (tokens, 1)], adapters)
    assert str(window.value) == str(one.value)
    # an earlier bad sequence's error comes first
    with pytest.raises(InputError, match="max_seq_len"):
        forward_batch(params, spec, [[0] * (spec.max_seq_len + 1), tokens], adapters)


def test_integer_token_dtypes_give_the_int64_logits(small_setup):
    spec, params, adapters, _ = small_setup
    expected = forward_batch(params, spec, [[1, 2, 3], [4, 5]], adapters)
    for seqs in ([np.array([1, 2, 3], dtype=np.uint8), np.array([4, 5], dtype=np.int32)],
                 [[np.int16(1), 2, 3], (4, np.uint8(5))],
                 [[1, 2, 3], (4, np.uint64(5))]):  # numpy promotes this pair to float64
        assert np.array_equal(forward_batch(params, spec, seqs, adapters), expected)


@pytest.mark.parametrize("label", [1.5, 1.0, np.float64(1.0), True, np.True_, "1", None])
def test_non_integer_labels_are_refused_not_coerced(small_setup, label):
    spec, params, adapters, _ = small_setup
    with pytest.raises(InputError, match="not an integer"):
        loss_and_grads(params, spec, [([1, 2], 0), ([3], label)], adapters)
    loss, _ = loss_and_grads(params, spec, [([1, 2], 0), ([3], np.int8(1))], adapters)
    assert loss == loss_and_grads(params, spec, [([1, 2], 0), ([3], 1)], adapters)[0]


def test_adapter_friendly_init_gives_zero_logits_and_ln_c_loss(small_spec):
    params = init_model_params(small_spec, seed=0, profile="adapter_friendly")
    adapters = init_adapters(small_spec, rank=2, alpha=4.0, seed=1)
    batch = make_batch(small_spec, 6, seed=2)
    for toks, _ in batch:
        assert not forward(params, small_spec, toks, adapters).any()
    loss, _ = loss_and_grads(params, small_spec, batch, adapters)
    assert loss == pytest.approx(np.log(small_spec.n_classes), abs=1e-15)


def test_unknown_init_profile_rejected(small_spec):
    with pytest.raises(ConfigError, match="init profile"):
        init_model_params(small_spec, seed=0, profile="xavier")


def test_gradient_map_covers_exactly_the_adapter_factors(small_setup):
    spec, params, adapters, batch = small_setup
    _, grads = loss_and_grads(params, spec, batch, adapters)
    expected = {n + s for n in spec.adapter_names() for s in ("/b", "/a")}
    assert set(grads) == expected
    for name in spec.shapes:
        assert name not in grads


def test_label_validation(small_setup):
    spec, params, adapters, _ = small_setup
    with pytest.raises(InputError, match="label"):
        loss_and_grads(params, spec, [([1, 2], spec.n_classes)], adapters)
    with pytest.raises(InputError, match="non-empty"):
        loss_and_grads(params, spec, [], adapters)


def test_adapter_attachment_validation(small_setup):
    spec, params, _, batch = small_setup
    bad_name = init_adapters(spec, 2, 4.0, 0)
    bad_name["layers.0.ffn_up"] = bad_name.pop("layers.0.attn_q")
    with pytest.raises(InputError, match="does not match any configured target"):
        forward(params, spec, batch[0][0], bad_name)


@pytest.mark.parametrize("name, shape, expected, q4", [
    ("head", (32, 5), (32, 4), False),
    ("layers.0.ffn_up", (32, 48), (32, 64), False),
    ("tok_emb", (10, 32), (64, 32), False),
    ("layers.1.attn_k", (32, 16), (32, 32), True),
])
def test_a_mis_shaped_base_weight_is_refused_before_any_pass(monkeypatch, name, shape,
                                                              expected, q4):
    """forward_batch, loss_and_grads and train each name the weight and
    both shapes before a pass runs, for a dense or a 4-bit weight; token 30
    would index past the short tok_emb."""
    spec = ToyModelSpec(vocab_size=64, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                        n_classes=4, max_seq_len=16)
    params = init_model_params(spec, seed=1)
    wrong = np.random.default_rng(0).normal(0.0, 0.1, shape)
    params.weights[name] = quant.quantize_4bit(wrong) if q4 else wrong
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=2)
    batch = [(np.array([30, 1, 2]), 0), (np.array([3, 4]), 1)]

    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(model, "_forward_pass", no_pass)
    message = re.escape(f"weight {name!r} has shape {shape}, expected {expected}")
    for run in (lambda: forward_batch(params, spec, [t for t, _ in batch], adapters),
                lambda: loss_and_grads(params, spec, batch, adapters),
                lambda: train(batch, params, spec, adapters,
                              TrainConfig(batch_size=2, warmup_steps=0, rank=2, alpha=4.0))):
        with pytest.raises(InputError, match=message):
            run()


def finite_difference_check(spec, params, adapters, batch, h=1e-5, tol=1e-4):
    """Central-difference oracle over every adapter coordinate."""
    _, grads = loss_and_grads(params, spec, batch, adapters)
    factors = {}
    for name, ad in adapters.items():
        factors[name + "/b"] = ad.b_factor
        factors[name + "/a"] = ad.a_factor
    checked = 0
    worst = 0.0
    for key, arr in factors.items():
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _ = loss_and_grads(params, spec, batch, adapters)
            flat[i] = keep - h
            dn, _ = loss_and_grads(params, spec, batch, adapters)
            flat[i] = keep
            fd = (up - dn) / (2 * h)
            rel = abs(grads[key].ravel()[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            checked += 1
    assert worst <= tol, f"worst relative error {worst} over {checked} coords"
    return checked


def test_gradients_for_every_adaptable_role():
    # acceptance covers query/value; this covers the remaining four roles
    spec = ToyModelSpec(vocab_size=13, d_model=6, n_layers=1, n_heads=2,
                        d_ff=5, n_classes=3, max_seq_len=5,
                        adapter_targets=("attn_k", "attn_o", "ffn_up", "ffn_down"))
    batch = make_batch(spec, 3, seed=8, seq_len=4)
    for profile in ("standard", "adapter_friendly"):
        params = init_model_params(spec, seed=5, profile=profile)
        adapters = init_adapters(spec, rank=2, alpha=4.0, seed=6)
        rng = np.random.default_rng(7)
        for name, ad in adapters.items():  # move off the zero init so grads flow everywhere
            if profile == "standard" or name != "layers.0.ffn_down":
                ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
        if profile == "adapter_friendly":
            # ffn_down's merged weight is exactly zero, but it has an adapter:
            # the FFN must still run, or its a_factor would read a zero gradient
            layers = model.adapted_layers(params, spec, adapters)
            assert not layers["layers.0.ffn_down"].weight.any()
            _, grads = loss_and_grads(params, spec, batch, adapters)
            assert grads["layers.0.ffn_down/a"].any()
        assert finite_difference_check(spec, params, adapters, batch) >= 80, profile


def test_base_fingerprint_changes_when_base_changes(small_setup):
    spec, params, _, _ = small_setup
    fp = base_fingerprint(params)
    assert fp == base_fingerprint(params)
    params.weights["head"][0, 0] += 1.0
    assert base_fingerprint(params) != fp


def test_quantize_base_targets_matmul_weights_only(small_setup):
    spec, params, adapters, batch = small_setup
    qparams = quantize_base(params, spec, block_size=16)
    for name, value in qparams.weights.items():
        if name in ("tok_emb", "pos_emb"):
            assert isinstance(value, np.ndarray)
        else:
            assert isinstance(value, Q4BlockMatrix)
    # quantized model is still runnable and purely a function of its inputs
    logits = forward(qparams, spec, batch[0][0], adapters)
    assert np.array_equal(logits, forward(qparams, spec, batch[0][0], adapters))


def test_q4_model_equals_dense_model_of_its_dequantized_weights(small_setup):
    spec, params, adapters, batch = small_setup
    rng = np.random.default_rng(5)
    for ad in adapters.values():  # nonzero a_factor so every factor gets a gradient
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    qparams = quantize_base(params, spec, block_size=16)
    dense = ModelParams(weights={
        name: dequantize_4bit(v) if isinstance(v, Q4BlockMatrix) else v
        for name, v in qparams.weights.items()})
    for tokens, _ in batch:
        assert np.array_equal(forward(qparams, spec, tokens, adapters),
                              forward(dense, spec, tokens, adapters))
    q_loss, q_grads = loss_and_grads(qparams, spec, batch, adapters)
    d_loss, d_grads = loss_and_grads(dense, spec, batch, adapters)
    assert q_loss == d_loss
    assert sorted(q_grads) == sorted(d_grads)
    assert all(np.array_equal(q_grads[k], d_grads[k]) for k in d_grads)


def test_params_spec_mismatch_detected(small_spec):
    params = init_model_params(small_spec, seed=0)
    del params.weights["head"]
    with pytest.raises(InputError, match="missing"):
        forward(params, small_spec, [1, 2], None)


def test_init_adapters_is_per_name_seeded(small_spec):
    a1 = init_adapters(small_spec, 2, 4.0, seed=9)
    a2 = init_adapters(small_spec, 2, 4.0, seed=9)
    names = list(a1)
    assert all(np.array_equal(a1[n].b_factor, a2[n].b_factor) for n in names)
    assert not np.array_equal(a1[names[0]].b_factor, a1[names[1]].b_factor)


def test_standard_profile_forward_is_finite(small_spec):
    params = init_model_params(small_spec, seed=3, profile="standard")
    logits = forward(params, small_spec, [1, 2, 3], None)
    assert np.all(np.isfinite(logits))


def mixed_length_sequences(spec, seed):
    """Every length 1..max_seq_len, each with more rows than one pass holds."""
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, spec.vocab_size, size=t)
            for t in range(1, spec.max_seq_len + 1)
            for _ in range(ROWS_PER_PASS // t + 1)]
    return [seqs[i] for i in rng.permutation(len(seqs))]


def test_forward_batch_matches_per_sequence_forward(small_setup):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(4)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = mixed_length_sequences(spec, seed=9)
    assert sum(s.size for s in seqs) > 2 * ROWS_PER_PASS
    logits = forward_batch(params, spec, seqs, adapters)
    assert logits.shape == (len(seqs), spec.n_classes)
    single = np.stack([forward(params, spec, s, adapters) for s in seqs])
    assert np.max(np.abs(logits - single)) <= 1e-12
    for s in seqs[:5]:
        assert np.array_equal(forward_batch(params, spec, [s], adapters)[0],
                              forward(params, spec, s, adapters))


def test_mixed_length_loss_and_grads_is_the_mean_of_single_examples(small_setup):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(6)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = mixed_length_sequences(spec, seed=10)[:40]
    batch = [(s, int(rng.integers(0, spec.n_classes))) for s in seqs]
    loss, grads = loss_and_grads(params, spec, batch, adapters)
    singles = [loss_and_grads(params, spec, [ex], adapters) for ex in batch]
    assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12, abs=1e-12)
    for key, g in grads.items():
        expected = sum(sg[key] for _, sg in singles) / len(batch)
        assert np.max(np.abs(g - expected)) <= 1e-12, key


def _count_passes(monkeypatch):
    """Record (rows, T, masked) for every batched pass the model runs."""
    calls = []
    real = model._forward_pass

    def spy(weights, plan, spec, toks, valid, need_tape):
        calls.append((toks.shape[0], toks.shape[1], valid is not None))
        return real(weights, plan, spec, toks, valid, need_tape)

    monkeypatch.setattr(model, "_forward_pass", spy)
    return calls


def test_mixed_length_window_runs_in_sorted_capped_passes(monkeypatch):
    spec = ToyModelSpec(vocab_size=23, d_model=8, n_layers=1, n_heads=2, d_ff=8,
                        n_classes=3, max_seq_len=32)
    params = init_model_params(spec, seed=1, profile="standard")
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=2)
    rng = np.random.default_rng(5)
    lengths = [int(t) for t in rng.integers(1, spec.max_seq_len + 1, size=60)]
    lengths += [23, 28, 25, 24, 26, 27, 23, 25]
    # the predicted chunking: ascending lengths, a new pass whenever the
    # padded rows (members x longest member) would exceed ROWS_PER_PASS
    expected, members = [], 0
    for t in sorted(lengths):
        if members and (members + 1) * t > ROWS_PER_PASS:
            expected.append(members)
            members = 0
        members += 1
    expected.append(members)
    seqs = [rng.integers(0, spec.vocab_size, size=t) for t in lengths]
    batch = [(s, 0) for s in seqs]
    calls = _count_passes(monkeypatch)
    forward_batch(params, spec, seqs, adapters)
    loss_and_grads(params, spec, batch, adapters)
    assert [rows for rows, _, _ in calls] == expected * 2
    assert all(rows * t <= ROWS_PER_PASS or rows == 1 for rows, t, _ in calls)
    # a corpus-like window of 8 questions, 6 distinct lengths, runs in 1 pass
    calls.clear()
    loss_and_grads(params, spec, batch[-8:], adapters)
    assert [(rows, t) for rows, t, _ in calls] == [(8, 28)]
    # equal lengths run unmasked, as many per pass as fit
    calls.clear()
    loss_and_grads(params, spec, [(s[:16], 0) for s in seqs if s.size >= 16][:17], adapters)
    assert calls == [(16, 16, False), (1, 16, False)]
    # each pass's members, tokens and mask are those of a row-by-row fill
    equal = [s[:16] for s in seqs if s.size >= 16][:17]
    for group in (seqs, equal, seqs[-8:], [seqs[0]]):
        passes = list(model._passes(group))
        assert [i for idx, _, _ in passes for i in idx.tolist()] == sorted(
            range(len(group)), key=lambda i: group[i].size)
        for idx, batch, valid in passes:
            sizes = [group[i].size for i in idx]
            rows = np.zeros((len(idx), max(sizes)), dtype=np.int64)
            for row, i in zip(rows, idx):
                row[:group[i].size] = group[i]
            assert batch.dtype == np.int64 and np.array_equal(batch, rows)
            if min(sizes) == max(sizes):
                assert valid is None
            else:
                assert np.array_equal(valid, np.arange(max(sizes)) < np.array(sizes)[:, None])


def test_a_pass_of_lengths_1_and_max_matches_single_sequences(small_setup, monkeypatch):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(12)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    batch = [(rng.integers(0, spec.vocab_size, size=1), 2),
             (rng.integers(0, spec.vocab_size, size=spec.max_seq_len), 1)]
    singles = [loss_and_grads(params, spec, [ex], adapters) for ex in batch]
    single_logits = [forward(params, spec, s, adapters) for s, _ in batch]
    calls = _count_passes(monkeypatch)
    loss, grads = loss_and_grads(params, spec, batch, adapters)
    logits = forward_batch(params, spec, [s for s, _ in batch], adapters)
    assert calls == [(2, spec.max_seq_len, True)] * 2
    assert np.max(np.abs(logits - np.stack(single_logits))) <= 1e-12
    assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
    for key, g in grads.items():
        expected = (singles[0][1][key] + singles[1][1][key]) / 2
        assert np.max(np.abs(g - expected)) <= 1e-12, key


def test_logits_do_not_depend_on_longer_pass_mates(small_setup, monkeypatch):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(13)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    short = rng.integers(0, spec.vocab_size, size=2)
    alone = forward(params, spec, short, adapters)
    calls = _count_passes(monkeypatch)
    for trial in range(4):
        mates = [rng.integers(0, spec.vocab_size, size=int(t))
                 for t in rng.integers(3, spec.max_seq_len + 1, size=trial + 1)]
        got = forward_batch(params, spec, [short] + mates, adapters)[0]
        assert np.max(np.abs(got - alone)) <= 1e-12
    assert len(calls) == 4 and all(masked for _, _, masked in calls)


def test_forward_batch_runs_each_distinct_sequence_once(small_setup, monkeypatch):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(15)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    long = np.array([5, 9, 0, 0])
    short = long[:2]  # equal to long once padded with token 0: the key needs the length
    other = rng.integers(0, spec.vocab_size, size=spec.max_seq_len)
    seqs = [long, short, other] + [rng.integers(0, spec.vocab_size, size=3)
                                   for _ in range(20)]
    seqs += [list(short), other.copy(), long, short]  # repeats, far from their first
    single = np.stack([forward(params, spec, s, adapters) for s in seqs])
    calls = _count_passes(monkeypatch)
    logits = forward_batch(params, spec, seqs, adapters)
    assert sum(rows for rows, _, _ in calls) == 23
    assert np.max(np.abs(logits - single)) <= 1e-12
    for first, repeat in ((1, -4), (2, -3), (0, -2), (1, -1)):
        assert np.array_equal(logits[first], logits[repeat])
    # every sequence is checked before any pass runs, repeated ones included
    calls.clear()
    bad = [0, spec.vocab_size]
    with pytest.raises(InputError, match="outside"):
        forward_batch(params, spec, [short, bad, long, short, bad], adapters)
    assert calls == []


def run_passes(params, spec, layers, seqs):
    plan = model._pass_plan(layers, spec)
    logits = np.empty((len(seqs), spec.n_classes))
    for idx, pass_toks, valid in model._passes(seqs):
        logits[idx], _ = model._forward_pass(params.weights, plan, spec, pass_toks,
                                             valid, False)
    return logits


@pytest.mark.parametrize("base", ["dense", "q4"])
def test_merged_inference_matches_the_factor_wise_layers(small_setup, monkeypatch, base):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(18)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    if base == "q4":
        params = quantize_base(params, spec, block_size=16)
    seqs = list({s.tobytes(): s for s in mixed_length_sequences(spec, seed=19)}.values())
    factor_wise = factor_wise_logits(params, spec, seqs, adapters)
    base_bytes = base_fingerprint(params)
    factor_bytes = {k: (ad.b_factor.tobytes(), ad.a_factor.tobytes())
                    for k, ad in adapters.items()}
    dequantized = []
    monkeypatch.setattr(quant, "dequantize_4bit",
                        lambda q: dequantized.append(q) or dequantize_4bit(q))
    logits = forward_batch(params, spec, seqs, adapters)
    assert np.max(np.abs(logits - factor_wise)) <= 1e-12
    # the merge runs on the dequantized copy: the base and the factors keep their bytes
    assert len(dequantized) == (13 if base == "q4" else 0)
    assert base_fingerprint(params) == base_bytes
    assert {k: (ad.b_factor.tobytes(), ad.a_factor.tobytes())
            for k, ad in adapters.items()} == factor_bytes


@pytest.mark.parametrize("base", ["dense", "q4"])
def test_merged_layers_match_the_factor_wise_reference(base):
    """Merged W' changes the order of the adapted layer's arithmetic, not its
    value: logits, loss and gradients stay within 1e-12 relative."""
    spec = ToyModelSpec(vocab_size=23, d_model=8, n_layers=2, n_heads=2, d_ff=12,
                        n_classes=3, max_seq_len=6, adapter_targets=LAYER_ROLES)
    params = init_model_params(spec, seed=7, profile="standard")
    if base == "q4":
        params = quantize_base(params, spec, block_size=16)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=11)
    rng = np.random.default_rng(20)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = mixed_length_sequences(spec, seed=21)
    logits = forward_batch(params, spec, seqs, adapters)
    assert max_relative_error(logits, factor_wise_logits(params, spec, seqs, adapters)) <= 1e-12
    batch = [(s, int(rng.integers(0, spec.n_classes))) for s in seqs[:40]]
    assert len({s.size for s, _ in batch}) > 1
    loss, grads = loss_and_grads(params, spec, batch, adapters)
    ref_loss, ref_grads = factor_wise_loss_and_grads(params, spec, batch, adapters)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    assert sorted(grads) == sorted(ref_grads) and len(grads) == 2 * 2 * len(LAYER_ROLES)
    for key in grads:
        assert max_relative_error(grads[key], ref_grads[key]) <= 1e-12, key


@pytest.mark.parametrize("base", ["dense", "q4"])
def test_batched_pass_matches_the_naive_per_sequence_attention(base):
    """Length-sorted passes, the padded-key mask and the key-major softmax
    give each sequence the logits and loss of a plain per-sequence, per-head
    row softmax, within 1e-12 relative."""
    spec = ToyModelSpec(vocab_size=23, d_model=8, n_layers=2, n_heads=2, d_ff=12,
                        n_classes=3, max_seq_len=6, adapter_targets=LAYER_ROLES)
    params = init_model_params(spec, seed=7, profile="standard")
    if base == "q4":
        params = quantize_base(params, spec, block_size=16)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=11)
    rng = np.random.default_rng(23)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = mixed_length_sequences(spec, seed=24)
    assert max_relative_error(forward_batch(params, spec, seqs, adapters),
                              naive_logits(params, spec, seqs, adapters)) <= 1e-12
    batch = [(s, int(rng.integers(0, spec.n_classes))) for s in seqs[:40]]
    assert len({s.size for s, _ in batch}) > 1
    loss, _ = loss_and_grads(params, spec, batch, adapters)
    ref = naive_loss(params, spec, batch, adapters)
    assert abs(loss - ref) <= 1e-12 * ref


def crit7_spec(targets=("attn_q", "attn_v")):
    return ToyModelSpec(vocab_size=64, d_model=32, n_layers=2, n_heads=4, d_ff=64,
                        n_classes=4, max_seq_len=16, adapter_targets=targets)


def ffn_spy(monkeypatch):
    """Record every FFN-layer forward and backward as ("forward", shape) or
    ("backward", name); at the criterion-07 widths (d_model 32, d_ff 64,
    4 classes) only ffn_up and ffn_down have a side of 64."""
    calls = []
    real_forward, real_backward = QLoraLinear.forward, QLoraLinear.backward

    def forward_spy(self, x):
        if 64 in self.weight.shape:
            calls.append(("forward", self.weight.shape))
        return real_forward(self, x)

    def backward_spy(self, dy, x, grads, name, need_dx=True):
        if ".ffn_" in name:
            calls.append(("backward", name))
        return real_backward(self, dy, x, grads, name, need_dx)

    monkeypatch.setattr(QLoraLinear, "forward", forward_spy)
    monkeypatch.setattr(QLoraLinear, "backward", backward_spy)
    return calls


def short_train(params, spec, adapters, batch):
    return train(batch, params, spec, adapters,
                 TrainConfig(rank=16, alpha=16.0, warmup_steps=1, seed=3))


@pytest.mark.parametrize("profile, base", [("adapter_friendly", "dense"),
                                           ("adapter_friendly", "q4"),
                                           ("standard", "dense")])
def test_a_zero_unadapted_ffn_down_skips_the_ffn_exactly(monkeypatch, profile, base):
    """adapter_friendly sets every ffn_down to exactly zero, so each block's
    FFN adds nothing: forward_batch, loss_and_grads and train run no FFN
    product, forward or backward, and the tape holds no ReLU output; logits
    and loss match the naive reference, which runs the FFN, within 1e-12
    relative. A standard base runs the FFN everywhere."""
    spec = crit7_spec()
    params = init_model_params(spec, seed=1, profile=profile)
    if base == "q4":
        params = quantize_base(params, spec)
    adapters = init_adapters(spec, rank=16, alpha=16.0, seed=2)
    rng = np.random.default_rng(26)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = mixed_length_sequences(spec, seed=27)[:48]
    batch = [(s, int(rng.integers(0, spec.n_classes))) for s in seqs]
    ref_logits = naive_logits(params, spec, seqs, adapters)
    ref_loss = naive_loss(params, spec, batch, adapters)
    calls, seen = ffn_spy(monkeypatch), {}
    assert max_relative_error(forward_batch(params, spec, seqs, adapters), ref_logits) <= 1e-12
    seen["forward_batch"] = set(calls)
    calls.clear()
    loss, _ = loss_and_grads(params, spec, batch, adapters)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    seen["loss_and_grads"] = set(calls)
    calls.clear()
    short_train(params, spec, adapters, batch[:16])
    seen["train"] = set(calls)
    plan = model._pass_plan(model.adapted_layers(params, spec, adapters), spec)
    toks = np.stack([t for t, _ in make_batch(spec, 2, seed=31)])
    _, tape = model._forward_pass(params.weights, plan, spec, toks, None, need_tape=True)
    runs = profile == "standard"
    ffn = {("forward", (32, 64)), ("forward", (64, 32))} if runs else set()
    back = {("backward", f"layers.{i}.{r}") for i in range(2) for r in ("ffn_up", "ffn_down")}
    both = ffn | back if runs else set()
    assert seen == {"forward_batch": ffn, "loss_and_grads": both, "train": both}
    assert all((entry[4] is not None) == runs for entry in tape)


def test_an_adapted_ffn_down_trains_from_its_zero_start(monkeypatch):
    """Targeting ffn_down on an adapter_friendly base makes its merged weight
    exactly zero at step 0 (a_factor starts at zero), yet the FFN runs: the
    adapter gets a gradient and its a_factor moves in a short train."""
    spec = crit7_spec(("attn_q", "attn_v", "ffn_down"))
    params = init_model_params(spec, seed=1)
    adapters = init_adapters(spec, rank=16, alpha=16.0, seed=2)
    layers = model.adapted_layers(params, spec, adapters)
    downs = [f"layers.{i}.ffn_down" for i in range(spec.n_layers)]
    assert not any(layers[name].weight.any() for name in downs)
    batch = make_batch(spec, 16, seed=28)
    _, grads = loss_and_grads(params, spec, batch, adapters)
    assert all(grads[name + "/a"].any() for name in downs)
    calls = ffn_spy(monkeypatch)
    result = short_train(params, spec, adapters, batch)
    assert ("backward", "layers.0.ffn_down") in calls
    assert all(result.adapters[name].a_factor.any() for name in downs)


def test_an_adapted_ffn_up_under_a_zero_ffn_down_gets_exactly_zero_gradients():
    """ffn_up's output reaches the residual stream only through ffn_down, so
    with an all-zero, unadapted ffn_down its factor gradients are exactly zero."""
    spec = crit7_spec(("attn_q", "attn_v", "ffn_up"))
    params = init_model_params(spec, seed=1)
    adapters = init_adapters(spec, rank=16, alpha=16.0, seed=2)
    rng = np.random.default_rng(29)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    _, grads = loss_and_grads(params, spec, make_batch(spec, 16, seed=30), adapters)
    for key, grad in grads.items():
        assert grad.any() == (".ffn_up/" not in key), key


@pytest.mark.parametrize("lengths", [(5, 5, 5), (1, 3, 6, 6, 2)], ids=["equal", "mixed"])
def test_attention_scores_reach_the_softmax_key_major(small_setup, monkeypatch, lengths):
    """Scores are built as C-contiguous (T_k, B, H, T_q) arrays and the
    softmax runs along axis 0, where it needs no copy; the only other
    softmax call is the loss's, over the (B, n_classes) logits."""
    spec, params, adapters, _ = small_setup
    calls = []

    def softmax_spy(z, axis=-1):
        calls.append((z.shape, z.flags.c_contiguous, axis))
        return softmax(z, axis=axis)

    monkeypatch.setattr(model, "softmax", softmax_spy)
    rng = np.random.default_rng(25)
    seqs = [rng.integers(0, spec.vocab_size, size=t) for t in lengths]
    b, t = len(lengths), max(lengths)
    forward_batch(params, spec, seqs, adapters)
    attention = [((t, b, spec.n_heads, t), True, 0)] * spec.n_layers
    assert calls == attention
    calls.clear()
    loss_and_grads(params, spec, [(s, i % spec.n_classes) for i, s in enumerate(seqs)],
                   adapters)
    assert calls == attention + [((b, spec.n_classes), True, -1)]


@pytest.mark.parametrize("lengths", [(5, 5, 5), (1, 3, 6, 6, 2)], ids=["equal", "mixed"])
def test_adapted_layers_see_only_row_matrices(small_setup, monkeypatch, lengths):
    """The pass keeps activations as (B*T, d) rows: every adapted-layer call
    of forward_batch and loss_and_grads takes and returns 2-D arrays. The
    tape keeps a layer's input rows only where backward reads them: x is
    None exactly for the layers without an adapter."""
    spec, params, adapters, _ = small_setup
    ndims = []
    real_forward, real_backward = QLoraLinear.forward, QLoraLinear.backward

    def forward_spy(self, x):
        y = real_forward(self, x)
        ndims.append((x.ndim, y.ndim))
        return y

    def backward_spy(self, dy, x, grads, name, need_dx=True):
        dx = real_backward(self, dy, x, grads, name, need_dx)
        assert (x is None) == (self.adapter is None), name
        ndims.append((dy.ndim,) + (() if x is None else (x.ndim,))
                     + (() if dx is None else (dx.ndim,)))
        return dx

    monkeypatch.setattr(QLoraLinear, "forward", forward_spy)
    monkeypatch.setattr(QLoraLinear, "backward", backward_spy)
    rng = np.random.default_rng(22)
    seqs = [rng.integers(0, spec.vocab_size, size=t) for t in lengths]
    forward_batch(params, spec, seqs, adapters)
    n_forward = len(ndims)
    loss_and_grads(params, spec, [(s, i % spec.n_classes) for i, s in enumerate(seqs)],
                   adapters)
    assert n_forward > 0 and len(ndims) > 2 * n_forward
    assert all(n == 2 for call in ndims for n in call)


@pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
def test_a_batch_raises_its_first_bad_sequences_error_before_any_pass(small_setup,
                                                                     monkeypatch, order):
    spec, params, adapters, _ = small_setup
    seqs = [[1, 2], [0] * (spec.max_seq_len + 1), [3, spec.vocab_size], []][::order]
    with pytest.raises(InputError) as first:
        for s in seqs:
            model._check_batch([s], spec)
    calls = _count_passes(monkeypatch)
    with pytest.raises(InputError) as batched:
        forward_batch(params, spec, seqs, adapters)
    assert str(batched.value) == str(first.value)
    with pytest.raises(InputError) as batched:
        loss_and_grads(params, spec, [(s, 0) for s in seqs], adapters)
    assert str(batched.value) == str(first.value)
    assert calls == []


@pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
def test_a_repeated_sequence_object_keeps_the_first_error_and_its_logits(
        small_setup, monkeypatch, order):
    """Repeats of one array object among bad sequences keep the batch's first
    error, and in a good batch every repeat gets the first one's logits."""
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(18)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    same = np.array([3, 1, 4, 1])
    seqs = [same, [2, spec.vocab_size], same, [0] * (spec.max_seq_len + 1), same][::order]
    with pytest.raises(InputError) as first:
        for s in seqs:
            model._check_batch([s], spec)
    calls = _count_passes(monkeypatch)
    with pytest.raises(InputError) as batched:
        forward_batch(params, spec, seqs, adapters)
    assert str(batched.value) == str(first.value) and calls == []
    logits = forward_batch(params, spec, [same, same.copy(), [5, 9], same, same], adapters)
    assert logits.shape == (5, spec.n_classes)
    assert all(np.array_equal(logits[0], logits[i]) for i in (1, 3, 4))
    assert np.array_equal(logits[[0, 2]], forward_batch(params, spec, [same, [5, 9]], adapters))


def test_forward_batch_of_a_2d_array_is_the_call_on_its_rows(small_setup):
    """Iterating an array makes a new row object each time, one at a time."""
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(19)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    arr = rng.integers(0, spec.vocab_size, size=(9, 5))
    arr[4] = arr[1]
    assert np.array_equal(forward_batch(params, spec, arr, adapters),
                          forward_batch(params, spec, list(arr), adapters))


def test_all_distinct_forward_batch_keeps_the_undeduplicated_arithmetic(small_setup):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(16)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    seqs = list({s.tobytes(): s for s in mixed_length_sequences(spec, seed=17)}.values())
    expected = run_passes(params, spec, model.adapted_layers(params, spec, adapters), seqs)
    assert np.array_equal(forward_batch(params, spec, seqs, adapters), expected)


def test_the_in_place_key_mask_and_one_pass_pool_keep_the_formulas_bits():
    """A padded pass sets padded keys' scores to -inf in place and mean-pools
    with one einsum. On random mixed-length inputs holding -0.0, the softmax
    of the masked scores and the pool are bit for bit those of a 0/-inf key
    bias (whose + 0.0 turns -0.0 into 0.0) and of sum(x * valid) / counts.
    That holds at every width d >= 2; at d == 1 einsum sums positions in
    another order, so the pool there agrees to rounding only."""
    rng = np.random.default_rng(33)
    for trial in range(300):
        b, t, h = (int(n) for n in rng.integers(1, [10, 30, 5]))
        d = 1 if trial % 10 == 0 else int(rng.integers(2, 70))
        lengths = rng.integers(1, t + 1, size=b)
        lengths[-1] = t
        valid = np.arange(t) < lengths[:, None]
        scores = rng.normal(size=(t, b, h, t)) * 10.0 ** rng.integers(-3, 3, (t, b, h, t))
        scores[rng.random(scores.shape) < 0.2] = -0.0
        masked = scores.copy()
        masked[~valid.T] = -np.inf
        biased = scores + np.where(valid.T, 0.0, -np.inf)[:, :, None, None]
        assert softmax(masked, axis=0).tobytes() == softmax(biased, axis=0).tobytes()
        x = rng.normal(size=(b, t, d)) * 10.0 ** rng.integers(-3, 3, (b, t, d))
        x[rng.random(x.shape) < 0.2] = -0.0
        counts = valid.sum(axis=1, keepdims=True)
        pooled = np.einsum("bt,btd->bd", valid.astype(float), x) / counts
        reference = np.sum(x * valid[:, :, None], axis=1) / counts
        if d > 1:
            assert pooled.tobytes() == reference.tobytes(), (b, t, d)
        else:
            assert np.allclose(pooled, reference, rtol=1e-12, atol=0.0)
        assert (np.add.reduce(x, axis=1) / t).tobytes() == x.mean(axis=1).tobytes()


class CountedAny(np.ndarray):
    """An array that counts its .any() calls."""
    calls = 0

    def any(self, *args, **kwargs):
        CountedAny.calls += 1
        return super().any(*args, **kwargs)


def test_block_facts_are_settled_once_per_call_and_per_run(monkeypatch):
    """train builds the pass plan once per run, forward_batch and
    loss_and_grads once per call. Each build reads every ffn_down with one
    .any() call, so no pass calls .any() on it."""
    from qlorakit import trainer

    spec = crit7_spec()
    params = init_model_params(spec, seed=1)  # adapter_friendly: every ffn_down is zero
    for i in range(spec.n_layers):
        params.weights[f"layers.{i}.ffn_down"] = params.weights[f"layers.{i}.ffn_down"].view(
            CountedAny)
    adapters = init_adapters(spec, rank=16, alpha=16.0, seed=2)
    rng = np.random.default_rng(34)
    batch = [(s, int(rng.integers(0, spec.n_classes)))
             for s in mixed_length_sequences(spec, seed=35)[:40]]
    builds, real = [], model._pass_plan

    def spy(layers, spec):
        builds.append(CountedAny.calls)
        return real(layers, spec)

    monkeypatch.setattr(model, "_pass_plan", spy)
    monkeypatch.setattr(trainer, "_pass_plan", spy)
    calls = _count_passes(monkeypatch)
    for run in (lambda: forward_batch(params, spec, [s for s, _ in batch], adapters),
                lambda: loss_and_grads(params, spec, batch, adapters),
                lambda: train(batch, params, spec, adapters,
                              TrainConfig(batch_size=8, epochs=2, warmup_steps=1, seed=3))):
        builds.clear()
        calls.clear()
        CountedAny.calls = 0
        run()
        assert builds == [0] and CountedAny.calls == spec.n_layers
        assert len(calls) > 1 and any(masked for _, _, masked in calls)


def test_padded_positions_carry_exactly_zero_gradient(small_setup):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(14)
    toks = [rng.integers(0, spec.vocab_size, size=t) for t in (2, 4, spec.max_seq_len)]
    [(_, pass_toks, valid)] = list(model._passes(toks))
    plan = model._pass_plan(model.adapted_layers(params, spec, adapters), spec)
    dlogits = rng.normal(size=(len(toks), spec.n_classes))
    results = []
    for pad_token in (0, 5):
        padded = np.where(valid, pass_toks, pad_token)
        logits, tape = model._forward_pass(params.weights, plan, spec, padded, valid, True)
        grads = {k + s: 0.0 for k in adapters for s in ("/b", "/a")}
        model._backward_pass(plan, spec, dlogits, padded.shape[1], valid, tape, grads)
        results.append((logits, grads))
    (logits0, grads0), (logits5, grads5) = results
    assert np.array_equal(logits0, logits5)
    assert all(np.array_equal(grads0[k], grads5[k]) for k in grads0)


_HEAP_PROBE = """
import ctypes, sys
import numpy as np

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
if sys.argv[1] == "model":
    import qlorakit.model
held = [np.ones(8192) for _ in range(64)]  # 64 KiB each: heap, not mmap
before = libc.mallinfo2().arena
del held
print(before - libc.mallinfo2().arena)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_importing_the_model_keeps_freed_heap():
    """Freed pass temporaries stay in the heap instead of going back to the
    kernel, so the next pass does not fault them in again."""
    import ctypes

    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("glibc before 2.33 has no mallinfo2")
    env = dict(os.environ, PYTHONPATH=str(Path(model.__file__).parents[1]))

    def returned_bytes(mode):
        out = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode], env=env,
                             capture_output=True, text=True, check=True)
        return int(out.stdout)

    assert returned_bytes("plain") > 2**20  # glibc's default trims the heap
    assert returned_bytes("model") == 0
    assert model.keep_freed_heap()


# (name, KB bound): a bound sits about 2.5% above the peak read when it was set
PASS_PEAKS = [("synthetic window 8 x 16", 720), ("corpus window 8 x 23-28", 1600),
              ("forward_batch 16 x 16", 860)]


@pytest.mark.parametrize("what, bound_kb", PASS_PEAKS, ids=[name for name, _ in PASS_PEAKS])
def test_a_pass_allocates_at_most_its_pinned_peak(what, bound_kb):
    """The tracemalloc peak of one pass on the default config's spec, with
    rank-16 adapters, layers and zeroed gradients built before tracing, read
    on the second of two calls; KB is 1,000 B."""
    import tracemalloc

    from qlorakit.config import load_config, model_spec_from
    from qlorakit.lora import flatten_adapters

    spec = model_spec_from(load_config())
    params = init_model_params(spec, 1)
    adapters = init_adapters(spec, 16, 16.0, 2)
    plan = model._pass_plan(model.adapted_layers(params, spec, adapters), spec)
    grads = {k: np.zeros_like(v) for k, v in flatten_adapters(adapters).items()}
    rng = np.random.default_rng(0)

    def examples(lengths):
        return model.check_examples([(rng.integers(0, spec.vocab_size, t), i % spec.n_classes)
                                     for i, t in enumerate(lengths)], spec)

    calls = {
        "synthetic window 8 x 16": (model.loss_and_grads_into, (
            params, spec, examples([16] * 8), plan, grads)),
        "corpus window 8 x 23-28": (model.loss_and_grads_into, (
            params, spec, examples([23, 24, 25, 26, 27, 28, 25, 27]), plan, grads)),
        "forward_batch 16 x 16": (forward_batch, (
            params, spec, [rng.integers(0, spec.vocab_size, 16) for _ in range(16)], adapters)),
    }
    call, args = calls[what]
    call(*args)  # warm-up
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1000 < bound_kb, f"{what}: {peak / 1000:.1f} KB"
