"""Toy-transformer tests: spec validation, forward contracts, the
adapter-friendly init, gradient coverage of every adapted role, base
freezing, and quantization of the base."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlorakit import model
from qlorakit.errors import ConfigError, InputError
from qlorakit.matrix import softmax
from qlorakit.model import (LAYER_ROLES, ROWS_PER_PASS, ModelParams, ToyModelSpec,
                            base_fingerprint, forward, forward_batch, init_adapters,
                            init_model_params, loss_and_grads, quantize_base)
from qlorakit.quant import Q4BlockMatrix, dequantize_4bit

from conftest import make_batch


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
    names = small_spec.param_names()
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
    with pytest.raises(InputError, match="max_seq_len"):
        forward(params, spec, [0] * (spec.max_seq_len + 1), adapters)
    with pytest.raises(InputError, match="outside"):
        forward(params, spec, [spec.vocab_size], adapters)


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
    for name in spec.param_names():
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
    params = init_model_params(spec, seed=5, profile="standard")
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=6)
    rng = np.random.default_rng(7)
    for ad in adapters.values():  # move off the zero init so grads flow everywhere
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    batch = make_batch(spec, 3, seed=8, seq_len=4)
    assert finite_difference_check(spec, params, adapters, batch) >= 80


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

    def spy(weights, layers, spec, toks, valid, need_tape):
        calls.append((toks.shape[0], toks.shape[1], valid is not None))
        return real(weights, layers, spec, toks, valid, need_tape)

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
    # a corpus-like window of 8 questions, 6 distinct lengths, runs in 2 passes
    calls.clear()
    loss_and_grads(params, spec, batch[-8:], adapters)
    assert [(rows, t) for rows, t, _ in calls] == [(5, 25), (3, 28)]
    # equal lengths run unmasked, as many per pass as fit
    calls.clear()
    loss_and_grads(params, spec, [(s[:16], 0) for s in seqs if s.size >= 16][:9], adapters)
    assert calls == [(8, 16, False), (1, 16, False)]


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


def test_padded_positions_carry_exactly_zero_gradient(small_setup):
    spec, params, adapters, _ = small_setup
    rng = np.random.default_rng(14)
    toks = [rng.integers(0, spec.vocab_size, size=t) for t in (2, 4, spec.max_seq_len)]
    [(_, pass_toks, valid)] = list(model._passes(toks))
    layers = model._layers(params, spec, adapters)
    dlogits = rng.normal(size=(len(toks), spec.n_classes))
    results = []
    for pad_token in (0, 5):
        padded = np.where(valid, pass_toks, pad_token)
        logits, tape = model._forward_pass(params.weights, layers, spec, padded, valid, True)
        grads = {k + s: 0.0 for k in adapters for s in ("/b", "/a")}
        model._backward_pass(layers, spec, dlogits, padded.shape[1], valid, tape, grads)
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
