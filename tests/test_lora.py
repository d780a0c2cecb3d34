"""Adapter tests: init, delta rank, merge equivalence, the adapted linear
layer over a 4-bit base, trainable-parameter accounting, and the
checkpoint format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.errors import ConfigError, InputError, ShapeError
from qlorakit.lora import (LoraAdapter, QLoraLinear, load_adapters, lora_delta,
                           lora_init, merge, qlora_forward, save_adapters)
from qlorakit.model import ToyModelSpec, init_adapters, init_model_params, loss_and_grads
from qlorakit.optim import TrainConfig
from qlorakit.quant import dequantize_4bit, q4_to_bytes, quantize_4bit
from qlorakit.trainer import train


def trained_adapter(d_in, d_out, r, alpha, seed):
    """Adapter with both factors populated, as after some training."""
    rng = np.random.default_rng(seed)
    return LoraAdapter(b_factor=rng.normal(0, 0.1, (d_in, r)),
                       a_factor=rng.normal(0, 0.1, (r, d_out)),
                       rank=r, alpha=alpha)


def test_init_shapes_and_zero_delta():
    ad = lora_init(64, 64, r=16, alpha=16.0, seed=0)
    assert ad.b_factor.shape == (64, 16)
    assert ad.a_factor.shape == (16, 64)
    assert not ad.a_factor.any()
    assert not lora_delta(ad).any()
    assert ad.scaling == 1.0


def test_init_is_seed_deterministic():
    a1 = lora_init(8, 6, r=2, alpha=4.0, seed=42)
    a2 = lora_init(8, 6, r=2, alpha=4.0, seed=42)
    assert np.array_equal(a1.b_factor, a2.b_factor)
    assert not np.array_equal(a1.b_factor, lora_init(8, 6, 2, 4.0, seed=43).b_factor)


def test_scalar_delta():
    ad = LoraAdapter(b_factor=[[2.0]], a_factor=[[3.0]], rank=1, alpha=1.0)
    assert lora_delta(ad).tolist() == [[6.0]]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_delta_rank_bounded_by_r(r, seed):
    ad = trained_adapter(12, 10, r, alpha=2.0 * r, seed=seed)
    assert np.linalg.matrix_rank(lora_delta(ad)) <= r


def test_rank_validation():
    with pytest.raises(ConfigError, match="rank"):
        lora_init(4, 8, r=5, alpha=1.0, seed=0)
    with pytest.raises(ConfigError):
        lora_init(4, 8, r=0, alpha=1.0, seed=0)
    with pytest.raises(ShapeError):
        LoraAdapter(b_factor=np.zeros((4, 2)), a_factor=np.zeros((3, 5)),
                    rank=2, alpha=1.0)


def test_merge_is_identity_at_init():
    w = np.random.default_rng(1).normal(size=(10, 7))
    assert np.array_equal(merge(w, lora_init(10, 7, 3, 6.0, seed=2)), w)


def test_merge_of_zero_base_is_the_delta():
    ad = trained_adapter(6, 5, 2, alpha=4.0, seed=9)
    assert np.array_equal(merge(np.zeros((6, 5)), ad), lora_delta(ad))


def test_merged_forward_equals_adapted_forward():
    rng = np.random.default_rng(17)
    w = rng.normal(size=(16, 12))
    ad = trained_adapter(16, 12, 4, alpha=8.0, seed=18)
    x = rng.normal(size=(5, 16))
    adapted = x @ w + ad.scaling * ((x @ ad.b_factor) @ ad.a_factor)
    assert np.max(np.abs(x @ merge(w, ad) - adapted)) <= 1e-10


def test_merge_shape_mismatch():
    with pytest.raises(ShapeError, match="does not match adapter"):
        merge(np.zeros((5, 5)), trained_adapter(6, 5, 2, 4.0, 0))


def test_qlora_forward_with_zero_adapter_equals_dequantized_product():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 8))
    layer = QLoraLinear(base=quantize_4bit(w, 4), adapter=lora_init(8, 8, 2, 4.0, 0))
    x = rng.normal(size=(3, 8))
    assert np.array_equal(qlora_forward(x, layer), x @ dequantize_4bit(layer.base))


def test_qlora_forward_matches_materialized_merge():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(12, 9))
    ad = trained_adapter(12, 9, 3, alpha=6.0, seed=5)
    layer = QLoraLinear(base=quantize_4bit(w, 8), adapter=ad)
    x = rng.normal(size=(4, 12))
    merged = dequantize_4bit(layer.base) + lora_delta(ad)
    assert np.max(np.abs(qlora_forward(x, layer) - x @ merged)) <= 1e-10


def test_qlora_forward_leaves_base_bytes_untouched():
    rng = np.random.default_rng(6)
    layer = QLoraLinear(base=quantize_4bit(rng.normal(size=(8, 8)), 4),
                        adapter=trained_adapter(8, 8, 2, 4.0, 7))
    before = q4_to_bytes(layer.base)
    for _ in range(5):
        qlora_forward(rng.normal(size=(2, 8)), layer)
    assert q4_to_bytes(layer.base) == before


def test_qlora_layer_shape_checks():
    base = quantize_4bit(np.ones((8, 8)), 4)
    with pytest.raises(ShapeError):
        QLoraLinear(base=base, adapter=lora_init(8, 9, 2, 4.0, 0))
    layer = QLoraLinear(base=base, adapter=lora_init(8, 8, 2, 4.0, 0))
    with pytest.raises(ShapeError, match="does not feed"):
        qlora_forward(np.ones((2, 9)), layer)


def one_step_summary(spec, rank, batch):
    """Run summary of one optimizer step over batch with fresh adapters."""
    params = init_model_params(spec, seed=0)
    adapters = init_adapters(spec, rank=rank, alpha=2.0 * rank, seed=1)
    cfg = TrainConfig(rank=rank, batch_size=len(batch), grad_accum_steps=1,
                      warmup_steps=0)
    return train(batch, params, spec, adapters, cfg).summary


def test_trainable_param_count_formula():
    one_64 = ToyModelSpec(vocab_size=4, d_model=64, n_layers=1, n_heads=1,
                          d_ff=8, n_classes=2, max_seq_len=4,
                          adapter_targets=("attn_q",))
    summary = one_step_summary(one_64, 16, [([1, 2], 0)])
    assert summary["trainable_params"] == 16 * (64 + 64) == 2048

    two_by_three = ToyModelSpec(vocab_size=4, d_model=2, n_layers=1, n_heads=1,
                                d_ff=3, n_classes=2, max_seq_len=4,
                                adapter_targets=("ffn_up",))
    assert one_step_summary(two_by_three, 1, [([1, 2], 0)])["trainable_params"] == 5
    with pytest.raises(ConfigError):
        init_adapters(two_by_three, rank=0, alpha=1.0, seed=0)


def test_trainable_count_matches_gradient_map(small_setup):
    spec, params, adapters, batch = small_setup
    _, grads = loss_and_grads(params, spec, batch, adapters)
    rank = next(iter(adapters.values())).rank
    summary = one_step_summary(spec, rank, batch)
    assert sum(g.size for g in grads.values()) == summary["trainable_params"]
    assert summary["total_base_params"] == spec.total_params()
    assert 0.0 < summary["trainable_percent"] < 100.0


def test_checkpoint_roundtrip(tmp_path):
    spec = ToyModelSpec(vocab_size=5, d_model=8, n_layers=2, n_heads=2,
                        d_ff=6, n_classes=3, max_seq_len=4)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=13)
    # make the state nontrivial
    for ad in adapters.values():
        ad.a_factor += np.random.default_rng(1).normal(size=ad.a_factor.shape)
    path = tmp_path / "adapters.bin"
    save_adapters(path, adapters, meta={"note": "test", "k": 3})
    loaded, meta = load_adapters(path)
    assert meta == {"note": "test", "k": 3}
    assert sorted(loaded) == sorted(adapters)
    for name, ad in adapters.items():
        assert np.array_equal(loaded[name].b_factor, ad.b_factor)
        assert np.array_equal(loaded[name].a_factor, ad.a_factor)
        assert loaded[name].rank == ad.rank
        assert loaded[name].alpha == ad.alpha


def test_checkpoint_bytes_deterministic(tmp_path):
    spec = ToyModelSpec(vocab_size=5, d_model=8, n_layers=1, n_heads=2,
                        d_ff=6, n_classes=3, max_seq_len=4)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=13)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_adapters(p1, adapters)
    save_adapters(p2, dict(reversed(list(adapters.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope")
    with pytest.raises(InputError, match="not an adapter checkpoint"):
        load_adapters(path)
    good = tmp_path / "good.bin"
    save_adapters(good, {"x": lora_init(4, 4, 2, 4.0, 0)})
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(InputError, match="trailing"):
        load_adapters(trailing)
    with pytest.raises(InputError):
        save_adapters(tmp_path / "empty.bin", {})
