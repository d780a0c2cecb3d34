"""Quantization tests: the absmax rule, rounding, the error bound, nibble
packing, serialization, footprint accounting, and the 8-bit vector path."""

import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.errors import InputError
from qlorakit.optim import OptimizerState, TrainConfig
from qlorakit.quant import (HEADER_BYTES, Q4_MAGIC, Q4_TOP, Q8_TOP, Q4BlockMatrix,
                            _absmax_quantize, _blockwise_dequantize,
                            Q8Vector, dequantize_4bit, dequantize_8bit,
                            footprint_report, pack_nibbles, q4_nbytes,
                            q4_to_bytes, quantize_4bit, quantize_8bit,
                            unpack_nibbles)

from conftest import round_half_away


def test_round_half_away_tie_handling():
    """A block whose absmax is top has scale 1, so its codes are its
    values rounded: ties go away from zero at both widths."""
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 2.4, -2.6])
    want = [1, -1, 2, -2, 3, 2, -3]
    assert np.array_equal(round_half_away(x), want)
    for top in (Q4_TOP, Q8_TOP):
        codes, scales = _absmax_quantize(np.append(x, -top), x.size + 1, top)
        assert scales.tolist() == [1.0] and codes.tolist() == want + [-top]
    # np.round would give 0, 0, 2, -2, 2 on the first five
    assert not np.array_equal(np.round(x[:5]), want[:5])


def test_hand_block_example():
    q = quantize_4bit(np.array([[1.0, -2.0, 3.5, 0.5]]), block_size=4)
    assert q.scales.tolist() == [0.5]
    assert q.codes().tolist() == [2, -4, 7, 1]
    assert dequantize_4bit(q).tolist() == [[1.0, -2.0, 3.5, 0.5]]


def test_zero_matrix_has_zero_scales_and_codes():
    q = quantize_4bit(np.zeros((3, 5)), block_size=4)
    assert not q.scales.any()
    assert not q.codes().any()
    assert not dequantize_4bit(q).any()


def test_constant_block_round_trips_exactly():
    for c in (0.3, 1.0, 7.0, 1e-5):
        q = quantize_4bit(np.full((2, 8), c), block_size=16)
        assert np.all(q.codes() == Q4_TOP)
        assert np.float32(c / 7) == q.scales[0]
        assert np.array_equal(dequantize_4bit(q), np.full((2, 8), np.float64(q.scales[0]) * 7))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 20), st.integers(1, 70),
       st.sampled_from(["normal", "uniform", "cauchy"]), st.integers(0, 10_000))
def test_roundtrip_error_within_half_scale(rows, cols, block, dist, seed):
    rng = np.random.default_rng(seed)
    if dist == "normal":
        w = rng.normal(size=(rows, cols))
    elif dist == "uniform":
        w = rng.uniform(-3, 3, size=(rows, cols))
    else:
        w = rng.standard_cauchy(size=(rows, cols))
    q = quantize_4bit(w, block_size=block)
    err = np.abs(dequantize_4bit(q) - w).ravel()
    per_elem = np.repeat(q.scales.astype(np.float64), block)[: w.size]
    assert np.all(err <= per_elem / 2 + 1e-12)
    codes = q.codes()
    assert codes.min() >= -Q4_TOP and codes.max() <= Q4_TOP


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-7, 7), min_size=0, max_size=129))
def test_pack_unpack_nibbles_roundtrip(codes):
    packed = pack_nibbles(codes)
    assert len(packed) == (len(codes) + 1) // 2
    assert unpack_nibbles(packed, len(codes)).tolist() == codes


def test_pack_rejects_out_of_range_and_unpack_checks_length():
    with pytest.raises(InputError):
        pack_nibbles([8])
    with pytest.raises(InputError):
        pack_nibbles([-8])
    with pytest.raises(InputError, match="does not hold"):
        unpack_nibbles(np.zeros(3, dtype=np.uint8), 10)


def test_serialization_roundtrip_and_header():
    w = np.random.default_rng(5).normal(size=(9, 13))
    q = quantize_4bit(w, block_size=16)
    blob = q4_to_bytes(q)
    assert blob[:4] == Q4_MAGIC
    assert struct.unpack("<III", blob[4:16]) == (9, 13, 16)
    assert len(blob) == footprint_report(q)["total_bytes"]


def test_deserialization_rejects_minus_eight_code():
    # the constructor refuses a packed stream whose single code is the forbidden -8 pattern
    with pytest.raises(InputError, match=r"codes outside \[-7, 7\]"):
        Q4BlockMatrix(rows=1, cols=1, block_size=4, packed=[0x08], scales=[1.0])


def test_zero_scale_block_with_nonzero_code_rejected():
    with pytest.raises(InputError, match="zero-scale"):
        Q4BlockMatrix(rows=1, cols=1, block_size=4, packed=[0x01], scales=[0.0])


def test_memory_footprint_formula():
    q = quantize_4bit(np.random.default_rng(0).normal(size=(64, 64)), block_size=64)
    rep = footprint_report(q)
    assert rep["total_bytes"] == HEADER_BYTES + 2048 + 64 * 4 == 2320
    assert rep["code_bytes"] == 2048 and rep["scale_bytes"] == 256
    assert rep["dense_bytes"] == 16384
    assert rep["payload_ratio"] == pytest.approx(16384 / 2304)
    assert rep["total_ratio"] == pytest.approx(16384 / 2320)

    tiny = quantize_4bit(np.ones((1, 1)), block_size=64)
    assert footprint_report(tiny)["total_bytes"] == HEADER_BYTES + 1 + 4 == 21


@pytest.mark.parametrize("rows, cols, block", [
    (64, 64, 64),  # whole blocks, even count
    (7, 9, 8),     # odd count, short last block
    (3, 5, 4),     # odd count, short last block
    (5, 13, 16),   # odd count, short last block
    (2, 6, 12),    # one whole block
    (1, 1, 64),    # one weight in a mostly empty block
])
def test_q4_nbytes_matches_the_quantized_arrays(rows, cols, block):
    q = quantize_4bit(np.random.default_rng(rows * cols).normal(size=(rows, cols)), block)
    code_bytes, scale_bytes = q4_nbytes(rows * cols, block)
    assert (code_bytes, scale_bytes) == (q.packed.nbytes, q.scales.nbytes)
    assert len(q4_to_bytes(q)) == HEADER_BYTES + code_bytes + scale_bytes


def test_quantize_input_validation():
    with pytest.raises(InputError, match="ndim"):
        quantize_4bit(np.zeros(4))
    with pytest.raises(InputError, match="finite"):
        quantize_4bit(np.array([[np.inf]]))
    with pytest.raises(InputError, match="block_size"):
        quantize_4bit(np.zeros((2, 2)), block_size=0)
    for block in (0, -3):
        with pytest.raises(InputError, match="block_size"):
            q4_nbytes(100, block)
        with pytest.raises(InputError, match="block_size"):
            quantize_8bit(np.ones(4), block)
        # one owner, _n_blocks, refuses it for the constructors and the optimizer state too
        with pytest.raises(InputError, match="block_size must be >= 1"):
            Q4BlockMatrix(rows=2, cols=2, block_size=block, packed=np.zeros(2), scales=[0.0])
        with pytest.raises(InputError, match="block_size must be >= 1"):
            Q8Vector(length=4, block_size=block, codes=np.zeros(4), scales=[0.0])
        for bits in (8, 32):
            with pytest.raises(InputError, match="block_size must be >= 1"):
                OptimizerState.for_params({"w": np.zeros(3)}, TrainConfig(state_bits=bits), block)


def test_q4_matrix_is_frozen_and_read_only():
    q = quantize_4bit(np.ones((2, 2)), block_size=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.rows = 3
    with pytest.raises(ValueError):
        q.packed[0] = 0
    with pytest.raises(ValueError):
        q.scales[0] = 0.0


def test_8bit_constant_and_zero_vectors():
    q = quantize_8bit(np.full(10, 2.54), block_size=4)
    assert np.all(q.codes == Q8_TOP)
    assert np.array_equal(dequantize_8bit(q), np.float64(np.float32(2.54 / 127)) * 127 * np.ones(10))
    z = quantize_8bit(np.zeros(7), block_size=3)
    assert not z.codes.any() and not z.scales.any()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 70), st.integers(0, 10_000))
def test_8bit_roundtrip_error_within_half_scale(n, block, seed):
    v = np.random.default_rng(seed).normal(size=n)
    q = quantize_8bit(v, block_size=block)
    per_elem = np.repeat(q.scales.astype(np.float64), block)[:n]
    assert np.all(np.abs(dequantize_8bit(q) - v) <= per_elem / 2 + 1e-12)


def test_q8_vector_validation():
    with pytest.raises(InputError, match="codes for length"):
        Q8Vector(length=3, block_size=4, codes=np.zeros(2, dtype=np.int8),
                 scales=np.zeros(1, dtype=np.float32))
    with pytest.raises(InputError, match="scales"):
        Q8Vector(length=2, block_size=2, codes=np.zeros(2, dtype=np.int8),
                 scales=np.zeros(2, dtype=np.float32))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.sampled_from([0.0, 1e-40, 1.0, 1e30]),
       st.integers(1, 128), st.integers(0, 10_000))
def test_quantize_8bit_output_passes_full_validation(n, magnitude, block, seed):
    v = np.random.default_rng(seed).normal(size=n) * magnitude
    q = quantize_8bit(v, block_size=block)
    full = Q8Vector(length=q.length, block_size=q.block_size, codes=q.codes,
                    scales=q.scales)
    assert (q.length, q.block_size) == (full.length, full.block_size) == (n, block)
    for got, want in ((q.codes, full.codes), (q.scales, full.scales)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


def test_quantize_8bit_rejects_a_scale_that_overflows_float32():
    # rejected with InputError alone: no numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="float32"):
            quantize_8bit([1e300, 1.0])
        with pytest.raises(InputError, match="float32"):
            quantize_8bit([-1e300, 0.0, 2.0], block_size=1)
        # the largest scale float32 holds still quantizes
        q = quantize_8bit([127.0 * float(np.finfo(np.float32).max)])
        assert np.isfinite(q.scales).all()


def _repeat_reference(flat, block_size, top):
    """The per-element formulation: pad into a fresh buffer, expand every
    scale with np.repeat. Codes, scales and dequantized values must match
    the block-view kernels bit for bit."""
    n = flat.size
    nb = -(-n // block_size)
    padded = np.zeros(nb * block_size)
    padded[:n] = flat
    scales = (np.max(np.abs(padded.reshape(nb, block_size)), axis=1) / top).astype(np.float32)
    per_elem = np.repeat(scales.astype(np.float64), block_size)[:n]
    safe = np.where(per_elem > 0.0, per_elem, 1.0)
    ratio = np.where(per_elem > 0.0, flat / safe, 0.0)
    codes = np.clip(round_half_away(ratio), -top, top).astype(np.int8)
    return codes, scales, codes.astype(np.float64) * per_elem


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 300), st.integers(1, 70), st.sampled_from([Q4_TOP, Q8_TOP]),
       st.sampled_from([0.0, 1e-300, 1.0, 1e30]), st.integers(0, 10_000))
def test_block_view_kernels_match_the_per_element_reference(n, block, top, magnitude, seed):
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=n) * magnitude
    flat[rng.random(n) < 0.2] = 0.0  # whole zero blocks at small block sizes
    codes, scales = _absmax_quantize(flat, block, top)
    ref_codes, ref_scales, ref_deq = _repeat_reference(flat, block, top)
    assert codes.dtype == np.int8 and np.array_equal(codes, ref_codes)
    assert scales.dtype == np.float32 and np.array_equal(scales, ref_scales)
    deq = _blockwise_dequantize(codes, scales, block)
    assert deq.shape == (n,) and np.array_equal(deq, ref_deq)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 70), st.sampled_from([Q4_TOP, Q8_TOP]),
       st.sampled_from([1e-37, 1e-40, 1e-43, 1e-44, 5e-45]), st.integers(0, 10_000))
def test_subnormal_float32_scales_match_the_per_element_reference(n, block, top, magnitude,
                                                                  seed):
    """absmax / top below float32's normal range: the scale rounds coarsely
    (codes then reach the clamp) or to zero; codes and scales still match."""
    flat = np.random.default_rng(seed).normal(size=n) * magnitude
    codes, scales = _absmax_quantize(flat, block, top)
    ref_codes, ref_scales, _ = _repeat_reference(flat, block, top)
    assert np.array_equal(codes, ref_codes) and np.array_equal(scales, ref_scales)
