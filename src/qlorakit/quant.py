"""Blockwise absmax quantization: 4-bit packed weights and 8-bit vectors.

Scheme, fixed across the package:
  - blocks are contiguous runs of block_size elements over the row-major
    flattening; the last block may be short
  - scale_b = absmax_b / top (top = 7 for 4-bit, 127 for 8-bit), stored
    as float32; scale_b = 0 when the block is all zeros
  - code_i = round-half-away-from-zero(w_i / scale_b), clamped to
    [-top, top]; code_i = 0 when scale_b = 0
  - 4-bit codes live in [-7, 7]; the -8 bit pattern is never produced
    and the Q4BlockMatrix constructor rejects it
  - dequantized value = code_i * scale_b, computed in float64

Serialized Q4 layout (little-endian):
  magic b"Q4BM" | u32 rows | u32 cols | u32 block_size |
  packed code bytes (two codes per byte, even index in the low nibble,
  ceil(n/2) bytes) | float32 scales (one per block)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError

Q4_MAGIC = b"Q4BM"
Q4_TOP = 7
Q8_TOP = 127
HEADER_BYTES = 16
DEFAULT_BLOCK_SIZE = 64


def _n_blocks(n: int, block_size: int) -> int:
    if block_size < 1:
        raise InputError(f"block_size must be >= 1, got {block_size}")
    return -(-n // block_size)


def q4_nbytes(n: int, block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[int, int]:
    """(code bytes, scale bytes) that n weights take in the Q4 layout:
    two codes per byte and one float32 scale per block."""
    return (n + 1) // 2, 4 * _n_blocks(n, block_size)


def _blocks(flat: np.ndarray, block_size: int) -> np.ndarray:
    """(n_blocks, block_size) view of flat when its length is a block
    multiple, else a copy zero-padded up to the next one."""
    n = flat.size
    nb = _n_blocks(n, block_size)
    if n == nb * block_size:
        return flat.reshape(nb, block_size)
    out = np.zeros((nb, block_size), dtype=flat.dtype)
    out.reshape(-1)[:n] = flat
    return out


def _absmax_quantize(flat: np.ndarray, block_size: int, top: int, work=None):
    """Shared absmax core; returns (codes int8, scales float32). A non-finite
    input or a scale beyond float32 is an InputError. `work`, a float64 array
    of the padded input's size other than the input, holds the magnitudes
    instead of a new array."""
    blocks = _blocks(flat, block_size)
    mag = np.abs(blocks, out=None if work is None else work.reshape(blocks.shape))
    # reduceat at the block starts runs about twice as fast as max(axis=1)
    absmax = np.maximum.reduceat(mag.reshape(-1), np.arange(0, mag.size, block_size))
    # an overflowing scale becomes inf here, without a numpy warning
    with np.errstate(over="ignore"):
        scales = (absmax / top).astype(np.float32)
    if not np.isfinite(scales).all():
        fault = ("a block scale overflows float32" if np.isfinite(absmax).all()
                 else "input must be finite")
        raise InputError(f"quantize_{4 if top == Q4_TOP else 8}bit: {fault}")
    # codes come from the float32 scale so |deq - w| <= scale/2 holds exactly
    # as stored; a zero scale (all-zero block, or absmax / top under float32's
    # least subnormal: every |w| < 1e-43) divides by 1 and gives code 0
    scale = scales.astype(np.float64)
    scale[scale == 0.0] = 1.0
    mag /= scale[:, None]
    # round half away from zero: floor(|r| + 0.5) (the cast truncates), signed
    mag += 0.5
    np.minimum(mag, float(top), out=mag)
    codes = mag.astype(np.int8)
    # where w < 0, -c = (c ^ -1) + 1 in two's complement
    neg = np.signbit(blocks).view(np.int8)
    np.negative(neg, out=neg)
    codes ^= neg
    codes -= neg
    return codes.reshape(-1)[:flat.size], scales


def _blockwise_dequantize(codes: np.ndarray, scales: np.ndarray, block_size: int,
                          out=None) -> np.ndarray:
    """Into out, a whole number of blocks long, if given."""
    deq = np.multiply(_blocks(codes, block_size), scales.astype(np.float64)[:, None],
                      out=None if out is None else out.reshape(-1, block_size))
    return deq.reshape(-1)[:codes.size]


def _validate_blockwise(codes: np.ndarray, scales: np.ndarray, block_size: int, top: int, what: str):
    nb = _n_blocks(codes.size, block_size)
    if scales.size != nb:
        raise InputError(f"{what}: {scales.size} scales for {nb} blocks")
    if not np.all(np.isfinite(scales)) or np.any(scales < 0):
        raise InputError(f"{what}: scales must be finite and >= 0")
    if codes.size and (codes.min() < -top or codes.max() > top):
        raise InputError(f"{what}: codes outside [-{top}, {top}]")
    if np.any((scales[:, None] == 0) & (_blocks(codes, block_size) != 0)):
        raise InputError(f"{what}: zero-scale block contains nonzero codes")


def pack_nibbles(codes) -> np.ndarray:
    """Pack signed 4-bit codes in [-7, 7] two per byte (even index low nibble)."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    if codes.size and (codes.min() < -Q4_TOP or codes.max() > Q4_TOP):
        raise InputError(f"codes must lie in [-{Q4_TOP}, {Q4_TOP}]")
    nib = (codes & 0xF).astype(np.uint8)
    if nib.size % 2:
        nib = np.concatenate([nib, np.zeros(1, dtype=np.uint8)])
    return (nib[0::2] | (nib[1::2] << 4)).astype(np.uint8)


def unpack_nibbles(packed, n_codes: int) -> np.ndarray:
    """Inverse of pack_nibbles; n_codes tells how many codes are real."""
    packed = np.asarray(packed, dtype=np.uint8).ravel()
    if packed.size != q4_nbytes(n_codes)[0]:
        raise InputError(
            f"packed length {packed.size} does not hold {n_codes} codes"
        )
    nib = np.empty(packed.size * 2, dtype=np.uint8)
    nib[0::2] = packed & 0xF
    nib[1::2] = packed >> 4
    nib = nib[:n_codes].astype(np.int16)
    return np.where(nib < 8, nib, nib - 16).astype(np.int8)


@dataclass(frozen=True)
class Q4BlockMatrix:
    """Bit-packed 4-bit weight codes plus per-block float32 scales."""

    rows: int
    cols: int
    block_size: int
    packed: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InputError(f"bad Q4 shape {self.rows}x{self.cols}")
        packed = np.ascontiguousarray(np.asarray(self.packed, dtype=np.uint8).ravel())
        scales = np.ascontiguousarray(np.asarray(self.scales, dtype=np.float32).ravel())
        codes = unpack_nibbles(packed, self.n_elements)
        _validate_blockwise(codes, scales, self.block_size, Q4_TOP, "Q4BlockMatrix")
        # frozen base contract: the arrays themselves are read-only
        packed.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "scales", scales)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def n_blocks(self) -> int:
        return _n_blocks(self.n_elements, self.block_size)

    def codes(self) -> np.ndarray:
        return unpack_nibbles(self.packed, self.n_elements)


@dataclass(frozen=True)
class Q8Vector:
    """8-bit signed codes in [-127, 127] plus per-block float32 scales."""

    length: int
    block_size: int
    codes: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if self.length < 0:
            raise InputError(f"bad Q8 length {self.length}")
        codes = np.ascontiguousarray(np.asarray(self.codes, dtype=np.int8).ravel())
        scales = np.ascontiguousarray(np.asarray(self.scales, dtype=np.float32).ravel())
        if codes.size != self.length:
            raise InputError(f"Q8Vector: {codes.size} codes for length {self.length}")
        _validate_blockwise(codes, scales, self.block_size, Q8_TOP, "Q8Vector")
        codes.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def _from_quantizer(cls, codes: np.ndarray, scales: np.ndarray,
                        block_size: int) -> "Q8Vector":
        """Wrap _absmax_quantize output, which is valid by construction."""
        codes.setflags(write=False)
        scales.setflags(write=False)
        q = object.__new__(cls)
        for name, value in (("length", codes.size), ("block_size", block_size),
                            ("codes", codes), ("scales", scales)):
            object.__setattr__(q, name, value)
        return q


def quantize_4bit(w, block_size: int = DEFAULT_BLOCK_SIZE) -> Q4BlockMatrix:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise InputError(f"quantize_4bit expects a matrix, got ndim={w.ndim}")
    codes, scales = _absmax_quantize(w.ravel(), block_size, Q4_TOP)
    return Q4BlockMatrix(
        rows=w.shape[0],
        cols=w.shape[1],
        block_size=block_size,
        packed=pack_nibbles(codes),
        scales=scales,
    )


def dequantize_4bit(q: Q4BlockMatrix) -> np.ndarray:
    flat = _blockwise_dequantize(q.codes(), q.scales, q.block_size)
    return np.ascontiguousarray(flat.reshape(q.rows, q.cols))


def quantize_8bit(v, block_size: int = DEFAULT_BLOCK_SIZE, work=None) -> Q8Vector:
    v = np.asarray(v, dtype=np.float64).ravel()
    codes, scales = _absmax_quantize(v, block_size, Q8_TOP, work)
    return Q8Vector._from_quantizer(codes, scales, block_size)


def dequantize_8bit(q: Q8Vector, out=None) -> np.ndarray:
    return _blockwise_dequantize(q.codes, q.scales, q.block_size, out)


def footprint_report(q: Q4BlockMatrix) -> dict:
    """Byte accounting vs dense 32-bit storage of the same matrix."""
    code_bytes, scale_bytes = q4_nbytes(q.n_elements, q.block_size)
    total = HEADER_BYTES + code_bytes + scale_bytes
    dense_bytes = 4 * q.n_elements
    return {
        "rows": q.rows,
        "cols": q.cols,
        "block_size": q.block_size,
        "n_blocks": q.n_blocks,
        "code_bytes": code_bytes,
        "scale_bytes": scale_bytes,
        "header_bytes": HEADER_BYTES,
        "total_bytes": total,
        "dense_bytes": dense_bytes,
        "payload_ratio": dense_bytes / (code_bytes + scale_bytes),
        "total_ratio": dense_bytes / total,
    }


def q4_to_bytes(q: Q4BlockMatrix) -> bytes:
    header = Q4_MAGIC + struct.pack("<III", q.rows, q.cols, q.block_size)
    return header + q.packed.tobytes() + q.scales.astype("<f4").tobytes()
