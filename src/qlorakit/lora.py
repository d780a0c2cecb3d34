"""Low-rank adapters: init, delta, merge, the adapted linear layer over a
dense or 4-bit base, and the adapter checkpoint format.

Conventions, fixed across the package:
  - an adapter for a d_in x d_out base matrix holds b_factor (d_in x r,
    applied to the input first) and a_factor (r x d_out, applied second)
  - the weight update is delta = (alpha / r) * b_factor @ a_factor;
    some write-ups print the factor letters in the opposite order, but
    the declared shapes only compose this way
  - b_factor is drawn from Gaussian(0, 0.02^2); a_factor starts at zero,
    so the adapted function equals the base function at initialization

Checkpoint layout (little-endian):
  magic b"LAD1" | u32 version | u32 n_adapters | u32 meta_len |
  meta JSON utf-8 | then per adapter, sorted by name:
    u32 name_len | name utf-8 | u32 d_in | u32 d_out | u32 rank |
    f64 alpha | f64 b_factor (d_in*r row-major) | f64 a_factor (r*d_out)
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import quant
from .errors import ConfigError, InputError, ShapeError
from .fileio import atomic_write
from .matrix import Matrix, as_matrix
from .quant import Q4BlockMatrix

LORA_MAGIC = b"LAD1"
LORA_VERSION = 1
INIT_STD = 0.02


@dataclass
class LoraAdapter:
    """Trainable factor pair for one frozen base matrix."""

    b_factor: np.ndarray
    a_factor: np.ndarray
    rank: int
    alpha: float

    def __post_init__(self):
        self.b_factor = as_matrix(self.b_factor, "b_factor")
        self.a_factor = as_matrix(self.a_factor, "a_factor")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        d_in, r_b = self.b_factor.shape
        r_a, d_out = self.a_factor.shape
        if r_b != self.rank or r_a != self.rank:
            raise ShapeError(
                f"factor shapes {self.b_factor.shape} and {self.a_factor.shape} "
                f"do not carry rank {self.rank}"
            )
        if self.rank > min(d_in, d_out):
            raise ConfigError(
                f"rank {self.rank} exceeds min(d_in, d_out) = {min(d_in, d_out)}"
            )

    @property
    def d_in(self) -> int:
        return self.b_factor.shape[0]

    @property
    def d_out(self) -> int:
        return self.a_factor.shape[1]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def lora_init(d_in: int, d_out: int, r: int, alpha: float, seed: int) -> LoraAdapter:
    """Seeded adapter init; the delta is exactly zero until training moves a_factor."""
    if r < 1 or r > min(d_in, d_out):
        raise ConfigError(
            f"rank {r} must satisfy 1 <= r <= min({d_in}, {d_out})"
        )
    rng = np.random.default_rng(seed)
    b = rng.normal(0.0, INIT_STD, size=(d_in, r))
    a = np.zeros((r, d_out), dtype=np.float64)
    return LoraAdapter(b_factor=b, a_factor=a, rank=r, alpha=alpha)


def lora_delta(adapter: LoraAdapter) -> Matrix:
    return adapter.scaling * (adapter.b_factor @ adapter.a_factor)


def merge(w: Matrix, adapter: LoraAdapter) -> Matrix:
    """W' = W + delta; W itself is left untouched."""
    w = as_matrix(w, "base weight")
    if w.shape != (adapter.d_in, adapter.d_out):
        raise ShapeError(
            f"base {w.shape[0]}x{w.shape[1]} does not match adapter "
            f"{adapter.d_in}x{adapter.d_out}"
        )
    return w + lora_delta(adapter)


@dataclass
class QLoraLinear:
    """y = x @ W + scaling * (x @ B) @ A over a frozen base W.

    The base is a dense matrix (LoRA) or a Q4BlockMatrix (QLoRA); a 4-bit
    base is dequantized once, when the layer is built, into `weight`.
    Without an adapter the layer is the plain base product. The low-rank
    branch stays factor-wise; the d_in x d_out delta is never materialized.
    """

    base: np.ndarray | Q4BlockMatrix
    adapter: LoraAdapter | None = None
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = (quant.dequantize_4bit(self.base) if isinstance(self.base, Q4BlockMatrix)
             else self.base)
        ad = self.adapter
        if ad is not None and w.shape != (ad.d_in, ad.d_out):
            raise ShapeError(
                f"base {w.shape[0]}x{w.shape[1]} does not match "
                f"adapter {ad.d_in}x{ad.d_out}"
            )
        self.weight = w

    def forward(self, x):
        """y for x of shape (..., d_in), plus the cache backward needs
        (None without an adapter). Leading axes run as one matrix product."""
        x2 = x.reshape(-1, x.shape[-1])
        y = x2 @ self.weight
        ad = self.adapter
        cache = None
        if ad is not None:
            u = x2 @ ad.b_factor
            y = y + ad.scaling * (u @ ad.a_factor)
            cache = (x2, u)
        return y.reshape(*x.shape[:-1], y.shape[-1]), cache

    def backward(self, dy, cache, grads, name: str):
        """dx for upstream; adds the factor gradients, summed over every
        leading axis, into grads[name + "/a" | "/b"]."""
        dy2 = dy.reshape(-1, dy.shape[-1])
        dx = dy2 @ self.weight.T
        ad = self.adapter
        if ad is not None:
            x2, u = cache
            s = ad.scaling
            grads[name + "/a"] += s * (u.T @ dy2)
            t = dy2 @ ad.a_factor.T
            grads[name + "/b"] += s * (x2.T @ t)
            dx = dx + s * (t @ ad.b_factor.T)
        return dx.reshape(*dy.shape[:-1], dx.shape[-1])


def qlora_forward(x: Matrix, layer: QLoraLinear) -> Matrix:
    """Shape-checked layer.forward for one input matrix."""
    x = as_matrix(x, "input")
    d_in, d_out = layer.weight.shape
    if x.shape[1] != d_in:
        raise ShapeError(
            f"input {x.shape[0]}x{x.shape[1]} does not feed a {d_in}x{d_out} layer"
        )
    return layer.forward(x)[0]


# ---- checkpoint io ----

def save_adapters(path, adapters: Mapping[str, LoraAdapter], meta: dict | None = None) -> None:
    if not adapters:
        raise InputError("no adapters to save")
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    parts = [
        LORA_MAGIC,
        struct.pack("<III", LORA_VERSION, len(adapters), len(meta_blob)),
        meta_blob,
    ]
    for name in sorted(adapters):
        ad = adapters[name]
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<IIId", ad.d_in, ad.d_out, ad.rank, ad.alpha))
        parts.append(np.ascontiguousarray(ad.b_factor, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(ad.a_factor, dtype="<f8").tobytes())
    with atomic_write(path, binary=True) as fh:
        fh.write(b"".join(parts))


def load_adapters(path) -> tuple[dict[str, LoraAdapter], dict]:
    """Inverse of save_adapters; any malformed byte stream raises InputError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16 or buf[:4] != LORA_MAGIC:
        raise InputError(f"{path}: not an adapter checkpoint")
    version, count, meta_len = struct.unpack("<III", buf[4:16])
    if version != LORA_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    off = 16

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if n > len(buf) - off:
            raise InputError(f"truncated in {what} at byte {off}")
        off += n
        return buf[off - n:off]

    adapters: dict[str, LoraAdapter] = {}
    try:  # any decode failure: a ValueError (truncation, UTF-8, JSON, fields), or deep JSON
        meta = json.loads(take(meta_len, "meta").decode("utf-8"))
        if not isinstance(meta, dict):
            raise InputError("meta is not a JSON object")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "adapter name length"))
            name = take(name_len, "adapter name").decode("utf-8")
            d_in, d_out, rank, alpha = struct.unpack("<IIId", take(20, f"adapter {name!r}"))
            b = np.frombuffer(take(8 * d_in * rank, f"{name!r} b_factor"), dtype="<f8")
            a = np.frombuffer(take(8 * rank * d_out, f"{name!r} a_factor"), dtype="<f8")
            adapters[name] = LoraAdapter(b_factor=b.reshape(d_in, rank).copy(),
                                         a_factor=a.reshape(rank, d_out).copy(),
                                         rank=rank, alpha=alpha)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: bad adapter checkpoint: {exc}") from exc
    if off != len(buf):
        raise InputError(f"{path}: {len(buf) - off} trailing bytes")
    return adapters, meta
