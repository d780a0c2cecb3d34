"""Fixed-topology toy transformer classifier with manual reverse-mode gradients.

Topology: token embedding + positional embedding, then n_layers blocks of
(multi-head attention, FFN with ReLU), both with residual connections and
no normalization layers, then mean-pool over positions and a linear head.
Sequences of mixed lengths run padded in one batch: padded key positions
are masked out of attention and pooling, so each sequence's logits and
gradients are those of the sequence alone.

The base weights are always frozen; gradients exist only for low-rank
adapter factors attached to a configurable subset of the projection
matrices. Everything is float64 so finite-difference checks are sharp.

Weight naming: "tok_emb", "pos_emb", "layers.{i}.attn_q|attn_k|attn_v|
attn_o|ffn_up|ffn_down", "head". Adapter gradient keys append "/b" and
"/a" to the weight name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import quant
from .errors import ConfigError, InputError
from .lora import LoraAdapter, QLoraLinear, lora_init
from .matrix import softmax
from .quant import DEFAULT_BLOCK_SIZE, Q4BlockMatrix, q4_to_bytes, quantize_4bit

LAYER_ROLES = ("attn_q", "attn_k", "attn_v", "attn_o", "ffn_up", "ffn_down")
INIT_PROFILES = ("standard", "adapter_friendly")
# matrix-product weights, each run through one QLoraLinear and quantized by
# the 4-bit path; embeddings are lookups and stay dense
QUANTIZED_ROLES = LAYER_ROLES + ("head",)


@dataclass(frozen=True)
class ToyModelSpec:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    n_classes: int
    max_seq_len: int
    adapter_targets: tuple[str, ...] = ("attn_q", "attn_v")

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                     "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        targets = tuple(self.adapter_targets)
        if not targets:
            raise ConfigError("adapter_targets must be non-empty")
        for role in targets:
            if role not in LAYER_ROLES:
                raise ConfigError(
                    f"unknown adapter target {role!r}; choose from {LAYER_ROLES}"
                )
        if len(set(targets)) != len(targets):
            raise ConfigError("adapter_targets contains duplicates")
        object.__setattr__(self, "adapter_targets", targets)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def role_shape(self, role: str) -> tuple[int, int]:
        if role in ("attn_q", "attn_k", "attn_v", "attn_o"):
            return (self.d_model, self.d_model)
        if role == "ffn_up":
            return (self.d_model, self.d_ff)
        if role == "ffn_down":
            return (self.d_ff, self.d_model)
        raise ConfigError(f"unknown per-layer role {role!r}")

    def param_names(self) -> list[str]:
        names = ["tok_emb", "pos_emb"]
        for i in range(self.n_layers):
            names.extend(f"layers.{i}.{role}" for role in LAYER_ROLES)
        names.append("head")
        return names

    def param_shape(self, name: str) -> tuple[int, int]:
        if name == "tok_emb":
            return (self.vocab_size, self.d_model)
        if name == "pos_emb":
            return (self.max_seq_len, self.d_model)
        if name == "head":
            return (self.d_model, self.n_classes)
        _, _, role = name.split(".")
        return self.role_shape(role)

    def total_params(self) -> int:
        return sum(r * c for r, c in (self.param_shape(n) for n in self.param_names()))

    def adapter_names(self) -> list[str]:
        return [
            f"layers.{i}.{role}"
            for i in range(self.n_layers)
            for role in self.adapter_targets
        ]


@dataclass
class ModelParams:
    """Named frozen weight map. Entries are dense float64 arrays or
    Q4BlockMatrix; only adapters ever train."""

    weights: dict


def init_model_params(spec: ToyModelSpec, seed: int,
                      profile: str = "adapter_friendly") -> ModelParams:
    """Seeded base init.

    "standard": dense Gaussian fan-in scaling everywhere.
    "adapter_friendly": embeddings write only the first d_model//2 residual
    channels, the head reads only the remaining channels, and the value /
    FFN-down projections start at zero. The frozen base then emits exactly
    zero logits (initial loss is exactly ln n_classes) and the adapters own
    the writable subspace; at small learning rates over short runs this is
    what lets adapter-only training move the classifier at all.
    """
    if profile not in INIT_PROFILES:
        raise ConfigError(f"unknown init profile {profile!r}; choose from {INIT_PROFILES}")
    rng = np.random.default_rng(seed)
    d = spec.d_model
    half = d // 2
    w: dict[str, np.ndarray] = {}
    if profile == "standard":
        w["tok_emb"] = rng.normal(0.0, 1.0, (spec.vocab_size, d))
        w["pos_emb"] = rng.normal(0.0, 0.02, (spec.max_seq_len, d))
        for i in range(spec.n_layers):
            for role in ("attn_q", "attn_k", "attn_v", "attn_o"):
                w[f"layers.{i}.{role}"] = rng.normal(0.0, d ** -0.5, (d, d))
            w[f"layers.{i}.ffn_up"] = rng.normal(0.0, d ** -0.5, (d, spec.d_ff))
            w[f"layers.{i}.ffn_down"] = rng.normal(0.0, spec.d_ff ** -0.5, (spec.d_ff, d))
        w["head"] = rng.normal(0.0, d ** -0.5, (d, spec.n_classes))
    else:
        tok = np.zeros((spec.vocab_size, d))
        tok[:, :half] = rng.normal(0.0, 8.0, (spec.vocab_size, half))
        w["tok_emb"] = tok
        pos = np.zeros((spec.max_seq_len, d))
        pos[:, :half] = rng.normal(0.0, 0.5, (spec.max_seq_len, half))
        w["pos_emb"] = pos
        for i in range(spec.n_layers):
            w[f"layers.{i}.attn_q"] = rng.normal(0.0, 0.005, (d, d))
            w[f"layers.{i}.attn_k"] = rng.normal(0.0, 0.005, (d, d))
            w[f"layers.{i}.attn_v"] = np.zeros((d, d))
            w[f"layers.{i}.attn_o"] = rng.normal(0.0, d ** -0.5, (d, d))
            w[f"layers.{i}.ffn_up"] = rng.normal(0.0, 0.02, (d, spec.d_ff))
            w[f"layers.{i}.ffn_down"] = np.zeros((spec.d_ff, d))
        head = np.zeros((d, spec.n_classes))
        head[half:, :] = rng.normal(0.0, 3.0, (d - half, spec.n_classes))
        w["head"] = head
    return ModelParams(weights=w)


def quantize_base(params: ModelParams, spec: ToyModelSpec,
                  block_size: int = DEFAULT_BLOCK_SIZE) -> ModelParams:
    """Replace every matrix-product weight with its 4-bit form; embeddings stay dense."""
    new: dict = {}
    for name, value in params.weights.items():
        role = name.rsplit(".", 1)[-1]
        if role in QUANTIZED_ROLES and not isinstance(value, Q4BlockMatrix):
            new[name] = quantize_4bit(value, block_size)
        else:
            new[name] = value
    return ModelParams(weights=new)


def base_fingerprint(params: ModelParams) -> bytes:
    """Deterministic serialization of every base entry; used to prove the
    base never moves during training."""
    parts = []
    for name in sorted(params.weights):
        value = params.weights[name]
        parts.append(name.encode("utf-8"))
        if isinstance(value, Q4BlockMatrix):
            parts.append(q4_to_bytes(value))
        else:
            parts.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return b"".join(parts)


def init_adapters(spec: ToyModelSpec, rank: int, alpha: float,
                  seed: int) -> dict[str, LoraAdapter]:
    """One adapter per (layer, target role), each from its own derived seed."""
    import zlib

    adapters: dict[str, LoraAdapter] = {}
    for name in spec.adapter_names():
        role = name.rsplit(".", 1)[-1]
        d_in, d_out = spec.role_shape(role)
        sub_seed = (int(seed) * 1000003 + zlib.crc32(name.encode("utf-8"))) % 2**32
        adapters[name] = lora_init(d_in, d_out, rank, alpha, sub_seed)
    return adapters


# ---- forward / backward ----

# padded token rows per batched pass (8 sequences at T=16); throughput
# saturates well below it, and larger passes only raise peak memory
ROWS_PER_PASS = 128

# freed heap glibc keeps instead of returning it to the kernel (M_TRIM_THRESHOLD)
HEAP_TRIM_THRESHOLD = 64 * 2**20
_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter number


def keep_freed_heap() -> bool:
    """Let glibc keep up to HEAP_TRIM_THRESHOLD of freed heap; True if set.

    Every pass allocates and frees numpy temporaries of 30-130 KB. glibc
    returns the top of the heap to the kernel once more than its trim
    threshold is free there, and the next pass faults those pages back
    in. The default threshold is 128 KiB but rises after a large mmapped
    block is freed, so whether passes paid for it depended on what ran
    earlier in the process: pass times were bimodal, about 1.4x apart,
    from one stretch of calls to the next. A fixed threshold makes them
    steady. Setting it also fixes glibc's mmap threshold at 128 KiB, and
    peak memory is unchanged, since only freed heap is kept. A no-op
    without glibc.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1


keep_freed_heap()


def dense_base(params: ModelParams) -> ModelParams:
    """The same base with every Q4 entry dequantized to float64.

    Callers that run one base through many passes build this once; the
    dense copy of the criterion-07 shapes holds 132,096 B against 9,288 B
    of Q4 payload.
    """
    return ModelParams(weights={
        name: quant.dequantize_4bit(value) if isinstance(value, Q4BlockMatrix) else value
        for name, value in params.weights.items()})


def _layers(params: ModelParams, spec: ToyModelSpec,
            adapters: Mapping[str, LoraAdapter]) -> dict[str, QLoraLinear]:
    """One QLoraLinear per matrix-product weight; 4-bit bases dequantize here."""
    expected = set(spec.param_names())
    have = set(params.weights)
    if have != expected:
        missing = sorted(expected - have)
        extra = sorted(have - expected)
        raise InputError(f"params do not match spec (missing {missing}, extra {extra})")
    return {name: QLoraLinear(value, adapters.get(name))
            for name, value in params.weights.items()
            if name.rsplit(".", 1)[-1] in QUANTIZED_ROLES}


def _check_adapters(adapters: Mapping[str, LoraAdapter] | None, spec: ToyModelSpec):
    if not adapters:
        return {}
    allowed = set(spec.adapter_names())
    for name, ad in adapters.items():
        if name not in allowed:
            raise InputError(
                f"adapter {name!r} does not match any configured target "
                f"(targets: {spec.adapter_targets})"
            )
        role = name.rsplit(".", 1)[-1]
        if (ad.d_in, ad.d_out) != spec.role_shape(role):
            raise InputError(
                f"adapter {name!r} has shape {ad.d_in}x{ad.d_out}, "
                f"expected {spec.role_shape(role)}"
            )
    return dict(adapters)


def _check_tokens(tokens, spec: ToyModelSpec) -> np.ndarray:
    toks = np.asarray(tokens, dtype=np.int64).ravel()
    if toks.size < 1:
        raise InputError("token sequence must be non-empty")
    if toks.size > spec.max_seq_len:
        raise InputError(
            f"sequence length {toks.size} exceeds max_seq_len {spec.max_seq_len}"
        )
    if toks.min() < 0 or toks.max() >= spec.vocab_size:
        bad = int(toks[(toks < 0) | (toks >= spec.vocab_size)][0])
        raise InputError(f"token id {bad} outside [0, {spec.vocab_size})")
    return toks


def _passes(toks: Sequence[np.ndarray]):
    """Yield (indices, (B, T) tokens, valid mask) for each batched pass.

    Sequences are sorted by length (stable) and cut into passes of at most
    ROWS_PER_PASS padded token rows; each pass is padded with token 0 to its
    longest member, and `valid` (B, T) marks real tokens. It is None when
    every member has the pass's length, so such a pass runs unmasked.
    """
    order = sorted(range(len(toks)), key=lambda i: toks[i].size)
    groups: list[list[int]] = []
    for i in order:
        if not groups or (len(groups[-1]) + 1) * toks[i].size > ROWS_PER_PASS:
            groups.append([])
        groups[-1].append(i)
    for idx in groups:
        lengths = np.array([toks[i].size for i in idx])
        t = lengths[-1]
        batch = np.zeros((len(idx), t), dtype=np.int64)
        for row, i in zip(batch, idx):
            row[:toks[i].size] = toks[i]
        valid = None if lengths[0] == t else np.arange(t) < lengths[:, None]
        yield np.array(idx), batch, valid


def _split_heads(x, spec: ToyModelSpec):
    """(B, T, d) -> (B, H, T, dh)."""
    b, t, _ = x.shape
    return x.reshape(b, t, spec.n_heads, spec.head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """(B, H, T, dh) -> (B, T, d)."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _forward_pass(weights, layers, spec: ToyModelSpec, toks, valid, need_tape: bool):
    """Logits (B, n_classes) for a (B, T) token array, plus the backward tape.

    With a valid mask, padded keys get a -inf score bias before the softmax
    and the mean pool runs over valid positions only, so no real row reads
    a padded one.
    """
    inv_sqrt = spec.head_dim ** -0.5
    key_bias = None if valid is None else np.where(valid, 0.0, -np.inf)[:, None, None, :]
    x = weights["tok_emb"][toks] + weights["pos_emb"][:toks.shape[1]]
    tape = []
    for i in range(spec.n_layers):
        pre = f"layers.{i}."
        x_in = x
        q, cq = layers[pre + "attn_q"].forward(x_in)
        k, ck = layers[pre + "attn_k"].forward(x_in)
        v, cv = layers[pre + "attn_v"].forward(x_in)
        qh, kh, vh = (_split_heads(a, spec) for a in (q, k, v))
        scores = qh @ kh.swapaxes(-1, -2) * inv_sqrt
        if key_bias is not None:
            scores += key_bias
        attn = softmax(scores, axis=-1)
        ctx = _merge_heads(attn @ vh)
        o, co = layers[pre + "attn_o"].forward(ctx)
        x_mid = x_in + o
        up, cu = layers[pre + "ffn_up"].forward(x_mid)
        hidden = np.maximum(up, 0.0)
        down, cd = layers[pre + "ffn_down"].forward(hidden)
        x = x_mid + down
        if need_tape:
            tape.append({
                "qh": qh, "kh": kh, "vh": vh, "attn": attn, "up": up,
                "cq": cq, "ck": ck, "cv": cv, "co": co, "cu": cu, "cd": cd,
            })
    if valid is None:
        pooled = x.mean(axis=1)
    else:
        pooled = np.sum(x * valid[:, :, None], axis=1) / valid.sum(axis=1, keepdims=True)
    logits, _ = layers["head"].forward(pooled)
    return logits, tape


def _backward_pass(layers, spec: ToyModelSpec, dlogits, t: int, valid, tape, grads):
    """Accumulate adapter gradients into grads; padded rows get exactly zero."""
    inv_sqrt = spec.head_dim ** -0.5

    def back(name, dy, cache):
        return layers[name].backward(dy, cache, grads, name)

    dpooled = back("head", dlogits, None)
    if valid is None:
        dx = np.repeat(dpooled[:, None, :] / t, t, axis=1)
    else:
        dx = (dpooled / valid.sum(axis=1, keepdims=True))[:, None, :] * valid[:, :, None]
    for i in reversed(range(spec.n_layers)):
        pre = f"layers.{i}."
        rec = tape[i]
        dhidden = back(pre + "ffn_down", dx, rec["cd"])
        dup = dhidden * (rec["up"] > 0.0)
        dx_mid = dx + back(pre + "ffn_up", dup, rec["cu"])
        dctxh = _split_heads(back(pre + "attn_o", dx_mid, rec["co"]), spec)
        attn, qh, kh, vh = rec["attn"], rec["qh"], rec["kh"], rec["vh"]
        dattn = dctxh @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ dctxh
        # softmax jacobian applied row-wise over the key axis
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dqh = (dscores @ kh) * inv_sqrt
        dkh = (dscores.swapaxes(-1, -2) @ qh) * inv_sqrt
        dx = (dx_mid
              + back(pre + "attn_q", _merge_heads(dqh), rec["cq"])
              + back(pre + "attn_k", _merge_heads(dkh), rec["ck"])
              + back(pre + "attn_v", _merge_heads(dvh), rec["cv"]))


def forward_batch(params: ModelParams, spec: ToyModelSpec, sequences: Sequence,
                  adapters: Mapping[str, LoraAdapter] | None = None) -> np.ndarray:
    """Class logits (N, n_classes) for N token sequences of any lengths.

    Sequences run length-sorted in passes of at most ROWS_PER_PASS token
    rows, each padded to its longest member with padded keys masked out of
    attention and pooling, so every row depends only on its own tokens. A
    4-bit base dequantizes once per call.
    """
    toks = [_check_tokens(tokens, spec) for tokens in sequences]
    layers = _layers(params, spec, _check_adapters(adapters, spec))
    logits = np.empty((len(toks), spec.n_classes))
    for idx, pass_toks, valid in _passes(toks):
        logits[idx], _ = _forward_pass(params.weights, layers, spec, pass_toks, valid,
                                       need_tape=False)
    return logits


def forward(params: ModelParams, spec: ToyModelSpec, tokens,
            adapters: Mapping[str, LoraAdapter] | None = None) -> np.ndarray:
    """Class logits for one token sequence (adapters optional)."""
    return forward_batch(params, spec, [tokens], adapters)[0]


def loss_and_grads(params: ModelParams, spec: ToyModelSpec,
                   batch: Sequence[tuple], adapters: Mapping[str, LoraAdapter]):
    """Mean cross-entropy over the batch plus gradients for adapter factors only.

    Returns (loss, grads) where grads maps "{weight}/b" and "{weight}/a"
    to arrays shaped like the corresponding factors. Every token and label
    is validated before any compute.
    """
    if len(batch) == 0:
        raise InputError("batch must be non-empty")
    toks = [_check_tokens(tokens, spec) for tokens, _ in batch]
    labels = np.array([int(label) for _, label in batch], dtype=np.int64)
    bad = (labels < 0) | (labels >= spec.n_classes)
    if bad.any():
        raise InputError(f"label {labels[bad][0]} outside [0, {spec.n_classes})")
    ad = _check_adapters(adapters, spec)
    layers = _layers(params, spec, ad)
    grads = {}
    for name, adapter in ad.items():
        grads[name + "/b"] = np.zeros_like(adapter.b_factor)
        grads[name + "/a"] = np.zeros_like(adapter.a_factor)
    inv_b = 1.0 / len(batch)
    nll = np.empty(len(batch))
    for idx, pass_toks, valid in _passes(toks):
        logits, tape = _forward_pass(params.weights, layers, spec, pass_toks, valid,
                                     need_tape=True)
        probs = softmax(logits, axis=-1)
        rows, y = np.arange(idx.size), labels[idx]
        nll[idx] = -np.log(probs[rows, y])
        dlogits = probs.copy()
        dlogits[rows, y] -= 1.0
        dlogits *= inv_b
        _backward_pass(layers, spec, dlogits, pass_toks.shape[1], valid, tape, grads)
    return float(np.sum(nll * inv_b)), grads
