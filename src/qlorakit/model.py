"""Fixed-topology toy transformer classifier with manual reverse-mode gradients.

Topology: token embedding + positional embedding, then n_layers blocks of
(multi-head attention, FFN with ReLU), both with residual connections and
no normalization layers, then mean-pool over positions and a linear head.

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


def _forward_seq(weights, layers, spec: ToyModelSpec, toks, need_tape: bool):
    t = toks.size
    h_count, dh = spec.n_heads, spec.head_dim
    inv_sqrt = dh ** -0.5
    x = weights["tok_emb"][toks] + weights["pos_emb"][:t]
    tape = [] if need_tape else None
    for i in range(spec.n_layers):
        pre = f"layers.{i}."
        x_in = x
        q, cq = layers[pre + "attn_q"].forward(x_in)
        k, ck = layers[pre + "attn_k"].forward(x_in)
        v, cv = layers[pre + "attn_v"].forward(x_in)
        qh = q.reshape(t, h_count, dh)
        kh = k.reshape(t, h_count, dh)
        vh = v.reshape(t, h_count, dh)
        scores = np.einsum("thd,shd->hts", qh, kh) * inv_sqrt
        attn = softmax(scores, axis=-1)
        ctx = np.einsum("hts,shd->thd", attn, vh).reshape(t, spec.d_model)
        o, co = layers[pre + "attn_o"].forward(ctx)
        x_mid = x_in + o
        up, cu = layers[pre + "ffn_up"].forward(x_mid)
        hidden = np.maximum(up, 0.0)
        down, cd = layers[pre + "ffn_down"].forward(hidden)
        x = x_mid + down
        if need_tape:
            tape.append({
                "x_in": x_in, "qh": qh, "kh": kh, "vh": vh, "attn": attn,
                "ctx": ctx, "x_mid": x_mid, "up": up, "hidden": hidden,
                "cq": cq, "ck": ck, "cv": cv, "co": co, "cu": cu, "cd": cd,
            })
    pooled = x.mean(axis=0)
    logits, _ = layers["head"].forward(pooled)
    return logits, t, tape


def _backward_seq(layers, spec: ToyModelSpec, dlogits, t, tape, grads):
    h_count, dh = spec.n_heads, spec.head_dim
    inv_sqrt = dh ** -0.5

    def back(name, dy, cache):
        return layers[name].backward(dy, cache, grads, name)

    dpooled = back("head", dlogits, None)
    dx = np.tile(dpooled / t, (t, 1))
    for i in reversed(range(spec.n_layers)):
        pre = f"layers.{i}."
        rec = tape[i]
        dhidden = back(pre + "ffn_down", dx, rec["cd"])
        dup = dhidden * (rec["up"] > 0.0)
        dx_mid = dx + back(pre + "ffn_up", dup, rec["cu"])
        dctx = back(pre + "attn_o", dx_mid, rec["co"])
        dctxh = dctx.reshape(t, h_count, dh)
        attn, qh, kh, vh = rec["attn"], rec["qh"], rec["kh"], rec["vh"]
        dattn = np.einsum("thd,shd->hts", dctxh, vh)
        dvh = np.einsum("hts,thd->shd", attn, dctxh)
        # softmax jacobian applied row-wise over the key axis
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dqh = np.einsum("hts,shd->thd", dscores, kh) * inv_sqrt
        dkh = np.einsum("hts,thd->shd", dscores, qh) * inv_sqrt
        dq = dqh.reshape(t, spec.d_model)
        dk = dkh.reshape(t, spec.d_model)
        dv = dvh.reshape(t, spec.d_model)
        dx_in = dx_mid
        dx_in = dx_in + back(pre + "attn_q", dq, rec["cq"])
        dx_in = dx_in + back(pre + "attn_k", dk, rec["ck"])
        dx_in = dx_in + back(pre + "attn_v", dv, rec["cv"])
        dx = dx_in


def forward(params: ModelParams, spec: ToyModelSpec, tokens,
            adapters: Mapping[str, LoraAdapter] | None = None) -> np.ndarray:
    """Class logits for one token sequence (adapters optional)."""
    toks = _check_tokens(tokens, spec)
    layers = _layers(params, spec, _check_adapters(adapters, spec))
    logits, _, _ = _forward_seq(params.weights, layers, spec, toks, need_tape=False)
    return logits


def loss_and_grads(params: ModelParams, spec: ToyModelSpec,
                   batch: Sequence[tuple], adapters: Mapping[str, LoraAdapter]):
    """Mean cross-entropy over the batch plus gradients for adapter factors only.

    Returns (loss, grads) where grads maps "{weight}/b" and "{weight}/a"
    to arrays shaped like the corresponding factors.
    """
    if len(batch) == 0:
        raise InputError("batch must be non-empty")
    ad = _check_adapters(adapters, spec)
    layers = _layers(params, spec, ad)
    grads = {}
    for name, adapter in ad.items():
        grads[name + "/b"] = np.zeros_like(adapter.b_factor)
        grads[name + "/a"] = np.zeros_like(adapter.a_factor)
    inv_b = 1.0 / len(batch)
    total = 0.0
    for tokens, label in batch:
        toks = _check_tokens(tokens, spec)
        y = int(label)
        if not 0 <= y < spec.n_classes:
            raise InputError(f"label {y} outside [0, {spec.n_classes})")
        logits, t, tape = _forward_seq(params.weights, layers, spec, toks, need_tape=True)
        probs = softmax(logits)
        total += -np.log(probs[y]) * inv_b
        dlogits = probs.copy()
        dlogits[y] -= 1.0
        dlogits *= inv_b
        _backward_seq(layers, spec, dlogits, t, tape, grads)
    return float(total), grads
