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
An all-zero, unadapted ffn_down (adapter_friendly's) skips its block's FFN.

Weight naming: "tok_emb", "pos_emb", "layers.{i}.attn_q|attn_k|attn_v|
attn_o|ffn_up|ffn_down", "head". Adapter gradient keys append "/b" and
"/a" to the weight name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .fileio import echo
from .lora import LoraAdapter, QLoraLinear, flatten_adapters, lora_init
from .matrix import softmax
from .quant import DEFAULT_BLOCK_SIZE, Q4BlockMatrix, q4_to_bytes, quantize_4bit

LAYER_ROLES = ("attn_q", "attn_k", "attn_v", "attn_o", "ffn_up", "ffn_down")
# lookup weights; every other base weight is a matrix product x @ W, run
# through one QLoraLinear and quantized by the 4-bit path
EMBEDDINGS = ("tok_emb", "pos_emb")
DEFAULT_INIT_PROFILE = "adapter_friendly"
INIT_PROFILES = ("standard", DEFAULT_INIT_PROFILE)


@dataclass(frozen=True)
class ToyModelSpec:
    """Toy transformer dimensions and adapter targets. `shapes` is the one
    inventory of base weights that init, quantization, the layer check and
    the memory block all read."""

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

    @property
    def shapes(self) -> dict[str, tuple[int, int]]:
        """(rows, cols) of every base weight by name, in init order."""
        d, f = self.d_model, self.d_ff
        role = {"attn_q": (d, d), "attn_k": (d, d), "attn_v": (d, d), "attn_o": (d, d),
                "ffn_up": (d, f), "ffn_down": (f, d)}
        return {"tok_emb": (self.vocab_size, d), "pos_emb": (self.max_seq_len, d),
                **{f"layers.{i}.{r}": role[r] for i in range(self.n_layers) for r in LAYER_ROLES},
                "head": (d, self.n_classes)}

    def total_params(self) -> int:
        return sum(r * c for r, c in self.shapes.values())

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
                      profile: str = DEFAULT_INIT_PROFILE) -> ModelParams:
    """Seeded base init.

    "standard": dense Gaussian fan-in scaling everywhere.
    "adapter_friendly": embeddings write only the first d_model//2 residual
    channels, the head reads only the remaining channels, and the value /
    FFN-down projections start at zero. The frozen base then emits exactly
    zero logits (initial loss is exactly ln n_classes) and the adapters own
    the writable subspace; at small learning rates over short runs this is
    what lets adapter-only training move the classifier at all. The FFN
    branch is skipped while ffn_down is zero and untargeted.
    """
    if profile not in INIT_PROFILES:
        raise ConfigError(f"unknown init profile {profile!r}; choose from {INIT_PROFILES}")
    rng = np.random.default_rng(seed)
    half = spec.d_model // 2
    every, left, lower = np.s_[:, :], np.s_[:, :half], np.s_[half:, :]
    # adapter_friendly: role -> (std, drawn region); std 0.0 leaves the weight zero
    friendly = {"tok_emb": (8.0, left), "pos_emb": (0.5, left), "attn_q": (0.005, every),
                "attn_k": (0.005, every), "attn_v": (0.0, every),
                "attn_o": (spec.d_model ** -0.5, every), "ffn_up": (0.02, every),
                "ffn_down": (0.0, every), "head": (3.0, lower)}
    w: dict[str, np.ndarray] = {}
    for name, shape in spec.shapes.items():
        role = name.rsplit(".", 1)[-1]
        if profile == "standard":  # fan-in scaling for every product
            std, region = {"tok_emb": 1.0, "pos_emb": 0.02}.get(role, shape[0] ** -0.5), every
        else:
            std, region = friendly[role]
        if std and region is every:
            w[name] = rng.normal(0.0, std, shape)
        else:
            w[name] = np.zeros(shape)
            if std:
                w[name][region] = rng.normal(0.0, std, w[name][region].shape)
    return ModelParams(weights=w)


def quantize_base(params: ModelParams, spec: ToyModelSpec,
                  block_size: int = DEFAULT_BLOCK_SIZE) -> ModelParams:
    """Replace every matrix-product weight with its 4-bit form; embeddings stay dense."""
    return ModelParams(weights={
        name: value if name in EMBEDDINGS or isinstance(value, Q4BlockMatrix)
        else quantize_4bit(value, block_size) for name, value in params.weights.items()})


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
        d_in, d_out = spec.shapes[name]
        sub_seed = (int(seed) * 1000003 + zlib.crc32(name.encode("utf-8"))) % 2**32
        adapters[name] = lora_init(d_in, d_out, rank, alpha, sub_seed)
    return adapters


# ---- forward / backward ----

# padded token rows per batched pass, for training and inference alike: a
# synthetic window (8 x 16 rows) and a corpus window of 8 questions (at most
# 8 x 32 rows) each run as one pass; an inference pass holds 16 sequences at T=16
ROWS_PER_PASS = 256

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


def adapted_layers(params: ModelParams, spec: ToyModelSpec,
                   adapters: Mapping[str, LoraAdapter] | None) -> dict[str, QLoraLinear]:
    """One QLoraLinear per weight product. Adapter names and shapes, and the
    base's weight names and shapes (dense or 4-bit), must match spec.shapes;
    4-bit bases dequantize here. Each adapted layer holds its merged weight,
    so an adapter trained in place needs QLoraLinear.remerge."""
    adapters = adapters or {}
    shapes = spec.shapes
    allowed = set(spec.adapter_names())
    for name, ad in adapters.items():
        if name not in allowed:
            raise InputError(f"adapter {echo(name)} does not match any configured target "
                             f"(targets: {spec.adapter_targets})")
        if (ad.d_in, ad.d_out) != shapes[name]:
            raise InputError(f"adapter {echo(name)} has shape {ad.d_in}x{ad.d_out}, "
                             f"expected {shapes[name]}")
    expected, have = set(shapes), set(params.weights)
    if have != expected:
        raise InputError(f"params do not match spec (missing {sorted(expected - have)}, "
                         f"extra {sorted(have - expected)})")
    for name, value in params.weights.items():
        shape = (value.rows, value.cols) if isinstance(value, Q4BlockMatrix) else np.shape(value)
        if shape != shapes[name]:
            raise InputError(f"weight {echo(name)} has shape {shape}, expected {shapes[name]}")
    return {name: QLoraLinear(value, adapters.get(name))
            for name, value in params.weights.items() if name not in EMBEDDINGS}


def _token_ids(tokens) -> np.ndarray | None:
    """tokens as a flat integer array, or None unless every id is an integer;
    a scalar or a nested sequence is an InputError.

    An array goes by its dtype. A list's items are type-checked: a bool
    among ints is refused, while ints that numpy would promote to float64 or
    object (a mix with np.uint64, or ids past int64) are kept exactly, as
    Python ints. The ids are not cast yet, so a range check sees their values.
    """
    try:
        arr = np.asarray(tokens)
    except ValueError:  # numpy refuses a ragged nested list
        arr = None
    if arr is None or arr.ndim != 1:
        fault = "ragged nested" if arr is None else "scalar" if arr.ndim == 0 else f"{arr.ndim}-D"
        raise InputError(f"token ids must be one flat run of integers, got {fault} input")
    if not isinstance(tokens, np.ndarray):
        if any(isinstance(v, (bool, np.bool_)) for v in tokens):
            return None
        if arr.dtype.kind in "fO" and all(isinstance(v, (int, np.integer)) for v in tokens):
            return np.array([int(v) for v in tokens], dtype=object)
    return arr if arr.dtype.kind in "iu" else None


def _check_batch(sequences: Sequence, spec: ToyModelSpec) -> list[np.ndarray]:
    """Each sequence as int64 ids after four rules, in order: non-empty, integer
    ids, at most max_seq_len, ids in [0, vocab_size). A batch that fails reruns
    them on each sequence alone, so the first bad sequence's error wins."""
    try:
        toks = [_token_ids(tokens) for tokens in sequences]
        lengths = [len(tokens) for tokens in sequences]  # 1-D, as _token_ids refused the rest
        if 0 in lengths:
            raise InputError("token sequence must be non-empty")
        if any(t is None for t in toks):
            raise InputError("token ids must be integers, not bools, floats or strings")
        if max(lengths, default=0) > spec.max_seq_len:
            raise InputError(
                f"sequence length {max(lengths)} exceeds max_seq_len {spec.max_seq_len}"
            )
        if toks:
            flat = np.concatenate(toks)
            if flat.min() < 0 or flat.max() >= spec.vocab_size:
                bad = int(flat[(flat < 0) | (flat >= spec.vocab_size)][0])
                raise InputError(f"token id {bad} outside [0, {spec.vocab_size})")
    except InputError:
        if len(sequences) > 1:
            for tokens in sequences:
                _check_batch([tokens], spec)
        raise
    return [t.astype(np.int64, copy=False) for t in toks]


def check_examples(batch: Sequence[tuple], spec: ToyModelSpec) -> list[tuple]:
    """(int64 tokens, int label) pairs after loss_and_grads' checks: tokens as
    in forward_batch, then every label an int (not a bool) in [0, n_classes)."""
    if len(batch) == 0:
        raise InputError("batch must be non-empty")
    toks = _check_batch([tokens for tokens, _ in batch], spec)
    for _, label in batch:
        if not isinstance(label, (int, np.integer)) or isinstance(label, bool):
            raise InputError(f"label {label!r} is not an integer")
    arr = np.array([label for _, label in batch], dtype=np.int64)
    bad = (arr < 0) | (arr >= spec.n_classes)
    if bad.any():
        raise InputError(f"label {arr[bad][0]} outside [0, {spec.n_classes})")
    return list(zip(toks, arr.tolist()))


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
        flat = np.concatenate([toks[i] for i in idx])  # the members' tokens, one after another
        lengths = np.array([toks[i].size for i in idx])
        if lengths[0] == lengths[-1]:
            yield np.array(idx), flat.reshape(len(idx), -1), None
        else:
            valid = np.arange(lengths[-1]) < lengths[:, None]
            batch = np.zeros(valid.shape, dtype=np.int64)
            batch[valid] = flat  # row-major: each member fills the head of its row
            yield np.array(idx), batch, valid


def _product(shape, order, left, right) -> np.ndarray:
    """left @ right into a new C-contiguous `shape` array, through its `order` view."""
    out = np.empty(shape)
    np.matmul(left, right, out=out.transpose(order))
    return out


def _pass_plan(layers: Mapping[str, QLoraLinear], spec: ToyModelSpec) -> tuple:
    """(blocks, head) of the layer map, as every pass reads it: per block its six layers
    in LAYER_ROLES order, their names for backward, whether each is adapted (the tape
    keeps its input rows), and whether the FFN runs (an all-zero, unadapted ffn_down)."""
    blocks = []
    for i in range(spec.n_layers):
        names = tuple(f"layers.{i}.{role}" for role in LAYER_ROLES)
        roles = tuple(layers[name] for name in names)
        adapted = tuple(layer.adapter is not None for layer in roles)
        blocks.append((roles, names, adapted, adapted[-1] or bool(roles[-1].weight.any())))
    return blocks, layers["head"]


def _forward_pass(weights, plan, spec: ToyModelSpec, toks, valid, need_tape: bool):
    """Logits (B, n_classes) for a (B, T) token array, plus the backward tape.

    Activations are (B*T, d) rows throughout, so each projection is one
    matrix product; the (B, H, T, dh) head views exist only inside
    attention, whose scores are key-major (T_k, B, H, T_q), so the softmax
    and its Jacobian reduce over the leading axis. With a valid mask, padded
    keys' scores are set to -inf and the mean pool runs over valid positions
    only, so no real row reads a padded one. A block whose FFN the plan skips
    has x = x_mid. The tape holds per layer the head views, the attention,
    the ReLU output (None if skipped) and each adapted layer's input rows
    (None where backward reads none).
    """
    b, t = toks.shape
    heads = (b, t, spec.n_heads, spec.head_dim)
    inv_sqrt = heads[3] ** -0.5
    blocks, head = plan
    padded_keys = None if valid is None else ~valid.T
    x = weights["tok_emb"][toks]
    x += weights["pos_emb"][:t]
    x = x.reshape(b * t, spec.d_model)
    tape = []
    for (q, k, v, o, up, down), _, adapted, ffn in blocks:
        x_in = x
        qh = q.forward(x_in).reshape(heads).transpose(0, 2, 1, 3)
        kh = k.forward(x_in).reshape(heads).transpose(0, 2, 1, 3)
        vh = v.forward(x_in).reshape(heads).transpose(0, 2, 1, 3)
        scores = _product((t, b, heads[2], t), (1, 2, 0, 3), kh, qh.swapaxes(-1, -2))
        scores *= inv_sqrt
        if padded_keys is not None:
            scores[padded_keys] = -np.inf
        attn = softmax(scores, axis=0)
        ctx = _product(heads, (0, 2, 1, 3), attn.transpose(1, 2, 3, 0), vh).reshape(b * t, -1)
        x_mid = o.forward(ctx)
        x_mid += x_in
        if ffn:
            hidden = np.maximum(up.forward(x_mid), 0.0)
            x = down.forward(hidden)
            x += x_mid
        else:
            x, hidden = x_mid, None  # x_mid + relu(x_mid @ W_up) @ 0 is x_mid
        if need_tape:
            tape.append((qh, kh, vh, attn, hidden) + tuple(
                rows if keep else None
                for keep, rows in zip(adapted, (x_in, x_in, x_in, ctx, x_mid, hidden))))
    x = x.reshape(b, t, spec.d_model)
    pooled = (np.add.reduce(x, axis=1) / t if valid is None else  # one pass, no x * valid
              np.einsum("bt,btd->bd", valid.astype(float), x) / valid.sum(axis=1, keepdims=True))
    return head.forward(pooled), tape


def _backward_pass(plan, spec: ToyModelSpec, dlogits, t: int, valid, tape, grads):
    """Accumulate adapter gradients into grads; padded rows get exactly zero."""
    b = dlogits.shape[0]
    heads = (b, t, spec.n_heads, spec.head_dim)
    inv_sqrt = heads[3] ** -0.5
    blocks, head = plan
    dpooled = head.backward(dlogits, None, grads, "head")  # no adapter targets it
    counts = t if valid is None else valid.sum(axis=1, keepdims=True)
    dx = np.repeat(dpooled / counts, t, axis=0) if valid is None else (
        valid[:, :, None] * (dpooled / counts)[:, None, :]).reshape(b * t, -1)
    for i, ((q, k, v, o, up, down), names, _, _) in reversed(list(enumerate(blocks))):
        qh, kh, vh, attn, hidden, x_q, x_k, x_v, x_o, x_up, x_down = tape[i]
        if hidden is None:  # the skipped FFN: its input gradient is dx, its factors' zero
            dx_mid = dx
        else:
            dhidden = down.backward(dx, x_down, grads, names[5])
            dhidden *= hidden > 0.0
            dx_mid = up.backward(dhidden, x_up, grads, names[4])
            dx_mid += dx
        dctx = o.backward(dx_mid, x_o, grads, names[3])
        dctxh = dctx.reshape(heads).transpose(0, 2, 1, 3)
        # softmax jacobian over the key axis, the leading one:
        # dscores = attn * (dattn - sum_k(dattn * attn))
        dscores = _product(attn.shape, (1, 2, 0, 3), vh, dctxh.swapaxes(-1, -2))
        dscores -= np.einsum("kbhq,kbhq->bhq", dscores, attn)
        dscores *= attn
        dx = dx_mid
        for layer, name, x_role, left, right, scale in (
                (q, names[0], x_q, dscores.transpose(1, 2, 3, 0), kh, inv_sqrt),
                (k, names[1], x_k, dscores.transpose(1, 2, 0, 3), qh, inv_sqrt),
                (v, names[2], x_v, attn.transpose(1, 2, 0, 3), dctxh, None)):
            if i == 0 and x_role is None:
                continue  # layer 0's input gradient would reach only the frozen embeddings
            dhead = _product(heads, (0, 2, 1, 3), left, right)
            if scale is not None:
                dhead *= scale
            dx_in = layer.backward(dhead.reshape(b * t, -1), x_role, grads, name, need_dx=i > 0)
            if i > 0:
                dx += dx_in


def forward_batch(params: ModelParams, spec: ToyModelSpec, sequences: Sequence,
                  adapters: Mapping[str, LoraAdapter] | None = None) -> np.ndarray:
    """Class logits (N, n_classes) for N token sequences of any lengths.

    Sequences run length-sorted in passes of at most ROWS_PER_PASS token
    rows, each padded to its longest member with padded keys masked out of
    attention and pooling, so every row depends only on its own tokens; each
    distinct sequence therefore runs once and its logits fill all its rows.
    A 4-bit base dequantizes once per call, and each adapted layer runs its
    merged weight W + delta (LoRA §4.1).
    """
    return _logits(params, spec, _check_batch(sequences, spec), adapters)


def _logits(params: ModelParams, spec: ToyModelSpec, toks: Sequence[np.ndarray],
            adapters: Mapping[str, LoraAdapter] | None) -> np.ndarray:
    """forward_batch on sequences _check_batch has already checked."""
    plan = _pass_plan(adapted_layers(params, spec, adapters), spec)
    # the key holds the length too (8 bytes a token), so a prefix is its own key
    slot: dict[bytes, int] = {}
    rows = np.array([slot.setdefault(t.tobytes(), len(slot)) for t in toks], dtype=np.intp)
    distinct = [toks[i] for i in np.unique(rows, return_index=True)[1]]
    logits = np.empty((len(distinct), spec.n_classes))
    for idx, pass_toks, valid in _passes(distinct):
        logits[idx], _ = _forward_pass(params.weights, plan, spec, pass_toks, valid,
                                       need_tape=False)
    return logits[rows]


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
    examples = check_examples(batch, spec)
    plan = _pass_plan(adapted_layers(params, spec, adapters), spec)
    grads = {k: np.zeros_like(v) for k, v in flatten_adapters(adapters or {}).items()}
    return loss_and_grads_into(params, spec, examples, plan, grads)


def loss_and_grads_into(params: ModelParams, spec: ToyModelSpec, examples: Sequence[tuple],
                        plan: tuple, grads: dict):
    """loss_and_grads on check_examples' examples and _pass_plan's plan,
    adding the gradients into grads, whose arrays the caller zeroed."""
    labels = np.array([label for _, label in examples], dtype=np.int64)
    inv_b = 1.0 / len(examples)
    nll = np.empty(len(examples))
    for idx, pass_toks, valid in _passes([toks for toks, _ in examples]):
        logits, tape = _forward_pass(params.weights, plan, spec, pass_toks, valid,
                                     need_tape=True)
        dlogits = softmax(logits, axis=-1)
        rows, y = np.arange(idx.size), labels[idx]
        nll[idx] = -np.log(dlogits[rows, y])
        dlogits[rows, y] -= 1.0
        dlogits *= inv_b
        _backward_pass(plan, spec, dlogits, pass_toks.shape[1], valid, tape, grads)
    return float(np.add.reduce(nll * inv_b)), grads
