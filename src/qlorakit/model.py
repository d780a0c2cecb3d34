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

import math
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


class _Workspace:
    """The pass plan of a run (train) or call (forward_batch, loss_and_grads)
    and the one flat buffer its passes, and AdamW between them, write through.
    Per block: its six layers in LAYER_ROLES order, their names, whether each
    is adapted (the tape keeps its input rows) and whether the FFN runs (an
    all-zero, unadapted ffn_down skips it)."""

    def __init__(self, blocks: list, head: QLoraLinear, spec: ToyModelSpec):
        self.blocks, self.head, self._spec = blocks, head, spec
        self._ffn = any(block[3] for block in blocks)
        self._buf, self._layouts = np.empty(0), {}

    def reserve(self, lengths: Sequence[int], members: int, tape: bool,
                scratch: int = 0) -> np.ndarray:
        """Size the buffer for every pass of at most `members` sequences of
        these lengths, and `scratch` entries used between passes: returns those."""
        if t := max(lengths, default=0):  # the largest such pass bounds every other
            self.layout(-(-min(members * t, max(ROWS_PER_PASS, t)) // t), t, tape)
        if scratch > self._buf.size:
            self._buf, self._layouts = np.empty(scratch), {}
        return self._buf[:scratch]

    def layout(self, b: int, t: int, tape: bool) -> tuple:
        """A (B, T) pass's views, carved once: (embedding rows (B, T, d), last
        block's output, the pool's (B, d) rows, per block forward views, tape,
        backward views or None). With a tape each block has its own activation
        rows, which are the tape; else blocks share one set."""
        views = self._layouts.get((b, t, tape))
        while views is None:  # a carve past the buffer's end took new arrays: regrow
            views, used = self._carve(b, t, tape)
            if used > self._buf.size:
                views = None
                self._buf, self._layouts = np.empty(used), {}
        self._layouts[(b, t, tape)] = views
        return views

    def _carve(self, b: int, t: int, tape: bool) -> tuple:
        spec, n, used = self._spec, self._spec.n_layers, 0
        heads, row, ff = (b, t, spec.n_heads, spec.head_dim), (b * t, spec.d_model), (
            b * t, spec.d_ff)

        def take(*shape):
            nonlocal used
            used += math.prod(shape)
            return (self._buf[used - math.prod(shape):used] if used <= self._buf.size
                    else np.empty(shape)).reshape(shape)

        def split(r):  # the (B, H, T, dh) heads of (B*T, d) rows
            return r.reshape(heads).transpose(0, 2, 1, 3)

        xs = [take(*row) for _ in range(n + 1 if tape else 2)]
        slots = [tuple(take(*row) for _ in range(4)) + (take(t, b, spec.n_heads, t),)  # key-major
                 + ((take(*row), take(*ff)) if self._ffn else (None, None))
                 for _ in range(n if tape else 1)]
        fwd, tapes = [], []
        for i, (_, _, adapted, ffn) in enumerate(self.blocks):
            q, k, v, ctx, attn, mid, hidden = slots[i % len(slots)]
            x_in, x = xs[i % len(xs)], xs[(i + 1) % len(xs)]
            x_mid, hidden = (mid, hidden) if ffn else (x, None)
            tapes.append((split(q), split(k), split(v), attn, hidden) + tuple(
                r if keep else None
                for keep, r in zip(adapted, (x_in, x_in, x_in, ctx, x_mid, hidden))))
            qh, kh, vh = tapes[-1][:3]
            fwd.append((x_in, q, k, v, kh, qh.swapaxes(-1, -2), attn.transpose(1, 2, 0, 3), attn,
                        attn.transpose(1, 2, 3, 0), vh, split(ctx), ctx, x_mid, hidden, x))
        pool, back = slots[0][0][:b], None  # the pool and its gradient take free rows
        if tape:
            dx, dctx, dhead, din = (take(*row) for _ in range(4))
            ds = take(t, b, spec.n_heads, t)
            pool, dctx_h, roles = dhead[:b], split(dctx), []
            for i, ((q, k, v, *_), names, _, _) in enumerate(self.blocks):
                qh, kh, _, attn, _, x_q, x_k, x_v = tapes[i][:8]
                roles.append(tuple(role for role in (
                    (q, names[0], x_q, ds.transpose(1, 2, 3, 0), kh, heads[3] ** -0.5),
                    (k, names[1], x_k, ds.transpose(1, 2, 0, 3), qh, heads[3] ** -0.5),
                    (v, names[2], x_v, attn.transpose(1, 2, 0, 3), dctx_h, None))
                    # layer 0's input gradient would reach only the frozen embeddings
                    if i > 0 or role[2] is not None))
            back = (dx, dx.reshape(b, t, -1), dctx, dctx_h.swapaxes(-1, -2), ds,
                    ds.transpose(1, 2, 0, 3), take(b, spec.n_heads, t), dhead, split(dhead), din,
                    take(*ff) if self._ffn else None, roles)
        return (xs[0].reshape(b, t, -1), x.reshape(b, t, -1), pool, fwd,
                tapes if tape else [], back), used


def _pass_plan(layers: Mapping[str, QLoraLinear], spec: ToyModelSpec) -> _Workspace:
    """The workspace of the layer map, with every block's facts settled once."""
    blocks = []
    for i in range(spec.n_layers):
        names = tuple(f"layers.{i}.{role}" for role in LAYER_ROLES)
        roles = tuple(layers[name] for name in names)
        adapted = tuple(layer.adapter is not None for layer in roles)
        blocks.append((roles, names, adapted, adapted[-1] or bool(roles[-1].weight.any())))
    return _Workspace(blocks, layers["head"], spec)


def _forward_pass(weights, plan: _Workspace, spec: ToyModelSpec, toks, valid, need_tape: bool):
    """Logits (B, n_classes) for a (B, T) token array, plus the backward tape.

    Activations are (B*T, d) rows throughout, so each projection is one
    matrix product; the (B, H, T, dh) head views exist only inside
    attention, whose scores are key-major (T_k, B, H, T_q), so the softmax
    and its Jacobian reduce over the leading axis. With a valid mask, padded
    keys' scores are set to -inf and the mean pool runs over valid positions
    only, so no real row reads a padded one. A block whose FFN the plan skips
    has x = x_mid. The pass writes only into plan's layout for (B, T); the
    tape holds per layer the head views, the attention, the ReLU output (None
    if skipped) and each adapted layer's input rows (None where backward
    reads none).
    """
    b, t = toks.shape
    inv_sqrt = spec.head_dim ** -0.5
    padded_keys = None if valid is None else ~valid.T
    emb, last, pool, fwd, tape, _ = plan.layout(b, t, need_tape)
    np.take(weights["tok_emb"], toks, axis=0, out=emb, mode="clip")  # "raise" buffers out
    emb += weights["pos_emb"][:t]
    for ((q, k, v, o, up, down), _, _, ffn), (
            x_in, q_rows, k_rows, v_rows, kh, q_t, scores, attn, attn_q, vh, ctx_h, ctx, x_mid,
            hidden, x) in zip(plan.blocks, fwd):
        q.forward(x_in, out=q_rows)
        k.forward(x_in, out=k_rows)
        v.forward(x_in, out=v_rows)
        np.matmul(kh, q_t, out=scores)
        attn *= inv_sqrt
        if padded_keys is not None:
            attn[padded_keys] = -np.inf
        softmax(attn, axis=0, out=attn)
        np.matmul(attn_q, vh, out=ctx_h)
        o.forward(ctx, out=x_mid)
        x_mid += x_in
        if ffn:  # otherwise x_mid is x: x_mid + relu(x_mid @ W_up) @ 0 is x_mid
            np.maximum(up.forward(x_mid, out=hidden), 0.0, out=hidden)
            down.forward(hidden, out=x)
            x += x_mid
    pooled = (np.add.reduce(last, axis=1, out=pool) if valid is None else  # one pass, no x * valid
              np.einsum("bt,btd->bd", valid.astype(float), last, out=pool))
    pooled /= t if valid is None else valid.sum(axis=1, keepdims=True)
    return plan.head.forward(pooled), tape


def _backward_pass(plan: _Workspace, spec: ToyModelSpec, dlogits, t: int, valid, tape, grads):
    """Accumulate adapter gradients into grads; padded rows get exactly zero."""
    _, _, pool, _, _, back = plan.layout(dlogits.shape[0], t, True)
    dx, dx3, dctx, dctx_t, ds, ds_k, dsum, dhead, dhead_h, din, dhidden, roles = back
    dpooled = plan.head.backward(dlogits, None, grads, "head", out=pool)  # no adapter targets it
    dpooled /= t if valid is None else valid.sum(axis=1, keepdims=True)
    if valid is None:
        np.copyto(dx3, dpooled[:, None, :])
    else:
        np.multiply(valid[:, :, None], dpooled[:, None, :], out=dx3)
    for i in range(len(plan.blocks) - 1, -1, -1):
        (q, k, v, o, up, down), names, _, _ = plan.blocks[i]
        _, _, vh, attn, hidden, _, _, _, x_o, x_up, x_down = tape[i]
        if hidden is not None:  # else the skipped FFN's input gradient is dx, its factors' zero
            down.backward(dx, x_down, grads, names[5], out=dhidden)
            dhidden *= hidden > 0.0
            dx += up.backward(dhidden, x_up, grads, names[4], out=din)
        o.backward(dx, x_o, grads, names[3], out=dctx)
        # softmax jacobian over the key axis, the leading one:
        # dscores = attn * (dattn - sum_k(dattn * attn))
        np.matmul(vh, dctx_t, out=ds_k)
        ds -= np.einsum("kbhq,kbhq->bhq", ds, attn, out=dsum)
        ds *= attn
        for layer, name, x_role, left, right, scale in roles[i]:
            np.matmul(left, right, out=dhead_h)
            if scale is not None:
                dhead *= scale
            dx_in = layer.backward(dhead, x_role, grads, name, need_dx=i > 0, out=din)
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
    plan.reserve([t.size for t in distinct], len(distinct), tape=False)
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
    plan.reserve([toks.size for toks, _ in examples], len(examples), tape=True)
    grads = {k: np.zeros_like(v) for k, v in flatten_adapters(adapters or {}).items()}
    return loss_and_grads_into(params, spec, examples, plan, grads)


def loss_and_grads_into(params: ModelParams, spec: ToyModelSpec, examples: Sequence[tuple],
                        plan: _Workspace, grads: dict):
    """loss_and_grads on check_examples' examples and _pass_plan's plan,
    adding the gradients into grads, whose arrays the caller zeroed."""
    labels = np.array([label for _, label in examples], dtype=np.int64)
    inv_b = 1.0 / len(examples)
    nll = np.empty(len(examples))
    for idx, pass_toks, valid in _passes([toks for toks, _ in examples]):
        logits, tape = _forward_pass(params.weights, plan, spec, pass_toks, valid,
                                     need_tape=True)
        dlogits = softmax(logits, axis=-1, out=logits)
        rows, y = np.arange(idx.size), labels[idx]
        nll[idx] = -np.log(dlogits[rows, y])
        dlogits[rows, y] -= 1.0
        dlogits *= inv_b
        _backward_pass(plan, spec, dlogits, pass_toks.shape[1], valid, tape, grads)
    return float(np.add.reduce(nll * inv_b)), grads
