"""Shared fixtures: small model specs, dataset builders, the factor-wise
reference for the adapted layer, a naive per-sequence reference for the
whole model, and a per-block reference for quantization and the AdamW
step, and the per-line JSONL reader the one-pass codec replaced, used
across the test modules.
Everything is seeded; no test depends on wall clock, network, or
filesystem state outside tmp_path.
"""

import dataclasses
import json

import numpy as np
import pytest

from qlorakit import model
from qlorakit.errors import InputError
from qlorakit.fileio import MAX_JSON_DEPTH, echo, json_int, read_lines
from qlorakit.lora import flatten_adapters
from qlorakit.model import ToyModelSpec, init_adapters, init_model_params
from qlorakit.optim import adamw_step


@pytest.fixture
def small_spec():
    return ToyModelSpec(
        vocab_size=23,
        d_model=8,
        n_layers=2,
        n_heads=2,
        d_ff=12,
        n_classes=3,
        max_seq_len=6,
        adapter_targets=("attn_q", "attn_v"),
    )


@pytest.fixture
def small_setup(small_spec):
    """(spec, params, adapters, batch) on the small model."""
    params = init_model_params(small_spec, seed=7, profile="standard")
    adapters = init_adapters(small_spec, rank=2, alpha=4.0, seed=11)
    rng = np.random.default_rng(3)
    batch = [
        (rng.integers(0, small_spec.vocab_size, size=5), int(rng.integers(0, 3)))
        for _ in range(4)
    ]
    return small_spec, params, adapters, batch


def make_batch(spec, n, seed=0, seq_len=None):
    rng = np.random.default_rng(seed)
    t = seq_len or spec.max_seq_len
    return [
        (rng.integers(0, spec.vocab_size, size=t), int(rng.integers(0, spec.n_classes)))
        for _ in range(n)
    ]


class FactorWiseLinear:
    """Reference adapted layer: y = x @ W + s * (x @ B) @ A, the low-rank
    branch run factor by factor and never merged into W."""

    def __init__(self, weight, adapter):
        self.weight, self.adapter = weight, adapter

    def forward(self, x):
        y = x @ self.weight
        ad = self.adapter
        if ad is not None:
            y += ad.scaling * ((x @ ad.b_factor) @ ad.a_factor)
        return y

    def backward(self, dy, x, grads, name, need_dx=True):
        ad = self.adapter
        if ad is not None:
            s = ad.scaling
            grads[name + "/a"] += s * ((x @ ad.b_factor).T @ dy)
            t = dy @ ad.a_factor.T
            grads[name + "/b"] += s * (x.T @ t)
        if not need_dx:
            return None
        dx = dy @ self.weight.T
        if ad is not None:
            dx += s * (t @ ad.b_factor.T)
        return dx


def factor_wise_layers(params, spec, adapters):
    """model.adapted_layers' layers, each as a FactorWiseLinear."""
    return {name: FactorWiseLinear(layer.weight, (adapters or {}).get(name))
            for name, layer in model.adapted_layers(params, spec, None).items()}


def factor_wise_logits(params, spec, sequences, adapters):
    """forward_batch's logits from the factor-wise layers, every row run."""
    toks = [np.asarray(s, dtype=np.int64) for s in sequences]
    plan = model._pass_plan(factor_wise_layers(params, spec, adapters), spec)
    logits = np.empty((len(toks), spec.n_classes))
    for idx, pass_toks, valid in model._passes(toks):
        logits[idx], _ = model._forward_pass(params.weights, plan, spec, pass_toks,
                                             valid, need_tape=False)
    return logits


def factor_wise_loss_and_grads(params, spec, batch, adapters):
    """loss_and_grads computed on the factor-wise layers."""
    grads = {k: np.zeros_like(v)
             for k, v in flatten_adapters(adapters).items()}
    plan = model._pass_plan(factor_wise_layers(params, spec, adapters), spec)
    return model.loss_and_grads_into(params, spec, model.check_examples(batch, spec),
                                     plan, grads)


def naive_logits(params, spec, sequences, adapters):
    """Logits one sequence at a time, unpadded and unmasked, on the
    factor-wise layers, with each head's attention as the row formula
    softmax(q k^T / sqrt(dh)) v over the sequence's own keys: a reference
    for the batched, padded, key-major pass."""
    layers = factor_wise_layers(params, spec, adapters)
    dh = spec.head_dim
    logits = []
    for seq in sequences:
        toks = np.asarray(seq, dtype=np.int64)
        x = params.weights["tok_emb"][toks] + params.weights["pos_emb"][:toks.size]
        for i in range(spec.n_layers):
            pre = f"layers.{i}."
            q, k, v = (layers[pre + role].forward(x) for role in ("attn_q", "attn_k", "attn_v"))
            ctx = np.empty_like(x)
            for h in range(spec.n_heads):
                cols = slice(h * dh, (h + 1) * dh)
                scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
            x = x + layers[pre + "attn_o"].forward(ctx)
            hidden = np.maximum(layers[pre + "ffn_up"].forward(x), 0.0)
            x = x + layers[pre + "ffn_down"].forward(hidden)
        logits.append(layers["head"].forward(x.mean(axis=0, keepdims=True))[0])
    return np.array(logits)


def naive_loss(params, spec, batch, adapters):
    """Mean cross-entropy of naive_logits over (tokens, label) pairs."""
    logits = naive_logits(params, spec, [tokens for tokens, _ in batch], adapters)
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(log_p[np.arange(len(batch)), [label for _, label in batch]]))


def max_relative_error(actual, reference):
    """max |actual - reference| over max |reference|."""
    return float(np.max(np.abs(actual - reference)) / np.max(np.abs(reference)))


def round_half_away(x):
    """Round to nearest integer, ties away from zero (np.round ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def reference_quantize_8bit(v, block_size):
    """(int8 codes, float32 scales) of v, one absmax block at a time."""
    codes, scales = [], []
    for start in range(0, v.size, block_size):
        block = v[start:start + block_size]
        scale = np.float32(np.max(np.abs(block)) / 127)
        ratio = block / np.float64(scale) if scale > 0 else np.zeros_like(block)
        codes.append(np.clip(round_half_away(ratio), -127, 127).astype(np.int8))
        scales.append(scale)
    return np.concatenate(codes), np.array(scales, dtype=np.float32)


def reference_dequantize_8bit(codes, scales, block_size):
    return codes * np.repeat(scales.astype(np.float64), block_size)[:codes.size]


def reference_adamw_step(param, g, first, second, t, lr, cfg, block_size):
    """One AdamW step on flat buffers with each moment kept apart: float64
    arrays at 32 bits, (codes, scales) pairs at 8, the second of them
    holding sqrt(v). Mutates param; returns the new first and second
    moments and the L2 norms of the gradient and of the adaptive update."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    if cfg.state_bits == 8:
        m = reference_dequantize_8bit(*first, block_size)
        root = reference_dequantize_8bit(*second, block_size)
        v = root * root
    else:
        m, v = first, second
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    step = lr * ((m / bias1) / (np.sqrt(v / bias2) + eps))
    if cfg.state_bits == 8:
        m = reference_quantize_8bit(m, block_size)
        v = reference_quantize_8bit(np.sqrt(v), block_size)
    if cfg.weight_decay:
        param *= 1.0 - lr * cfg.weight_decay
    param -= step
    return m, v, float(np.sqrt(np.dot(g, g))), float(np.sqrt(np.dot(step, step)))


def step_params(params, grads, state, lr, cfg):
    """optim.adamw_step on dicts of arrays: bind params to state, write grads
    into its gradient views, step, and copy the parameters back into params.
    Returns the step's gradient and update norms."""
    flat, flat_grads = state.bind(params)
    for name, grad in grads.items():
        flat_grads[name][...] = grad
    norms = adamw_step(state, lr, cfg)
    for name, p in flat.items():
        params[name][...] = p
    return norms


def reference_json_depth(text: str) -> int:
    """The deepest nesting of [ and { outside JSON strings, one character at a time."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if escaped:
            escaped = False
        elif in_string:
            escaped, in_string = ch == "\\", ch != '"'
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


def reference_read_jsonl(path) -> list[dict]:
    """Reference JSONL decode: json.loads on each stripped non-blank line
    nested at most MAX_JSON_DEPTH deep, every line decoded before any row
    is checked."""
    rows = []
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        if reference_json_depth(line) > MAX_JSON_DEPTH:
            raise InputError(f"{path}:{lineno}: invalid JSON: "
                             f"nested deeper than {MAX_JSON_DEPTH} levels")
        try:
            value = json.loads(line)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(value, dict):
            raise InputError(f"{path}:{lineno}: expected a JSON object")
        rows.append(value)
    return rows


def reference_read_dataclass_jsonl(path, cls, what: str) -> list:
    """Reference for fileio.read_dataclass_jsonl: the same row checks, in
    the same order, on the rows reference_read_jsonl decodes."""
    types = {"int": int, "str": str, "bool": bool, "list[int]": list}
    names = {str: "string", bool: "boolean", list: "list"}
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    typed = [(f.name, types[kind]) for f in fields
             if (kind := getattr(f.type, "__name__", f.type)) in types]
    out = []
    for row in reference_read_jsonl(path):
        try:
            if not known >= row.keys() >= required:
                unknown = sorted(row.keys() - known)
                if unknown:
                    raise InputError(f"unknown {what} key {echo(unknown[0])}")
                raise InputError(f"missing {what} key {min(required - row.keys())!r}")
            for name, kind in typed:
                if name not in row:
                    continue
                if kind is int:
                    row[name] = json_int(row[name], name)
                elif type(row[name]) is not kind:
                    raise InputError(f"{name} must be a JSON {names[kind]}")
                elif kind is list:
                    row[name] = [json_int(value, f"{name} item") for value in row[name]]
            out.append(cls(**row))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return out
