"""Shared fixtures: small model specs, dataset builders, the factor-wise
reference for the adapted layer and a naive per-sequence reference for the
whole model, used across the test modules.
Everything is seeded; no test depends on wall clock, network, or
filesystem state outside tmp_path.
"""

import numpy as np
import pytest

from qlorakit import model
from qlorakit.lora import flatten_adapters
from qlorakit.model import ToyModelSpec, init_adapters, init_model_params


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
    layers = factor_wise_layers(params, spec, adapters)
    logits = np.empty((len(toks), spec.n_classes))
    for idx, pass_toks, valid in model._passes(toks):
        logits[idx], _ = model._forward_pass(params.weights, layers, spec, pass_toks,
                                             valid, need_tape=False)
    return logits


def factor_wise_loss_and_grads(params, spec, batch, adapters):
    """loss_and_grads computed on the factor-wise layers."""
    grads = {k: np.zeros_like(v)
             for k, v in flatten_adapters(adapters).items()}
    return model.loss_and_grads_into(params, spec, model.check_examples(batch, spec),
                                     factor_wise_layers(params, spec, adapters), grads)


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
