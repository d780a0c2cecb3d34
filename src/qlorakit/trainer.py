"""Training loop: seeded shuffling, AdamW steps, loss trace, and the run
summary.

One optimizer step consumes a window of batch_size * grad_accum_steps
examples (the last window of an epoch may be short) in one
loss_and_grads call: the mean loss and gradients over the whole window,
computed in length-sorted, padded passes. Only the product of the two keys
matters; both stay because checkpoints and configs carry them.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NumericError
from .fileio import atomic_write
from .lora import LoraAdapter, flatten_adapters
from .model import (ModelParams, ToyModelSpec, _logits, _pass_plan, adapted_layers,
                    base_fingerprint, check_examples)
from .model import forward  # noqa: F401  (trainer.forward: one-sequence logits)
from .optim import OptimizerState, TrainConfig, adamw_step, lr_at
# loss_and_grads minus its per-call checks, named so perfbench's wrapper sees every window
from .model import loss_and_grads_into as loss_and_grads


@dataclass(frozen=True)
class TraceEntry:
    """One optimizer step: its 0-based epoch, the examples consumed through
    it, and the L2 norms of the window's mean gradient and of the adaptive
    update (before weight decay)."""

    step: int
    epoch: int
    examples_seen: int
    lr: float
    loss: float
    grad_norm: float
    update_norm: float


TRACE_HEADER = ",".join(f.name for f in fields(TraceEntry))
_trace_row = attrgetter(*TRACE_HEADER.split(","))  # the fields as a tuple, without astuple's copies


@dataclass
class TrainResult:
    adapters: dict
    trace: list
    summary: dict


def planned_steps(n_examples: int, cfg: TrainConfig) -> int:
    per_step = cfg.batch_size * cfg.grad_accum_steps
    return -(-n_examples // per_step) * cfg.epochs


def train(dataset: Sequence[tuple], params: ModelParams, spec: ToyModelSpec,
          adapters: Mapping[str, LoraAdapter], cfg: TrainConfig) -> TrainResult:
    """Run cfg.epochs passes over dataset; returns trained adapters, the
    per-step loss trace, and a summary dict."""
    n = len(dataset)
    if not adapters:
        raise InputError("no adapters attached")
    examples = check_examples(dataset, spec)
    total_steps = planned_steps(n, cfg)
    lr_at(0, total_steps, cfg)  # validates warmup < total before any work
    flat = flatten_adapters(adapters)
    state = OptimizerState.for_params(flat, cfg)
    rng = np.random.default_rng(cfg.seed)
    before = base_fingerprint(params)
    layers = adapted_layers(params, spec, adapters)  # a 4-bit base dequantizes here, once
    merged = [layers[name] for name in adapters]
    plan = _pass_plan(layers, spec)
    # factors move into views of the state's flat buffer; windows add into grads
    flat, grads = state.bind(flat)
    for name, ad in adapters.items():
        ad.b_factor, ad.a_factor = flat[name + "/b"], flat[name + "/a"]
    window = cfg.batch_size * cfg.grad_accum_steps

    t0 = time.perf_counter()
    trace: list[TraceEntry] = []
    step = seen = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n).tolist()
        for start in range(0, n, window):
            batch = [examples[i] for i in order[start:start + window]]
            loss, _ = loss_and_grads(params, spec, batch, plan, grads)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at optimizer step {step}")
            lr = lr_at(step, total_steps, cfg)
            grad_norm, update_norm = adamw_step(state, lr, cfg)
            for layer in merged:
                layer.remerge()
            seen += len(batch)
            trace.append(TraceEntry(step, epoch, seen, lr, loss, grad_norm, update_norm))
            step += 1
    wall = time.perf_counter() - t0

    if base_fingerprint(params) != before:
        raise NumericError("frozen base weights changed during training")

    tail = max(1, -(-len(trace) // 10))
    trainable = sum(v.size for v in flat.values())
    total_base = spec.total_params()
    summary = {
        "examples": n,
        "optimizer_steps": step,
        "planned_steps": total_steps,
        "initial_loss": trace[0].loss,
        "final_mean_loss": float(np.mean([e.loss for e in trace[-tail:]])),
        "final_tail_window": tail,
        "final_lr": trace[-1].lr,
        "wall_time_s": wall,
        "trainable_params": trainable,
        "total_base_params": total_base,
        "trainable_percent": 100.0 * trainable / total_base,
        "shuffle": "fisher-yates (seeded, per epoch)",
        "train_config": asdict(cfg),
    }
    return TrainResult(adapters=dict(adapters), trace=trace, summary=summary)


def write_trace_csv(trace: Sequence[TraceEntry], path) -> None:
    lines = [TRACE_HEADER]
    lines.extend(",".join(map(repr, _trace_row(e))) for e in trace)
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def evaluate_accuracy(params: ModelParams, spec: ToyModelSpec,
                      adapters: Mapping[str, LoraAdapter] | None,
                      dataset: Sequence[tuple]) -> float:
    """Fraction of examples whose argmax logit matches the gold class; tokens
    and labels are checked as loss_and_grads checks them."""
    examples = check_examples(dataset, spec)
    logits = _logits(params, spec, [tokens for tokens, _ in examples], adapters)
    labels = np.array([label for _, label in examples], dtype=np.int64)
    return int(np.sum(np.argmax(logits, axis=1) == labels)) / len(dataset)
