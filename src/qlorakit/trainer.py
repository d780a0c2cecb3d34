"""Training loop: seeded shuffling, AdamW steps, loss trace, and the run
summary.

One optimizer step consumes a window of batch_size * grad_accum_steps
examples (the last window of an epoch may be short) in one
loss_and_grads call: the mean loss and gradients over the whole window,
computed in equal-length passes. Only the product of the two keys
matters; both stay because checkpoints and configs carry them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NumericError
from .fileio import atomic_write, read_lines
from .lora import LoraAdapter
from .model import (ModelParams, ToyModelSpec, base_fingerprint, dense_base,
                    forward_batch, loss_and_grads)
from .model import forward  # noqa: F401  (trainer.forward: one-sequence logits)
from .optim import OptimizerState, TrainConfig, adamw_step, lr_at


@dataclass(frozen=True)
class TraceEntry:
    step: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    adapters: dict
    trace: list
    summary: dict


def flatten_adapters(adapters: Mapping[str, LoraAdapter]) -> dict[str, np.ndarray]:
    """Adapter factors as a flat name -> array map.

    The arrays are the adapters' own buffers, so in-place optimizer
    updates train the adapters directly.
    """
    flat: dict[str, np.ndarray] = {}
    for name, ad in adapters.items():
        flat[name + "/b"] = ad.b_factor
        flat[name + "/a"] = ad.a_factor
    return flat


def planned_steps(n_examples: int, cfg: TrainConfig) -> int:
    per_step = cfg.batch_size * cfg.grad_accum_steps
    return -(-n_examples // per_step) * cfg.epochs


def train(dataset: Sequence[tuple], params: ModelParams, spec: ToyModelSpec,
          adapters: Mapping[str, LoraAdapter], cfg: TrainConfig) -> TrainResult:
    """Run cfg.epochs passes over dataset; returns trained adapters, the
    per-step loss trace, and a summary dict."""
    n = len(dataset)
    if n == 0:
        raise InputError("dataset must be non-empty")
    if not adapters:
        raise InputError("no adapters attached")
    flat = flatten_adapters(adapters)
    total_steps = planned_steps(n, cfg)
    lr_at(0, total_steps, cfg)  # validates warmup < total before any work
    state = OptimizerState.for_params(flat, cfg)
    rng = np.random.default_rng(cfg.seed)
    before = base_fingerprint(params)
    base = dense_base(params)  # a 4-bit base dequantizes once, not per step
    window = cfg.batch_size * cfg.grad_accum_steps

    t0 = time.perf_counter()
    trace: list[TraceEntry] = []
    step = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, window):
            batch = [dataset[int(i)] for i in order[start:start + window]]
            loss, grads = loss_and_grads(base, spec, batch, adapters)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at optimizer step {step}")
            lr = lr_at(step, total_steps, cfg)
            adamw_step(flat, grads, state, lr, cfg)
            trace.append(TraceEntry(step=step, lr=lr, loss=loss))
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
    lines = ["step,lr,loss"]
    lines.extend(f"{e.step},{e.lr!r},{e.loss!r}" for e in trace)
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[TraceEntry]:
    rows = [line.strip() for line in read_lines(path) if line.strip()]
    if not rows or rows[0] != "step,lr,loss":
        raise InputError(f"{path}: not a loss-trace CSV")
    out = []
    for row in rows[1:]:
        try:
            s, lr, loss = row.split(",")
            out.append(TraceEntry(step=int(s), lr=float(lr), loss=float(loss)))
        except ValueError as exc:
            raise InputError(f"{path}: bad trace row {row!r}: {exc}") from exc
    return out


def evaluate_accuracy(params: ModelParams, spec: ToyModelSpec,
                      adapters: Mapping[str, LoraAdapter] | None,
                      dataset: Sequence[tuple]) -> float:
    """Fraction of examples whose argmax logit matches the gold class."""
    if len(dataset) == 0:
        raise InputError("dataset must be non-empty")
    logits = forward_batch(params, spec, [tokens for tokens, _ in dataset], adapters)
    labels = np.array([int(label) for _, label in dataset])
    return int(np.sum(np.argmax(logits, axis=1) == labels)) / len(dataset)
