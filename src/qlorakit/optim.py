"""AdamW with decoupled weight decay, optional 8-bit moment storage, and
the linear warmup/decay learning-rate schedule.

Schedule (peak = learning_rate, W = warmup_steps, T = total optimizer steps):
  step <  W: lr = peak * (step + 1) / W      (ramps up, hits peak at W-1)
  step >= W: lr = peak * (T - step) / (T - W) (continuous at the peak,
             decays toward zero; the last step still has lr > 0)

8-bit state: moments are stored as blockwise absmax int8 (block 64) and
dequantized / updated / requantized every step. The second moment is
stored via its square root: storing v itself doubles the dynamic range
inside a block, small-but-active coordinates flush to code 0 while their
first moment survives, and m_hat / (sqrt(v_hat) + eps) then produces
huge updates. In the sqrt domain both moments share dynamic range, and
wherever sqrt(v) flushes to zero, m flushes too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .quant import DEFAULT_BLOCK_SIZE, Q8Vector, dequantize_8bit, quantize_8bit


@dataclass
class TrainConfig:
    learning_rate: float = 2e-4
    rank: int = 16
    alpha: float = 16.0
    batch_size: int = 2
    grad_accum_steps: int = 4
    warmup_steps: int = 5
    weight_decay: float = 0.01
    epochs: int = 1
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    state_bits: int = 8

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.grad_accum_steps < 1:
            raise ConfigError(f"grad_accum_steps must be >= 1, got {self.grad_accum_steps}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if not 0.0 <= self.weight_decay < 1.0:
            raise ConfigError(f"weight_decay must lie in [0, 1), got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for key in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, key)
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {beta}")
        if self.adam_epsilon <= 0:
            raise ConfigError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.state_bits not in (8, 32):
            raise ConfigError(f"state_bits must be 8 or 32, got {self.state_bits}")


def lr_at(step: int, total_optimizer_steps: int, cfg: TrainConfig) -> float:
    if total_optimizer_steps <= cfg.warmup_steps:
        raise ConfigError(
            f"total optimizer steps ({total_optimizer_steps}) must exceed "
            f"warmup_steps ({cfg.warmup_steps})"
        )
    if not 0 <= step < total_optimizer_steps:
        raise InputError(
            f"step {step} outside [0, {total_optimizer_steps})"
        )
    peak = cfg.learning_rate
    if step < cfg.warmup_steps:
        return peak * (step + 1) / cfg.warmup_steps
    return peak * (total_optimizer_steps - step) / (total_optimizer_steps - cfg.warmup_steps)


@dataclass
class OptimizerState:
    """Per-parameter Adam moments, full precision or Q8 per state_bits.

    When state_bits is 8, `second` holds the quantized *square root* of
    the second moment (see module docstring).
    """

    state_bits: int
    block_size: int = DEFAULT_BLOCK_SIZE
    step_count: int = 0
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray], cfg: TrainConfig,
                   block_size: int = DEFAULT_BLOCK_SIZE) -> "OptimizerState":
        state = cls(state_bits=cfg.state_bits, block_size=block_size)
        for name, p in params.items():
            zeros = np.zeros(p.size, dtype=np.float64)
            if cfg.state_bits == 8:
                state.first[name] = quantize_8bit(zeros, block_size)
                state.second[name] = quantize_8bit(zeros, block_size)
            else:
                state.first[name] = zeros.copy()
                state.second[name] = zeros.copy()
        return state


def _load(entry) -> np.ndarray:
    return dequantize_8bit(entry) if isinstance(entry, Q8Vector) else entry


def adamw_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
               state: OptimizerState, lr: float, cfg: TrainConfig):
    """One Adam step with decoupled decay; mutates params and state in place.

    The decay p <- p * (1 - lr * weight_decay) is applied before the
    adaptive update, so it never flows through the moments.
    """
    if set(grads) != set(params):
        missing = sorted(set(params) - set(grads))
        extra = sorted(set(grads) - set(params))
        raise InputError(
            f"gradients must cover exactly the trainable parameters "
            f"(missing {missing}, extra {extra})"
        )
    t = state.step_count + 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name in sorted(params):
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise InputError(
                f"gradient for {name!r} has shape {g.shape}, parameter has {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if cfg.weight_decay:
            p *= 1.0 - lr * cfg.weight_decay
        flat_g = g.ravel()
        m = _load(state.first[name])
        if state.state_bits == 8:
            root = _load(state.second[name])
            v = root * root
        else:
            v = state.second[name]
        m = b1 * m + (1.0 - b1) * flat_g
        v = b2 * v + (1.0 - b2) * flat_g * flat_g
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        p -= (lr * update).reshape(p.shape)
        if state.state_bits == 8:
            state.first[name] = quantize_8bit(m, state.block_size)
            state.second[name] = quantize_8bit(np.sqrt(v), state.block_size)
        else:
            state.first[name] = m
            state.second[name] = v
    state.step_count = t
    return params, state
