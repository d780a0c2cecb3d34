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

Flat layout: each moment of all parameters lives in one flat buffer, so a
step is one moment update and one dequantize / quantize per moment, not
one per parameter. Parameters sit in sorted-name order; each segment
starts on a block_size boundary and is zero-padded up to the next one.
Blocks therefore never straddle two parameters, and zero padding never
changes a block's absmax, so quantizing the whole buffer gives the same
codes and scales as quantizing each parameter alone. Padding has zero
gradient, so its moments and updates stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Adam moments for all parameters in one flat buffer per moment: a
    Q8Vector when state_bits is 8 (`second` then holds the quantized
    *square root* of the second moment, see module docstring), a float64
    array when it is 32.

    `layout` lists (name, size, offset) in sorted-name order; every
    offset is a multiple of block_size and the gaps are zero padding.
    `first[name]` / `second[name]` are per-parameter views.
    """

    state_bits: int
    block_size: int
    layout: tuple
    first_flat: Q8Vector | np.ndarray
    second_flat: Q8Vector | np.ndarray
    step_count: int = 0

    def __post_init__(self):
        # flat parameter and gradient buffers in layout order, reused every
        # step; not fields, so they are not counted as optimizer state
        flat = self.first_flat
        n = flat.length if isinstance(flat, Q8Vector) else flat.size
        self._param, self._grad = np.zeros(n), np.zeros(n)

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray], cfg: TrainConfig,
                   block_size: int = DEFAULT_BLOCK_SIZE) -> "OptimizerState":
        if block_size < 1:
            raise InputError(f"block_size must be >= 1, got {block_size}")
        layout, offset = [], 0
        for name in sorted(params):
            size = int(np.size(params[name]))
            layout.append((name, size, offset))
            offset += -(-size // block_size) * block_size
        zeros = np.zeros(offset, dtype=np.float64)
        if cfg.state_bits == 8:
            first = quantize_8bit(zeros, block_size)
            second = quantize_8bit(zeros, block_size)
        else:
            first, second = zeros, zeros.copy()
        return cls(state_bits=cfg.state_bits, block_size=block_size,
                   layout=tuple(layout), first_flat=first, second_flat=second)

    def bind(self, params: Mapping[str, np.ndarray]) -> tuple[dict, dict]:
        """Copy the params this state was built for into its flat parameter
        buffer; return parameter and gradient views, shaped like params."""
        for name, size, off in self.layout:
            self._param[off:off + size] = np.ravel(params[name])
        return tuple({name: flat[off:off + size].reshape(np.shape(params[name]))
                      for name, size, off in self.layout}
                     for flat in (self._param, self._grad))

    @property
    def first(self) -> dict:
        return self._views(self.first_flat)

    @property
    def second(self) -> dict:
        return self._views(self.second_flat)

    def _views(self, flat) -> dict:
        if isinstance(flat, np.ndarray):
            return {name: flat[off:off + size] for name, size, off in self.layout}
        bs = self.block_size
        return {name: Q8Vector(length=size, block_size=bs,
                               codes=flat.codes[off:off + size],
                               scales=flat.scales[off // bs:(off + size + bs - 1) // bs])
                for name, size, off in self.layout}


def adamw_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
               state: OptimizerState, lr: float, cfg: TrainConfig):
    """One Adam step with decoupled decay; mutates params and state in place.

    The decay p <- p * (1 - lr * weight_decay) is applied before the
    adaptive update, so it never flows through the moments. Every check
    runs before anything is mutated.
    """
    if set(grads) != set(params):
        missing = sorted(set(params) - set(grads))
        extra = sorted(set(grads) - set(params))
        raise InputError(
            f"gradients must cover exactly the trainable parameters "
            f"(missing {missing}, extra {extra})"
        )
    names = {name for name, _size, _off in state.layout}
    if set(params) != names:
        raise InputError(
            f"parameters do not match the optimizer state "
            f"(missing {sorted(names - set(params))}, "
            f"extra {sorted(set(params) - names)})"
        )
    for name, size, off in state.layout:
        p, grad = params[name], np.asarray(grads[name], dtype=np.float64)
        if p.size != size:
            raise InputError(
                f"parameter {name!r} has {p.size} elements, "
                f"the optimizer state was built for {size}"
            )
        if grad.shape != p.shape:
            raise InputError(
                f"gradient for {name!r} has shape {grad.shape}, parameter has {p.shape}"
            )
        state._grad[off:off + size] = grad.ravel()
        state._param[off:off + size] = p.ravel()
    adamw_step_flat(state, lr, cfg)
    for name, size, off in state.layout:
        params[name][...] = state._param[off:off + size].reshape(params[name].shape)
    return params, state


def adamw_step_flat(state: OptimizerState, lr: float, cfg: TrainConfig) -> tuple[float, float]:
    """adamw_step on the flat buffers of OptimizerState.bind, run once over
    them; it zeroes the gradients after use, ready for the next step's.
    Returns the L2 norms of the gradient and of the adaptive update (the
    step before weight decay)."""
    g = state._grad
    if not np.isfinite(g).all():
        bad = next(name for name, size, off in state.layout
                   if not np.isfinite(g[off:off + size]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")

    t = state.step_count + 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    if state.state_bits == 8:
        m = dequantize_8bit(state.first_flat)
        root = dequantize_8bit(state.second_flat)
        v = root * root
    else:
        m, v = state.first_flat, state.second_flat
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    step = lr * ((m / bias1) / (np.sqrt(v / bias2) + eps))
    if state.state_bits == 8:
        m = quantize_8bit(m, state.block_size)
        v = quantize_8bit(np.sqrt(v), state.block_size)
    state.first_flat, state.second_flat = m, v
    if cfg.weight_decay:
        state._param *= 1.0 - lr * cfg.weight_decay
    state._param -= step
    grad_norm = float(np.sqrt(np.dot(g, g)))
    g.fill(0.0)
    state.step_count = t
    return grad_norm, float(np.sqrt(np.dot(step, step)))
