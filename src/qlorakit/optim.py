"""AdamW with decoupled weight decay, optional 8-bit moment storage, and
the linear warmup/decay learning-rate schedule.

Schedule (peak = learning_rate, W = warmup_steps, T = total optimizer steps):
  step <  W: lr = peak * (step + 1) / W      (ramps up, hits peak at W-1)
  step >= W: lr = peak * (T - step) / (T - W) (continuous at the peak,
             decays toward zero; the last step still has lr > 0)

8-bit state: moments are stored as blockwise absmax int8 (block 64) and
dequantized / updated in place / requantized every step. The second moment is
stored via its square root: storing v itself doubles the dynamic range
inside a block, small-but-active coordinates flush to code 0 while their
first moment survives, and m_hat / (sqrt(v_hat) + eps) then produces
huge updates. In the sqrt domain both moments share dynamic range, and
wherever sqrt(v) flushes to zero, m flushes too.

Flat layout: both moments of all parameters live in one flat buffer, so a
step is one moment update, one dequantize and one quantize. Parameters sit
in sorted-name order, first moments then second; each segment
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
from .quant import DEFAULT_BLOCK_SIZE, Q8_TOP, Q8Vector, _n_blocks, dequantize_8bit, quantize_8bit


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
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
        if not (np.isfinite(self.adam_epsilon) and self.adam_epsilon > 0):
            raise ConfigError(f"adam_epsilon must be finite and > 0, got {self.adam_epsilon}")
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


# the largest |value| an 8-bit moment block holds; beyond it a gradient entry
# is refused at either state width
GRAD_LIMIT = Q8_TOP * float(np.finfo(np.float32).max)


@dataclass
class OptimizerState:
    """Adam moments for all parameters in one flat buffer, first moments then
    second: a Q8Vector when state_bits is 8 (its second half holds the
    quantized *square root* of v, see module docstring), a float64 array
    when it is 32.

    `layout` lists (name, size, offset) in sorted-name order; every
    offset is a multiple of block_size and the gaps are zero padding.
    `first[name]` / `second[name]` are per-parameter views.
    """

    state_bits: int
    block_size: int
    layout: tuple
    moments: Q8Vector | np.ndarray
    step_count: int = 0

    def __post_init__(self):
        # flat parameter and gradient buffers in layout order, reused every
        # step; not fields, so they are not counted as optimizer state
        m = self.moments
        n = (m.length if isinstance(m, Q8Vector) else m.size) // 2
        self._param, self._grad = np.zeros(n), np.zeros(n)

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray], cfg: TrainConfig,
                   block_size: int = DEFAULT_BLOCK_SIZE) -> "OptimizerState":
        layout, offset = [], 0
        for name in sorted(params):
            size = int(np.size(params[name]))
            layout.append((name, size, offset))
            offset += _n_blocks(size, block_size) * block_size
        moments = np.zeros(2 * offset)
        if cfg.state_bits == 8:
            moments = quantize_8bit(moments, block_size)
        return cls(state_bits=cfg.state_bits, block_size=block_size,
                   layout=tuple(layout), moments=moments)

    def bind(self, params: Mapping[str, np.ndarray]) -> tuple[dict, dict]:
        """Copy the params this state was built for into its flat parameter
        buffer; return parameter and gradient views, shaped like params.
        Params whose names or element counts differ from the layout raise
        InputError before anything is copied."""
        names, given = {name for name, _size, _off in self.layout}, set(params)
        if given != names:
            raise InputError(f"parameters do not match the optimizer state "
                             f"(missing {sorted(names - given)}, extra {sorted(given - names)})")
        for name, size, _off in self.layout:
            if np.size(params[name]) != size:
                raise InputError(f"parameter {name!r} has {np.size(params[name])} elements, "
                                 f"the optimizer state was built for {size}")
        for name, size, off in self.layout:
            self._param[off:off + size] = np.ravel(params[name])
        return tuple({name: flat[off:off + size].reshape(np.shape(params[name]))
                      for name, size, off in self.layout}
                     for flat in (self._param, self._grad))

    @property
    def first(self) -> dict:
        return {name: self._part(off, size) for name, size, off in self.layout}

    @property
    def second(self) -> dict:
        return {name: self._part(self._param.size + off, size) for name, size, off in self.layout}

    def _part(self, start: int, size: int) -> Q8Vector | np.ndarray:
        """Moment entries [start, start + size); start is a block boundary."""
        m, bs = self.moments, self.block_size
        if isinstance(m, np.ndarray):
            return m[start:start + size]
        return Q8Vector(length=size, block_size=bs, codes=m.codes[start:start + size],
                        scales=m.scales[start // bs:-(-(start + size) // bs)])


def adamw_step(state: OptimizerState, lr: float, cfg: TrainConfig) -> tuple[float, float]:
    """One Adam step with decoupled decay over the flat buffers of
    OptimizerState.bind; mutates them and the state in place, and zeroes the
    gradients after use, ready for the next step's. The decay
    p <- p * (1 - lr * weight_decay) is applied before the adaptive update,
    so it never flows through the moments. Returns the L2 norms of the
    gradient and of the adaptive update (the step before weight decay). A
    gradient entry that is NaN or beyond GRAD_LIMIT in magnitude raises
    NumericError before anything is mutated."""
    g = state._grad
    if not np.abs(g).max(initial=0.0) <= GRAD_LIMIT:  # a NaN compares False
        bad = next(name for name, size, off in state.layout
                   if not np.abs(g[off:off + size]).max(initial=0.0) <= GRAD_LIMIT)
        raise NumericError(f"non-finite or huge gradient for parameter {bad!r}")

    t = state.step_count + 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    # m and v: rows of a dequantized copy at 8 bits, of the state itself at 32
    if state.state_bits == 8:
        m, v = mv = dequantize_8bit(state.moments).reshape(2, -1)
        v *= v
    else:
        m, v = state.moments.reshape(2, -1)
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    step = lr * ((m / bias1) / (np.sqrt(v / bias2) + eps))
    if state.state_bits == 8:
        np.sqrt(v, out=v)
        state.moments = quantize_8bit(mv.reshape(-1), state.block_size)
    if cfg.weight_decay:
        state._param *= 1.0 - lr * cfg.weight_decay
    state._param -= step
    grad_norm = float(np.sqrt(np.dot(g, g)))
    g.fill(0.0)
    state.step_count = t
    return grad_norm, float(np.sqrt(np.dot(step, step)))
