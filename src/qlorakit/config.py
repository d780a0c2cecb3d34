"""Flat run configuration: documented defaults, JSON config files, and
--set key=value overrides (overrides win over file values).

Every summary a pipeline stage writes echoes the effective configuration,
and feeding that echo back reproduces the run byte-for-byte (mock
backend). All component seeds derive from the single `seed` value.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigError
from .model import ToyModelSpec
from .optim import TrainConfig
from .qagen import LLMClientSpec
from .quant import DEFAULT_BLOCK_SIZE


@dataclass
class RunConfig:
    """Every pipeline knob. Optimizer, backend, quantization-block and
    adapter-target defaults come from the component that owns them."""

    # model topology
    vocab_size: int = 64
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    n_classes: int = 4
    max_seq_len: int = 32
    adapter_targets: str = ",".join(ToyModelSpec.adapter_targets)
    init_profile: str = "adapter_friendly"
    # optimization
    learning_rate: float = TrainConfig.learning_rate
    rank: int = TrainConfig.rank
    alpha: float = TrainConfig.alpha
    batch_size: int = TrainConfig.batch_size
    grad_accum_steps: int = TrainConfig.grad_accum_steps
    warmup_steps: int = TrainConfig.warmup_steps
    weight_decay: float = TrainConfig.weight_decay
    epochs: int = TrainConfig.epochs
    adam_beta1: float = TrainConfig.adam_beta1
    adam_beta2: float = TrainConfig.adam_beta2
    adam_epsilon: float = TrainConfig.adam_epsilon
    state_bits: int = TrainConfig.state_bits
    qlora: bool = False
    block_size: int = DEFAULT_BLOCK_SIZE
    # generation backend
    backend: str = LLMClientSpec.backend
    endpoint: str = LLMClientSpec.endpoint
    model_name: str = LLMClientSpec.model_name
    credential_env: str = LLMClientSpec.credential_env
    max_retries: int = LLMClientSpec.max_retries
    timeout_s: float = LLMClientSpec.timeout_s
    max_concurrency: int = LLMClientSpec.max_concurrency
    # data handling
    test_fraction: float = 0.2
    seed: int = 0


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_DEFAULTS = RunConfig()


def _coerce(key: str, value, target_type):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes", "on"):
            return True
        if text in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: cannot read {value!r} as a boolean")
    if target_type is int and (isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"config key {key}: cannot read {value!r} as int")
    try:
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"config key {key}: cannot read {value!r} as {target_type.__name__}"
        ) from exc


def load_config(path=None, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Defaults, then JSON file values, then overrides; unknown keys rejected."""
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:  # bad UTF-8 is a ValueError too
                file_values = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"{path}: config must be a flat JSON object")
        values.update(file_values)
    if overrides:
        values.update(overrides)
    kwargs = {}
    for key, value in values.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        kwargs[key] = _coerce(key, value, type(getattr(_DEFAULTS, key)))
    return RunConfig(**kwargs)


def parse_set_overrides(pairs) -> dict:
    """--set key=value strings to an override map."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def derive_seed(seed: int, tag: str) -> int:
    """Stable component seed from the run seed and a role tag."""
    return (int(seed) * 0x9E3779B1 + zlib.crc32(tag.encode("utf-8"))) % 2**31


def model_spec_from(cfg: RunConfig, n_classes: int | None = None) -> ToyModelSpec:
    targets = tuple(t.strip() for t in cfg.adapter_targets.split(",") if t.strip())
    return ToyModelSpec(
        vocab_size=cfg.vocab_size,
        d_model=cfg.d_model,
        n_layers=cfg.n_layers,
        n_heads=cfg.n_heads,
        d_ff=cfg.d_ff,
        n_classes=cfg.n_classes if n_classes is None else n_classes,
        max_seq_len=cfg.max_seq_len,
        adapter_targets=targets,
    )


def _copy_fields(cls, cfg: RunConfig, **given):
    """Build a component config from the RunConfig fields of the same name."""
    copied = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)
              if f.name not in given}
    return cls(**copied, **given)


def train_config_from(cfg: RunConfig) -> TrainConfig:
    return _copy_fields(TrainConfig, cfg, seed=derive_seed(cfg.seed, "train"))


def client_spec_from(cfg: RunConfig) -> LLMClientSpec:
    return _copy_fields(LLMClientSpec, cfg)
