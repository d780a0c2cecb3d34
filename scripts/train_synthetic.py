"""Adapter fine-tuning on the synthetic token-classification task.

Uses the library API directly (no CLI): builds the toy transformer,
trains a LoRA run against the dense base and a QLoRA run against the
4-bit base with the default training configuration, and reports loss,
accuracy, and the trainable-parameter budget for both.
"""

import argparse
import inspect
import sys

from qlorakit.config import derive_seed, load_config, model_spec_from, train_config_from
from qlorakit.model import init_adapters, init_model_params, quantize_base
from qlorakit.tasks import synthetic_token_task
from qlorakit.trainer import evaluate_accuracy, train


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    task = inspect.signature(synthetic_token_task).parameters
    ap.add_argument("--n-train", type=int, default=task["n_train"].default)
    ap.add_argument("--n-test", type=int, default=task["n_test"].default)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cfg = load_config(overrides={"seed": args.seed})
    spec = model_spec_from(cfg)
    train_cfg = train_config_from(cfg)
    train_set, test_set = synthetic_token_task(
        args.n_train, args.n_test, vocab_size=cfg.vocab_size, n_classes=cfg.n_classes,
        seed=derive_seed(cfg.seed, "task"))
    print(f"task: {len(train_set)} train / {len(test_set)} test, "
          f"{cfg.n_classes} token-pattern classes")

    for variant in ("lora", "qlora"):
        params = init_model_params(spec, seed=derive_seed(cfg.seed, "model"))
        if variant == "qlora":
            params = quantize_base(params, spec)
        adapters = init_adapters(spec, rank=train_cfg.rank,
                                 alpha=train_cfg.alpha,
                                 seed=derive_seed(cfg.seed, "adapters"))
        result = train(train_set, params, spec, adapters, train_cfg)
        s = result.summary
        acc = evaluate_accuracy(params, spec, result.adapters, test_set)
        print(f"[{variant}] steps {s['optimizer_steps']}, "
              f"loss {s['initial_loss']:.4f} -> {s['final_mean_loss']:.4f} "
              f"(ratio {s['final_mean_loss'] / s['initial_loss']:.3f}), "
              f"test accuracy {acc:.3f}, "
              f"trainable {s['trainable_params']} of {s['total_base_params']} "
              f"({s['trainable_percent']:.2f}%), "
              f"{s['wall_time_s']:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
