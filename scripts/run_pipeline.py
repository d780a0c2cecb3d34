"""Full question-answering pipeline demo driven through the CLI.

Generates a mock scenario corpus, trains LoRA and QLoRA adapter runs on
it, scores both on the held-out scenario split, and merges the two
metric columns into one report.

The corpus task is compositional (four answer categories share one
encoder), so this demo raises the learning rate and epoch count above
the single-epoch defaults; both knobs are plain --set overrides.
"""

import argparse
import sys
from pathlib import Path


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="pipeline_run", help="working directory")
    ap.add_argument("--scenarios", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--lr", type=float, default=1e-3)
    return ap


def stages(args) -> list[tuple[str, list[str]]]:
    """(name, qlorakit argv) of each CLI stage the demo runs, in order."""
    root = Path(args.out)
    scen = root / "scenarios.jsonl"
    data = root / "data"
    evals = root / "evals"
    seed = str(args.seed)
    overrides = ["--set", f"learning_rate={args.lr}",
                 "--set", f"epochs={args.epochs}"]
    out = [("make-scenarios", ["make-scenarios", "--n", str(args.scenarios), "--out", str(scen),
                               "--seed", seed]),
           ("gen-data", ["gen-data", "--scenarios", str(scen), "--out", str(data),
                         "--seed", seed]),
           ("split", ["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data),
                      "--seed", seed])]
    for variant, extra in (("lora", []), ("qlora", ["--qlora"])):
        run_dir = root / f"run_{variant}"
        preds = root / f"preds_{variant}.jsonl"
        out += [(f"train {variant}", ["train", "--data", str(data), "--out", str(run_dir),
                                      "--seed", seed] + extra + overrides),
                (f"predict {variant}", ["predict", "--run", str(run_dir), "--data", str(data),
                                        "--out", str(preds), "--split", "test"]),
                (f"eval {variant}", ["eval", "--preds", str(preds),
                                     "--gold", str(data / "corpus.jsonl"),
                                     "--labels", str(data / "labels"), "--out", str(evals),
                                     "--manifest", str(data / "test_ids.txt"), "--seed", seed,
                                     "--model-name", f"{variant}-toy"])]
    return out + [("report", ["report", "--in", str(evals)])]


def main(argv=None) -> int:
    from qlorakit.cli import main as cli

    args = parser().parse_args(argv)
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    for _, stage in stages(args):
        print("$ qlorakit " + " ".join(stage))
        rc = cli(stage)
        if rc != 0:
            sys.exit(f"step failed with exit code {rc}: {stage[0]}")

    print()
    print((root / "evals" / "report.txt").read_text(), end="")
    print(f"\nartifacts under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
