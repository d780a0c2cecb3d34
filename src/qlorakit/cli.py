"""Single entry point for the whole pipeline.

Subcommands: make-scenarios, gen-data, split, make-synthetic, train,
predict, eval, report, inspect-quant. What main returns for each error,
and the one stderr line it prints, is README's Exit codes table. Given the
same inputs and seeds (mock backend), every artifact is byte-identical
across runs but for summary.json's wall_time_s.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import glob
import hashlib
import inspect
import json
import os
import re
import sys
import warnings

import numpy as np

from . import config as cfgmod
from . import evalharness as ev
from . import qagen
from . import tasks
from .errors import (ConfigError, InputError, NumericError, QAParseError,
                     ShapeError, TransportError)
from .fileio import atomic_write, echo, json_int, read_json, write_jsonl
from .lora import flatten_adapters, load_adapters, save_adapters
from .matrix import as_matrix
from .model import (EMBEDDINGS, base_fingerprint, check_examples, init_adapters,
                    init_model_params, quantize_base)
from .optim import OptimizerState
from .quant import (DEFAULT_BLOCK_SIZE, dequantize_4bit, footprint_report, q4_nbytes,
                    quantize_4bit)
from .trainer import evaluate_accuracy, train, write_trace_csv

CORPUS_FILE = "corpus.jsonl"
REJECTS_FILE = "rejects.jsonl"
LABELS_DIR = "labels"
TRAIN_IDS = "train_ids.txt"
TEST_IDS = "test_ids.txt"
ADAPTERS_FILE = "adapters.bin"
TRACE_FILE = "trace.csv"
SUMMARY_FILE = "summary.json"

_MODEL_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")  # eval's and report's one rule
_METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "sample_count")


def _err(message: str) -> None:
    print("error: " + " ".join(str(message).split()), file=sys.stderr)


def _write_json(path, payload: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_cfg(args, **flag_overrides) -> cfgmod.RunConfig:
    overrides = cfgmod.parse_set_overrides(getattr(args, "set", None))
    for key, value in flag_overrides.items():
        if value is not None:
            overrides[key] = value
    return cfgmod.load_config(getattr(args, "config", None), overrides)


def _frozen_base(cfg: cfgmod.RunConfig, spec):
    """The frozen base a config builds; train and predict both rebuild it here,
    so a checkpoint's base_sha256 matches whenever the config does."""
    params = init_model_params(spec, cfgmod.derive_seed(cfg.seed, "model"), cfg.init_profile)
    return quantize_base(params, spec, cfg.block_size) if cfg.qlora else params


def _base_sha256(params) -> str:
    """Identity of a rebuilt frozen base, stored in and checked against checkpoints."""
    return hashlib.sha256(base_fingerprint(params)).hexdigest()


def _records(path, manifest=None) -> list:
    """The QA records in path, kept to the ids a manifest lists if one is
    given; a listed id path lacks and an empty selection are InputErrors."""
    records = qagen.read_records_jsonl(path)
    if manifest:
        keep = dict.fromkeys(qagen.read_manifest(manifest))  # a set in manifest order
        known = {r.scenario_id for r in records}
        if unknown := [sid for sid in keep if sid not in known]:
            raise InputError(f"{manifest}: scenario id {echo(unknown[0])} is not in {path}")
        records = [r for r in records if r.scenario_id in keep]
    if not records:
        raise InputError(f"no records in {path}" + (f" listed in {manifest}" if manifest else ""))
    return records


def _read_summary(path, what: str, keys: str, ints: str) -> dict:
    """JSON that make-synthetic or eval wrote: no key but keys and ints, and ints are integers."""
    summary = read_json(path)
    if unknown := sorted(summary.keys() - {*keys.split(), *ints.split()}):
        raise InputError(f"{path}: unknown key {echo(unknown[0])}")
    for key in filter(summary.__contains__, ints.split()):
        json_int(summary[key], what + key)
    return summary


# ---- subcommand handlers ----

def cmd_make_scenarios(args) -> int:
    cfg = _load_cfg(args, seed=args.seed)
    scenarios = tasks.synthetic_scenarios(
        args.n, cfgmod.derive_seed(cfg.seed, "scenarios"))
    write_jsonl(args.out, scenarios)
    print(f"make-scenarios: wrote {len(scenarios)} scenarios to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args, seed=args.seed, backend=args.backend)
    scenarios = qagen.read_scenarios_jsonl(args.scenarios)
    client_spec = cfgmod.client_spec_from(cfg)
    client = qagen.make_client(client_spec, seed=cfgmod.derive_seed(cfg.seed, "qagen"))
    result = qagen.generate_dataset(scenarios, client,
                                    max_retries=cfg.max_retries,
                                    max_concurrency=cfg.max_concurrency)
    write_jsonl(os.path.join(args.out, CORPUS_FILE), result.records)
    write_jsonl(os.path.join(args.out, REJECTS_FILE), result.rejects)
    ev.write_label_files(os.path.join(args.out, LABELS_DIR), tasks.DEFAULT_LABEL_SETS)
    _write_json(os.path.join(args.out, "gen_summary.json"),
                {"stats": result.stats, "config": dataclasses.asdict(cfg)})
    print(f"gen-data: {result.stats['records']} records, "
          f"{result.stats['rejected']} rejected -> {args.out}")
    return 0


def cmd_split(args) -> int:
    cfg = _load_cfg(args, seed=args.seed, test_fraction=args.test_fraction)
    records = qagen.read_records_jsonl(args.corpus)
    train_ids, test_ids = qagen.split_dataset(
        records, cfg.test_fraction, cfgmod.derive_seed(cfg.seed, "split"))
    qagen.write_manifest(os.path.join(args.out, TRAIN_IDS), train_ids)
    qagen.write_manifest(os.path.join(args.out, TEST_IDS), test_ids)
    tested = set(test_ids)  # per category, the test records asking a train question
    asked = {r.question for r in records if r.scenario_id not in tested}
    test = [r for r in records if r.scenario_id in tested]
    overlap = collections.Counter(r.category for r in test if r.question in asked)
    _write_json(os.path.join(args.out, "split_summary.json"), {
        "test_records": len(test), "question_overlap": {c: overlap[c] for c in qagen.CATEGORIES}})
    print(f"split: {len(train_ids)} train / {len(test_ids)} test scenarios, "
          f"{overlap.total()} of {len(test)} test records ask a train question -> {args.out}")
    return 0


def cmd_make_synthetic(args) -> int:
    cfg = _load_cfg(args, seed=args.seed)
    if args.seq_len > cfg.max_seq_len:  # train would refuse every example
        raise ConfigError(f"--seq-len {args.seq_len} exceeds max_seq_len {cfg.max_seq_len}")
    train_set, test_set = tasks.synthetic_token_task(
        n_train=args.n_train, n_test=args.n_test, vocab_size=cfg.vocab_size,
        n_classes=cfg.n_classes, seq_len=args.seq_len, purity=args.purity,
        seed=cfgmod.derive_seed(cfg.seed, "task"))
    for name, examples in (("train.jsonl", train_set), ("test.jsonl", test_set)):
        write_jsonl(os.path.join(args.out, name),
                    (tasks.TokenExample(toks.tolist(), label) for toks, label in examples))
    _write_json(os.path.join(args.out, "task.json"), {
        "vocab_size": cfg.vocab_size,
        "n_classes": cfg.n_classes,
        "seq_len": args.seq_len,
        "n_train": args.n_train,
        "n_test": args.n_test,
        "purity": args.purity,
        "seed": cfg.seed,
    })
    print(f"make-synthetic: {args.n_train} train / {args.n_test} test -> {args.out}")
    return 0


def _memory(spec, adapters, tcfg, block_size: int) -> dict:
    """Storage bytes: quantize_base's matrices (float64, Q4 payload), adapters, AdamW state."""
    sizes = [rows * cols for name, (rows, cols) in spec.shapes.items() if name not in EMBEDDINGS]
    flat = flatten_adapters(adapters)
    state = {}
    for width in (8, 32):
        m = OptimizerState.for_params(flat, dataclasses.replace(tcfg, state_bits=width)).moments
        state[width] = m.nbytes if isinstance(m, np.ndarray) else m.codes.nbytes + m.scales.nbytes
    return {
        "adapter_bytes": sum(v.nbytes for v in flat.values()),
        "base_dense_bytes": 8 * sum(sizes),
        "base_q4_payload_bytes": sum(sum(q4_nbytes(n, block_size)) for n in sizes),
        "optimizer_state_bytes": state[tcfg.state_bits],
        "optimizer_state_bytes_8bit": state[8],
        "optimizer_state_bytes_32bit": state[32],
    }


def _label_conflicts(examples) -> dict:
    """The examples whose token ids also carry another label, and the most of all
    examples that any classifier of the token ids can get right."""
    labels = collections.defaultdict(collections.Counter)  # token ids -> label counts
    for tokens, label in examples:
        labels[tokens.tobytes()][label] += 1
    return {"label_conflicts": sum(sum(c.values()) for c in labels.values() if len(c) > 1),
            "accuracy_ceiling": sum(max(c.values()) for c in labels.values())}


def cmd_train(args) -> int:
    cfg = _load_cfg(args, seed=args.seed,
                    qlora=("true" if args.qlora else None))
    data = args.data
    corpus_path = os.path.join(data, CORPUS_FILE)
    token_path = os.path.join(data, "train.jsonl")
    labels = None
    if os.path.exists(corpus_path):
        mode = "corpus"
        manifest = os.path.join(data, TRAIN_IDS)
        records = _records(corpus_path, manifest if os.path.exists(manifest) else None)
        label_sets = ev.read_label_dir(os.path.join(data, LABELS_DIR))
        union = tasks.union_labels(label_sets)
        examples, skipped = tasks.corpus_to_examples(
            records, label_sets, union, cfg.vocab_size, cfg.max_seq_len)
        if skipped:
            print(f"train: skipped {skipped} records with unmappable answers")
        spec = cfgmod.model_spec_from(cfg, n_classes=len(union))
        labels = list(union)
        test_examples = None
    elif os.path.exists(token_path):
        mode = "token"
        task_path = os.path.join(data, "task.json")
        task = _read_summary(task_path, f"{task_path}: ", "purity",
                             "vocab_size n_classes seq_len n_train n_test seed")
        cfg = dataclasses.replace(cfg, **{key: json_int(task.get(key), f"{task_path}: {key}")
                                          for key in ("vocab_size", "n_classes")})
        spec = cfgmod.model_spec_from(cfg)
        examples = tasks.read_token_examples(token_path)
        test_path = os.path.join(data, "test.jsonl")
        test_examples = (tasks.read_token_examples(test_path)
                         if os.path.exists(test_path) else None)
        if test_examples:  # checked before step 0, so a bad label costs no training run
            check_examples(test_examples, spec)
    else:
        raise InputError(f"{data} holds neither {CORPUS_FILE} nor train.jsonl")

    params = _frozen_base(cfg, spec)
    adapters = init_adapters(spec, cfg.rank, cfg.alpha,
                             cfgmod.derive_seed(cfg.seed, "adapters"))
    tcfg = cfgmod.train_config_from(cfg)
    memory = _memory(spec, adapters, tcfg, cfg.block_size)  # before step 0: checks block_size
    result = train(examples, params, spec, adapters, tcfg)

    save_adapters(os.path.join(args.out, ADAPTERS_FILE), result.adapters, meta={
        "config": dataclasses.asdict(cfg),
        "mode": mode,
        "labels": labels,
        "n_classes": spec.n_classes,
        "base_sha256": _base_sha256(params),
    })
    write_trace_csv(result.trace, os.path.join(args.out, TRACE_FILE))
    conflicts = _label_conflicts(examples)
    if conflicts["label_conflicts"]:
        print(f"train: {conflicts['label_conflicts']} of {len(examples)} examples share their "
              f"token ids with another label's, so at most {conflicts['accuracy_ceiling']} "
              f"can be classified correctly")
    summary = {**result.summary, "config": dataclasses.asdict(cfg), "mode": mode,
               "labels": labels, "memory": memory, **conflicts}
    if mode == "token" and test_examples:
        summary["test_accuracy"] = evaluate_accuracy(params, spec, adapters,
                                                     test_examples)
    _write_json(os.path.join(args.out, SUMMARY_FILE), summary)
    msg = (f"train: {result.summary['optimizer_steps']} steps, "
           f"loss {result.summary['initial_loss']:.4f} -> "
           f"{result.summary['final_mean_loss']:.4f}")
    if "test_accuracy" in summary:
        msg += f", test acc {summary['test_accuracy']:.3f}"
    print(msg + f" -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    adapters, meta = load_adapters(os.path.join(args.run, ADAPTERS_FILE))
    if meta.get("mode") != "corpus" or not meta.get("labels"):
        raise InputError("predict needs a checkpoint trained on a QA corpus")
    labels, config = meta["labels"], meta.get("config")
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise InputError("checkpoint meta labels must be a list of strings")
    if not isinstance(config, dict):
        raise InputError("checkpoint meta config must be a JSON object")
    cfg = cfgmod.load_config(overrides=config)
    union = tuple(labels)
    spec = cfgmod.model_spec_from(
        cfg, n_classes=json_int(meta.get("n_classes"), "checkpoint meta n_classes"))
    params = _frozen_base(cfg, spec)
    if meta.get("base_sha256") != _base_sha256(params):
        raise InputError("checkpoint was not trained on the base this config rebuilds "
                         "(base_sha256 missing or different)")
    manifest = None if args.split == "all" else os.path.join(
        args.data, TEST_IDS if args.split == "test" else TRAIN_IDS)
    records = _records(os.path.join(args.data, CORPUS_FILE), manifest)
    rows = tasks.predict_answers(params, spec, adapters, records, union)
    write_jsonl(args.out, rows, ev.Prediction)
    print(f"predict: wrote {len(rows)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not _MODEL_NAME_RE.fullmatch(args.model_name):
        raise ConfigError(f"bad model name {echo(args.model_name)}")
    preds = ev.read_predictions_jsonl(args.preds)
    gold = _records(args.gold, args.manifest)
    gold.sort(key=lambda r: (r.scenario_id, r.pair_index))
    n = args.n if args.n is not None else min(500, len(gold))
    sampled = ev.sample_eval_set(gold, n, cfgmod.derive_seed(args.seed, "eval"))
    label_sets = ev.read_label_dir(args.labels)

    by_cat: dict[str, tuple[list, list]] = {}
    for record in sampled:
        key = (record.scenario_id, record.pair_index)
        if key not in preds:
            raise InputError(
                f"no prediction for scenario {record.scenario_id} "
                f"pair {record.pair_index}"
            )
        ls = label_sets[record.category]
        golds, guesses = by_cat.setdefault(record.category, ([], []))
        golds.append(ev.normalize_answer(record.answer, ls))
        guesses.append(ev.normalize_answer(preds[key], ls))

    cms = {category: ev.build_confusion(guesses, golds, label_sets[category])
           for category, (golds, guesses) in sorted(by_cat.items())}
    reports = {category: ev.compute_metrics(cm, args.mode) for category, cm in cms.items()}
    table, csv_text = ev.render_tables({args.model_name: reports})
    with atomic_write(os.path.join(args.out, f"metrics_{args.model_name}.csv")) as fh:
        fh.write(csv_text)
    with atomic_write(os.path.join(args.out, f"report_{args.model_name}.txt")) as fh:
        fh.write(table)
    _write_json(os.path.join(args.out, f"eval_summary_{args.model_name}.json"), {
        "model_name": args.model_name,
        "preds": args.preds,
        "gold": args.gold,
        "labels": args.labels,
        "manifest": args.manifest,
        "n": n,
        "seed": args.seed,
        "mode": args.mode,
        "metrics": {cat: {key: getattr(r, key) for key in _METRIC_KEYS}
                    for cat, r in reports.items()},
    })
    # rows are gold, columns predicted; unknown is the last label of both
    _write_json(os.path.join(args.out, f"confusion_{args.model_name}.json"), {
        cat: {"labels": list(cm.labels), "counts": cm.counts.tolist(),
              "gold_unknown_rate": int(cm.counts[-1].sum()) / cm.total,
              "predicted_unknown_rate": int(cm.counts[:, -1].sum()) / cm.total}
        for cat, cm in cms.items()})
    print(table, end="")
    return 0


def _eval_reports(path) -> tuple[str, dict]:
    """(model name, category -> MetricReport) from an eval_summary file eval wrote."""
    summary = _read_summary(path, f"{path}: ", "model_name preds gold labels manifest mode metrics",
                            "n seed")
    name, mode, metrics = (summary.get(key) for key in ("model_name", "mode", "metrics"))
    if not isinstance(name, str) or not _MODEL_NAME_RE.fullmatch(name):
        raise InputError(f"{path}: bad model name {echo(name)}")
    if mode not in ev.MODES:
        raise InputError(f"{path}: mode must be one of {ev.MODES}, got {echo(mode)}")
    if not isinstance(metrics, dict):
        raise InputError(f"{path}: metrics must be a JSON object")
    reports = {}
    for cat, entry in metrics.items():
        if cat not in qagen.CATEGORIES:
            raise InputError(f"{path}: unknown category {echo(cat)} in metrics")
        if not isinstance(entry, dict) or entry.keys() != set(_METRIC_KEYS):
            raise InputError(f"{path}: {cat} metrics must hold exactly {_METRIC_KEYS}")
        try:
            reports[cat] = ev.MetricReport(category=cat, mode=mode, **entry)
        except InputError as exc:
            raise InputError(f"{path}: {cat}: {exc}") from exc
    return name, reports


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.in_dir, "eval_summary_*.json")))
    if not paths:
        raise InputError(f"no eval_summary_*.json files in {args.in_dir}")
    results: dict = {}
    for path in paths:
        name, reports = _eval_reports(path)
        if name in results:
            raise InputError(f"{path}: model name {echo(name)} is also an earlier file's")
        results[name] = reports
    text, csv_text = ev.render_tables({m: results[m] for m in sorted(results)})
    with atomic_write(os.path.join(args.in_dir, "report.txt")) as fh:
        fh.write(text)
    with atomic_write(os.path.join(args.in_dir, "report.csv")) as fh:
        fh.write(csv_text)
    print(text, end="")
    return 0


def _load_weight_matrix(path) -> np.ndarray:
    try:  # numpy reports malformed text, non-npy bytes and non-numbers as ValueError
        with warnings.catch_warnings():  # and text holding no numbers as a UserWarning
            warnings.simplefilter("error", UserWarning)
            return as_matrix(np.load(path).astype(np.float64, casting="same_kind")
                             if path.endswith(".npy")  # a TypeError unless bool, int, uint, float
                             else np.loadtxt(path, dtype=np.float64, ndmin=2), "weights")
    except (ValueError, TypeError, UserWarning, EOFError) as exc:  # EOFError: an empty .npy file
        raise InputError(f"{path}: not a weight matrix: {exc}") from exc


_INSPECT_TEXT = """\
matrix: {rows}x{cols}  block_size: {block_size}  blocks: {n_blocks}
scales: min={scale_min} mean={scale_mean} max={scale_max}
max round-trip error: {max_roundtrip_error}
error bound (max scale / 2): {error_bound_half_max_scale}
bytes: codes={code_bytes} scales={scale_bytes} header={header_bytes} total={total_bytes}
dense 32-bit bytes: {dense_bytes}
reduction (payload): {payload_ratio:.2f}x
reduction (total): {total_ratio:.2f}x"""


def cmd_inspect_quant(args) -> int:
    """One value table, as Python ints and floats, that both formats print."""
    w = _load_weight_matrix(args.weights)
    q = quantize_4bit(w, args.block)
    scales = q.scales.astype(np.float64)
    rep = footprint_report(q)
    values = {key: rep[key] for key in ("rows", "cols", "block_size", "n_blocks")}
    values.update(
        scale_min=float(scales.min()),
        scale_mean=float(scales.mean()),
        scale_max=float(scales.max()),
        max_roundtrip_error=float(np.max(np.abs(dequantize_4bit(q) - w))),
        error_bound_half_max_scale=float(scales.max()) / 2.0,
    )
    values.update(rep)  # the byte counts follow, in footprint_report's order
    if args.format == "csv":
        print("key,value")
        for key, value in values.items():
            print(f"{key},{value}")
    else:
        print(_INSPECT_TEXT.format(**values))
    return 0


# ---- parser ----

@functools.cache  # built once per process: building it costs a stage about 1.7 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlorakit",
        description="LoRA/QLoRA fine-tuning pipeline: data generation, "
                    "training, evaluation, reporting, quantization inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override (repeatable, wins over file)")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (overrides config)")

    p = sub.add_parser("make-scenarios", help="write a mock scenario JSONL")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_make_scenarios)

    p = sub.add_parser("gen-data", help="scenarios -> QA corpus")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=["mock", "http"], default=None)
    add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("split", help="scenario-level train/test manifests")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-fraction", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("make-synthetic", help="write the token-classification task")
    p.add_argument("--out", required=True)
    task = inspect.signature(tasks.synthetic_token_task).parameters
    p.add_argument("--n-train", type=int, default=task["n_train"].default)
    p.add_argument("--n-test", type=int, default=task["n_test"].default)
    p.add_argument("--seq-len", type=int, default=task["seq_len"].default)
    p.add_argument("--purity", type=float, default=task["purity"].default)
    add_common(p)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("train", help="train adapters on a corpus or token task")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--qlora", action="store_true",
                   help="4-bit quantize the base before training")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a trained checkpoint over a corpus")
    p.add_argument("--run", required=True, help="directory written by train")
    p.add_argument("--data", required=True, help="directory holding corpus + manifests")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold records")
    p.add_argument("--preds", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None,
                   help="restrict gold to the scenario ids in this manifest")
    p.add_argument("--n", type=int, default=None,
                   help="evaluation sample size (default min(500, available))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=list(ev.MODES), default="macro")
    p.add_argument("--model-name", default="model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="merge eval_summary_*.json into one table")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect-quant", help="quantization stats for a weight matrix")
    p.add_argument("--weights", required=True, help=".npy or whitespace text matrix")
    p.add_argument("--block", type=int, default=DEFAULT_BLOCK_SIZE)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_inspect_quant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return globals()[args.func.__name__](args)  # by name: the parser outlives patches
    except ConfigError as exc:
        _err(f"config: {exc}")
        return 2
    except (InputError, ShapeError) as exc:
        _err(f"input: {exc}")
        return 2
    except QAParseError as exc:
        _err(f"parse: {exc}")
        return 2
    except OSError as exc:  # a failed os.replace names its target as filename2
        _err(f"file: {exc.strerror}: {exc.filename2 or exc.filename}")
        return 2
    except TransportError as exc:
        _err(f"transport: {exc}")
        return 3
    except NumericError as exc:
        _err(f"numeric: {exc}")
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
