"""Configuration and CLI tests: key validation, override precedence,
seed derivation, subcommand behavior, exit codes, and artifact
reproducibility. CLI calls run in-process through main()."""

import csv
import dataclasses
import errno
import inspect
import json
import os
import re

import numpy as np
import pytest

from qlorakit import cli, fileio
from qlorakit.cli import _frozen_base, main
from qlorakit.config import (RunConfig, client_spec_from, derive_seed, load_config,
                             model_spec_from, parse_set_overrides, train_config_from)
from qlorakit.errors import ConfigError
from qlorakit.evalharness import (UNKNOWN, Prediction, build_confusion, normalize_answer,
                                  read_label_dir, read_predictions_jsonl)
from qlorakit.fileio import write_jsonl
from qlorakit.lora import load_adapters, save_adapters
from qlorakit.optim import TrainConfig
from qlorakit.qagen import LLMClientSpec, read_records_jsonl, split_dataset
from qlorakit.quant import Q4BlockMatrix
from qlorakit.tasks import synthetic_token_task


# ---- config ----

def test_file_then_override_precedence(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"rank": 8, "epochs": 3}))
    cfg = load_config(path, {"epochs": "5"})
    assert cfg.rank == 8
    assert cfg.epochs == 5  # override wins and is coerced to int


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="^unknown config key: 'ranks'$"):
        load_config(None, {"ranks": 8})
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="flat JSON object"):
        load_config(path)


def test_value_coercion(tmp_path):
    assert load_config(None, {"qlora": "true"}).qlora is True
    assert load_config(None, {"qlora": "off"}).qlora is False
    with pytest.raises(ConfigError, match="boolean"):
        load_config(None, {"qlora": "maybe"})
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(None, {"rank": "sixteen"})
    # int keys in a JSON file: integral floats pass, nothing truncates
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"rank": 8.0}))
    assert load_config(path).rank == 8
    for bad in ({"rank": 2.7}, {"epochs": True}):
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="as int"):
            load_config(path)


def test_parse_set_overrides():
    assert parse_set_overrides(["a=1", "b = x=y "]) == {"a": "1", "b": "x=y"}
    with pytest.raises(ConfigError, match="key=value"):
        parse_set_overrides(["novalue"])


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(0, "train") == derive_seed(0, "train")
    assert derive_seed(0, "train") != derive_seed(0, "model")
    assert derive_seed(1, "train") != derive_seed(0, "train")
    assert 0 <= derive_seed(123456, "x") < 2**31


def test_spec_builders():
    cfg = load_config(None, {"adapter_targets": "attn_q, ffn_up"})
    spec = model_spec_from(cfg)
    assert spec.adapter_targets == ("attn_q", "ffn_up")
    assert model_spec_from(cfg, n_classes=7).n_classes == 7
    tcfg = train_config_from(cfg)
    assert tcfg.seed == derive_seed(cfg.seed, "train")
    assert client_spec_from(cfg).backend == "mock"
    assert dataclasses.asdict(cfg)["adapter_targets"] == "attn_q, ffn_up"


def test_component_configs_share_the_run_defaults():
    cfg = load_config()
    assert train_config_from(cfg) == TrainConfig(seed=derive_seed(0, "train"))
    assert client_spec_from(cfg) == LLMClientSpec()


# the component that consumes a float field of RunConfig, if not TrainConfig
FLOAT_CONSUMERS = {
    "timeout_s": client_spec_from,
    "test_fraction": lambda cfg: split_dataset([], cfg.test_fraction, seed=0),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if type(f.default) is float])
def test_non_finite_float_values_are_refused(key, value):
    cfg = load_config(overrides={key: value})
    with pytest.raises(ConfigError, match=f"^{key} must") as exc:
        FLOAT_CONSUMERS.get(key, train_config_from)(cfg)
    if key in ("learning_rate", "adam_epsilon", "timeout_s"):
        # inf is > 0: the message names finiteness, the fault it is refused for
        assert str(exc.value) == f"{key} must be finite and > 0, got {float(value)}"


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if type(f.default) in (str, float)])
def test_a_config_value_of_the_wrong_json_type_is_refused(tmp_path, key):
    """A str key takes only a JSON string and a float key refuses a boolean,
    as int keys do; `--set` text and a file's own-type value read as before."""
    default = getattr(RunConfig(), key)
    kind = type(default).__name__
    path = tmp_path / "run.json"
    for bad in ([["http://x"], None, True, 1, 0.5, {}] if kind == "str"
                else [True, False, None, [1.0], "x"]):
        path.write_text(json.dumps({key: bad}))
        with pytest.raises(ConfigError, match=f"^config key {key}: cannot read .* as {kind}$"):
            load_config(path)
    path.write_text(json.dumps({key: default}))
    assert getattr(load_config(path), key) == default
    assert getattr(load_config(None, {key: str(default)}), key) == default


# ---- CLI plumbing ----

def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# argv, and the path its error must name; the command runs in {tmp}, where "dir" is a
# directory and "file" a file
FILE_FAULTS = {
    "missing": ("gen-data --scenarios {tmp}/nope.jsonl --out {tmp}/d", "{tmp}/nope.jsonl"),
    "eval-preds-dir": ("eval --preds {tmp}/dir --gold {tmp}/file --labels {tmp}/dir "
                       "--out {tmp}/e", "{tmp}/dir"),
    "gen-data-scenarios-dir": ("gen-data --scenarios {tmp}/dir --out {tmp}/d", "{tmp}/dir"),
    "inspect-quant-weights-dir": ("inspect-quant --weights {tmp}/dir", "{tmp}/dir"),
    "make-scenarios-out-dir": ("make-scenarios --n 2 --out {tmp}/dir", "{tmp}/dir"),
    "make-scenarios-config-dir": ("make-scenarios --n 2 --out {tmp}/s.jsonl --config {tmp}/dir",
                                  "{tmp}/dir"),
    "make-scenarios-out-under-file": ("make-scenarios --n 2 --out {tmp}/file/x", "{tmp}/file"),
    "make-scenarios-relative-out-under-file": ("make-scenarios --n 2 --out file/x", "file"),
    "split-corpus-unreadable": ("split --corpus {tmp}/file --out {tmp}/sp", "{tmp}/file"),
}


@pytest.mark.parametrize("case", list(FILE_FAULTS))
def test_missing_file_exits_2_with_one_line_error(tmp_path, capsys, monkeypatch, case):
    argv, named = (text.replace("{tmp}", str(tmp_path)) for text in FILE_FAULTS[case])
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)
    if case.endswith("-unreadable"):  # as root, chmod 000 would not stop the read

        def denied(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(fileio, "read_lines", denied)
    rc = main(argv.split())
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: file:") and err.count("\n") == 1
    assert err.endswith(f": {named}\n")
    assert not list(tmp_path.rglob("*.tmp"))


def test_invalid_learning_rate_exits_2(tmp_path, capsys):
    assert main(["make-synthetic", "--out", str(tmp_path / "t"),
                 "--n-train", "8", "--n-test", "4"]) == 0
    rc = main(["train", "--data", str(tmp_path / "t"),
               "--out", str(tmp_path / "run"), "--set", "learning_rate=0"])
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("block", [0, -3])
def test_bad_block_size_on_a_lora_run_exits_2_before_step_0(tmp_path, capsys, monkeypatch,
                                                           block):
    assert main(["make-synthetic", "--out", str(tmp_path / "t"),
                 "--n-train", "8", "--n-test", "4"]) == 0
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
    rc = main(["train", "--data", str(tmp_path / "t"), "--out", str(tmp_path / "run"),
               "--set", f"block_size={block}"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and f"block_size must be >= 1, got {block}" in err
    assert not (tmp_path / "run" / "adapters.bin").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    rc = main(["make-scenarios", "--n", "2", "--out", str(tmp_path / "s.jsonl"),
               "--set", "learning=1"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_one_parser_serves_every_call_and_a_patched_handler_runs(tmp_path, capsys,
                                                                  monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    out = str(tmp_path / "s.jsonl")
    assert main(["make-scenarios", "--n", "2", "--out", out, "--set", "seed=3"]) == 0
    assert main(["make-scenarios", "--n", "2"]) == 2  # a usage error leaves it usable
    assert "required: --out" in capsys.readouterr().err
    calls = []
    real = cli.cmd_make_scenarios
    monkeypatch.setattr(cli, "cmd_make_scenarios",
                        lambda args: calls.append(args.set) or real(args))
    assert main(["make-scenarios", "--n", "2", "--out", out]) == 0
    assert calls == [None]  # the --set list of the earlier call is not carried over


def test_http_backend_without_credential_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    assert main(["make-scenarios", "--n", "2",
                 "--out", str(tmp_path / "s.jsonl")]) == 0
    rc = main(["gen-data", "--scenarios", str(tmp_path / "s.jsonl"),
               "--out", str(tmp_path / "d"), "--backend", "http",
               "--set", "endpoint=https://svc/complete"])
    assert rc == 2
    assert "LLM_API_KEY" in capsys.readouterr().err


def test_gen_data_artifacts_are_byte_identical_across_runs(tmp_path):
    scen = tmp_path / "s.jsonl"
    assert main(["make-scenarios", "--n", "10", "--out", str(scen),
                 "--seed", "3"]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["gen-data", "--scenarios", str(scen), "--out", str(out),
                     "--seed", "3"]) == 0
        outs.append(out)
    for rel in ("corpus.jsonl", "rejects.jsonl", "labels/risk.txt",
                "labels/scene.txt", "gen_summary.json"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    corpus = (outs[0] / "corpus.jsonl").read_text().splitlines()
    assert len(corpus) == 50  # five records per scenario


def test_synthetic_train_cli_default_config(tmp_path):
    data = tmp_path / "task"
    run = tmp_path / "run"
    assert main(["make-synthetic", "--out", str(data), "--seed", "1"]) == 0
    # the flag defaults are synthetic_token_task's, and task.json records them
    sizes = ("n_train", "n_test", "seq_len", "purity")
    task_defaults = inspect.signature(synthetic_token_task).parameters
    assert ({key: read_json(data / "task.json")[key] for key in sizes}
            == {key: task_defaults[key].default for key in sizes})
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--seed", "1"]) == 0
    assert (run / "adapters.bin").exists()
    with open(run / "trace.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 250  # ceil(2000 / 8) steps, one epoch
    losses = [float(row[header.index("loss")]) for row in rows]
    assert np.mean(losses[:25]) > np.mean(losses[-25:])  # decreasing in aggregate
    summary = read_json(run / "summary.json")
    assert summary["mode"] == "token"
    assert summary["test_accuracy"] > 0.5
    assert summary["config"]["learning_rate"] == 2e-4


def test_train_reruns_are_byte_identical_except_wall_time(tmp_path):
    data = tmp_path / "task"
    assert main(["make-synthetic", "--out", str(data), "--n-train", "64",
                 "--n-test", "16", "--seed", "2"]) == 0
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--seed", "2", "--set", "warmup_steps=2"]) == 0
        runs.append(out)
    assert (runs[0] / "adapters.bin").read_bytes() == (runs[1] / "adapters.bin").read_bytes()
    assert (runs[0] / "trace.csv").read_bytes() == (runs[1] / "trace.csv").read_bytes()
    s1, s2 = read_json(runs[0] / "summary.json"), read_json(runs[1] / "summary.json")
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2


def test_qlora_train_reports_base_footprint(tmp_path):
    data = tmp_path / "task"
    run = tmp_path / "run"
    assert main(["make-synthetic", "--out", str(data), "--n-train", "64",
                 "--n-test", "8", "--seed", "4"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--qlora",
                 "--seed", "4", "--set", "warmup_steps=2"]) == 0
    summary = read_json(run / "summary.json")
    assert "base_footprint" not in summary
    mem = summary["memory"]
    assert mem["base_dense_bytes"] / mem["base_q4_payload_bytes"] >= 6.0
    # the payload figure is the bytes of the arrays the rebuilt Q4 base holds
    cfg = load_config(overrides=summary["config"])
    quantized = [w for w in _frozen_base(cfg, model_spec_from(cfg)).weights.values()
                 if isinstance(w, Q4BlockMatrix)]
    assert quantized
    assert mem["base_q4_payload_bytes"] == sum(q.packed.nbytes + q.scales.nbytes
                                               for q in quantized)


def test_train_checks_the_held_out_set_before_training(tmp_path, capsys):
    """A bad test.jsonl label fails the run before step 0, leaving no artifact."""
    data = tmp_path / "task"
    run = tmp_path / "run"
    assert main(["make-synthetic", "--out", str(data), "--n-train", "16",
                 "--n-test", "4", "--seed", "5"]) == 0
    test = data / "test.jsonl"
    rows = [json.loads(line) for line in test.read_text().splitlines()]
    rows[-1]["label"] = 9
    test.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                 "--set", "warmup_steps=1"]) == 2
    assert capsys.readouterr().err == "error: input: label 9 outside [0, 4)\n"
    assert not run.exists() or not any(run.iterdir())


def test_train_counts_the_examples_whose_token_ids_carry_another_label(tmp_path, capsys):
    """At vocab_size 64 "brake" and "yield" hash to one id, so two questions that
    differ only there are one token sequence with two labels: both examples
    conflict, and at most one of them can be right."""
    from qlorakit import evalharness, qagen, tasks
    data = tmp_path / "data"
    records = [qagen.QARecord(sid, f"images/{sid}.jpg", question, answer, category, 1)
               for sid, question, answer, category in (
                   ("s-1", "Should the driver brake?", "brake", "suggested_action"),
                   ("s-2", "Should the driver yield?", "yield", "suggested_action"),
                   ("s-3", "Should the driver brake?", "brake", "suggested_action"),
                   ("s-4", "Is there a risk?", "yes", "risk"))]
    write_jsonl(data / "corpus.jsonl", records)
    evalharness.write_label_files(data / "labels", tasks.DEFAULT_LABEL_SETS)
    small = ["--set", "batch_size=1", "--set", "grad_accum_steps=1", "--set", "warmup_steps=1"]
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + small) == 0
    summary = read_json(tmp_path / "run" / "summary.json")
    assert (summary["label_conflicts"], summary["accuracy_ceiling"]) == (3, 3)
    assert capsys.readouterr().out.splitlines()[0] == (
        "train: 3 of 4 examples share their token ids with another label's, "
        "so at most 3 can be classified correctly")
    write_jsonl(data / "corpus.jsonl", records[2:])  # no conflict: no line, and the keys stay
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + small) == 0
    summary = read_json(tmp_path / "run" / "summary.json")
    assert (summary["label_conflicts"], summary["accuracy_ceiling"]) == (0, 2)
    assert capsys.readouterr().out.startswith("train: 2 steps")


def test_train_summary_carries_a_deterministic_memory_block(tmp_path):
    """On the criterion-07 shapes (the CLI defaults) the block holds the
    figures perfbench's memory_breakdown reports; reruns write the summary
    byte-identically apart from its wall_time_s line."""
    data = tmp_path / "task"
    assert main(["make-synthetic", "--out", str(data), "--n-train", "32",
                 "--n-test", "8", "--seed", "3"]) == 0
    runs = {}
    for name, extra in (("lora", []), ("lora-again", []),
                        ("qlora", ["--qlora", "--set", "state_bits=32"]),
                        ("qlora-block32", ["--qlora", "--set", "block_size=32"])):
        out = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(out), "--seed", "3",
                     "--set", "warmup_steps=2"] + extra) == 0
        runs[name] = out / "summary.json"
    base = {"adapter_bytes": 32768, "base_dense_bytes": 132096, "base_q4_payload_bytes": 9288,
            "optimizer_state_bytes_8bit": 8704, "optimizer_state_bytes_32bit": 65536}
    assert read_json(runs["lora"])["memory"] == {**base, "optimizer_state_bytes": 8704}
    assert read_json(runs["qlora"])["memory"] == {**base, "optimizer_state_bytes": 65536}
    # block_size reaches the 4-bit base only; the 8-bit state keeps 64-element blocks
    assert read_json(runs["qlora-block32"])["memory"] == {
        **base, "base_q4_payload_bytes": 10320, "optimizer_state_bytes": 8704}
    kept = [[line for line in runs[name].read_bytes().splitlines()
             if not line.lstrip().startswith(b'"wall_time_s"')] for name in ("lora", "lora-again")]
    assert kept[0] == kept[1] and any(b'"memory"' in line for line in kept[0])


def corpus_pipeline(tmp_path, n=16, seed=11, overrides=("epochs=1",)):
    scen = tmp_path / "scenarios.jsonl"
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["make-scenarios", "--n", str(n), "--out", str(scen),
                 "--seed", str(seed)]) == 0
    assert main(["gen-data", "--scenarios", str(scen), "--out", str(data),
                 "--seed", str(seed)]) == 0
    assert main(["split", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(data), "--seed", str(seed)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", str(seed)]
                + [arg for kv in overrides for arg in ("--set", kv)]) == 0
    return scen, data, run


def test_corpus_pipeline_predict_eval_report(tmp_path, capsys):
    _, data, run = corpus_pipeline(tmp_path)
    preds = tmp_path / "preds.jsonl"
    evals = tmp_path / "evals"
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(preds), "--split", "test"]) == 0
    assert main(["eval", "--preds", str(preds), "--gold",
                 str(data / "corpus.jsonl"), "--labels", str(data / "labels"),
                 "--out", str(evals), "--manifest", str(data / "test_ids.txt"),
                 "--seed", "0", "--model-name", "lora-toy"]) == 0
    assert main(["report", "--in", str(evals)]) == 0
    out = capsys.readouterr().out
    table = (evals / "report.txt").read_text()
    assert table.splitlines()[0].split() == ["Task", "Metric", "lora-toy"]
    for row in ("Scene", "Agent", "Suggestion Action", "Risk",
                "Accuracy", "Recall", "Precision", "F1-score"):
        assert row in table
    assert table in out
    # report over one eval's metrics reproduces that eval's own tables
    assert table == (evals / "report_lora-toy.txt").read_text()
    report_csv = (evals / "report.csv").read_text()
    assert report_csv == (evals / "metrics_lora-toy.csv").read_text()
    meta = read_json(evals / "eval_summary_lora-toy.json")
    assert set(meta["metrics"]) == {"scene", "agent", "suggested_action", "risk"}


def test_eval_writes_per_task_confusion_matrices(tmp_path):
    scen, data = tmp_path / "scenarios.jsonl", tmp_path / "data"
    assert main(["make-scenarios", "--n", "12", "--out", str(scen), "--seed", "4"]) == 0
    assert main(["gen-data", "--scenarios", str(scen), "--out", str(data), "--seed", "4"]) == 0
    gold = read_records_jsonl(data / "corpus.jsonl")
    # every third answer is one no label matches, so both unknown rates are nonzero
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [Prediction(r.scenario_id, r.pair_index,
                                   "no idea" if i % 3 == 0 else r.answer)
                        for i, r in enumerate(gold)])
    gold[1] = dataclasses.replace(gold[1], answer="something else")
    write_jsonl(data / "corpus.jsonl", gold)
    blobs = []
    # fewer records than the sample size: every seed, -1 too, samples all of them
    for out, seed in (("evals_a", "0"), ("evals_b", "0"), ("evals_c", "-1")):
        assert main(["eval", "--preds", str(preds), "--gold", str(data / "corpus.jsonl"),
                     "--labels", str(data / "labels"), "--out", str(tmp_path / out),
                     "--seed", seed, "--model-name", "lora-toy"]) == 0
        blobs.append((tmp_path / out / "confusion_lora-toy.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    confusion = json.loads(blobs[0])
    assert blobs[0].decode() == json.dumps(confusion, indent=2, sort_keys=True) + "\n"
    metrics = read_json(tmp_path / "evals_a" / "eval_summary_lora-toy.json")["metrics"]
    assert sorted(confusion) == sorted(metrics)
    answers = read_predictions_jsonl(preds)
    label_sets = read_label_dir(data / "labels")
    for task, entry in confusion.items():
        ls = label_sets[task]
        records = [r for r in gold if r.category == task]  # fewer than 500: all sampled
        expected = build_confusion(
            [normalize_answer(answers[r.scenario_id, r.pair_index], ls) for r in records],
            [normalize_answer(r.answer, ls) for r in records], ls)
        counts = np.array(entry["counts"])
        assert entry["labels"] == list(ls.labels) + [UNKNOWN]
        assert counts.sum() == metrics[task]["sample_count"] == len(records)
        assert np.array_equal(counts, expected.counts)
        assert entry["gold_unknown_rate"] == counts[-1].sum() / len(records)
        assert entry["predicted_unknown_rate"] == counts[:, -1].sum() / len(records)
    assert sum(e["predicted_unknown_rate"] for e in confusion.values()) > 0
    assert sum(e["gold_unknown_rate"] for e in confusion.values()) > 0


def test_a_records_prediction_does_not_depend_on_its_call_mates(tmp_path):
    # trained far enough that the predictions spread over several labels
    _, data, run = corpus_pipeline(tmp_path, seed=16,
                                   overrides=("epochs=6", "learning_rate=1e-2"))
    lines = {}
    for split in ("test", "all"):
        out = tmp_path / f"preds_{split}.jsonl"
        assert main(["predict", "--run", str(run), "--data", str(data),
                     "--out", str(out), "--split", split]) == 0
        lines[split] = out.read_bytes().splitlines()
    # each line carries its record's key; in the --split all call the test
    # records share their passes with the train records
    assert 0 < len(set(lines["test"])) == len(lines["test"]) < len(lines["all"])
    assert len({json.loads(line)["raw_answer"] for line in lines["test"]}) > 1
    assert set(lines["test"]) <= set(lines["all"])


def test_predict_requires_a_corpus_checkpoint(tmp_path, capsys):
    data = tmp_path / "task"
    run = tmp_path / "run"
    assert main(["make-synthetic", "--out", str(data), "--n-train", "16",
                 "--n-test", "4", "--seed", "5"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                 "--set", "warmup_steps=1"]) == 0
    rc = main(["predict", "--run", str(run), "--data", str(data),
               "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    assert "corpus" in capsys.readouterr().err


def test_predict_rejects_damaged_checkpoint(tmp_path, capsys):
    _, data, run = corpus_pipeline(tmp_path, seed=14)
    ckpt = run / "adapters.bin"
    good = ckpt.read_bytes()
    meta_len = int.from_bytes(good[12:16], "little")
    name_at = 16 + meta_len + 4
    name_len = int.from_bytes(good[name_at - 4:name_at], "little")
    factor_at = name_at + name_len + 20
    damaged = {
        "header": good[:10],
        "meta": good[:20],
        "meta tail": good[:16 + meta_len - 1],
        "name": good[:name_at + name_len // 2],
        "factor": good[:factor_at + 12],
        "last factor": good[:-4],
        "non-utf8 meta": good[:16] + b"\xff" * meta_len + good[16 + meta_len:],
        "non-object meta": (good[:12] + (2).to_bytes(4, "little") + b"[]"
                            + good[16 + meta_len:]),
    }
    for what, blob in damaged.items():
        ckpt.write_bytes(blob)
        rc = main(["predict", "--run", str(run), "--data", str(data),
                   "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2, what
        assert err.startswith("error: input: ") and err.count("\n") == 1, (what, err)


def test_predict_refuses_a_checkpoint_from_another_base(tmp_path, capsys):
    _, data, run = corpus_pipeline(tmp_path, seed=15)
    ckpt = run / "adapters.bin"
    adapters, meta = load_adapters(ckpt)
    assert len(meta["base_sha256"]) == 64
    other_seed = dict(meta, config=dict(meta["config"], seed=meta["config"]["seed"] + 1))
    rewritten = {
        "missing": {k: v for k, v in meta.items() if k != "base_sha256"},
        "different": dict(meta, base_sha256="0" * 64),
        "other base": other_seed,
    }
    for what, new_meta in rewritten.items():
        save_adapters(ckpt, adapters, meta=new_meta)
        rc = main(["predict", "--run", str(run), "--data", str(data),
                   "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2, what
        assert err.startswith("error: input: ") and "base_sha256" in err, (what, err)
        assert err.count("\n") == 1, (what, err)
    assert not (tmp_path / "p.jsonl").exists()
    save_adapters(ckpt, adapters, meta=meta)
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "p.jsonl")]) == 0


def test_eval_reports_missing_prediction(tmp_path, capsys):
    _, data, run = corpus_pipeline(tmp_path, seed=12)
    preds = tmp_path / "preds.jsonl"
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(preds), "--split", "test"]) == 0
    lines = preds.read_text().splitlines()
    preds.write_text("\n".join(lines[1:]) + "\n")
    rc = main(["eval", "--preds", str(preds), "--gold",
               str(data / "corpus.jsonl"), "--labels", str(data / "labels"),
               "--out", str(tmp_path / "e"), "--manifest",
               str(data / "test_ids.txt")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no prediction for scenario" in err


def test_eval_rejects_bad_model_name(tmp_path, capsys):
    rc = main(["eval", "--preds", "x", "--gold", "y", "--labels", "z",
               "--out", str(tmp_path), "--model-name", "bad name!"])
    assert rc == 2
    assert "model name" in capsys.readouterr().err


def test_report_merges_two_models(tmp_path, capsys):
    _, data, run = corpus_pipeline(tmp_path, seed=13)
    preds = tmp_path / "preds.jsonl"
    evals = tmp_path / "evals"
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(preds), "--split", "test"]) == 0
    for name, mode in (("beta", "weighted"), ("alpha", "macro")):
        assert main(["eval", "--preds", str(preds), "--gold",
                     str(data / "corpus.jsonl"), "--labels",
                     str(data / "labels"), "--out", str(evals),
                     "--manifest", str(data / "test_ids.txt"),
                     "--model-name", name, "--mode", mode]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(evals)]) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header == ["Task", "Metric", "alpha", "beta"]
    merged = [line.split(",") for line in (evals / "report.csv").read_text().splitlines()]
    assert merged[0] == ["task", "metric", "alpha", "beta"]
    # every cell of each model's column is that model's own eval table, byte for byte
    own = {name: [line.split(",") for line in
                  (evals / f"metrics_{name}.csv").read_text().splitlines()]
           for name in ("alpha", "beta")}
    for column, name in ((2, "alpha"), (3, "beta")):
        assert [row[:2] + [row[column]] for row in merged[1:]] == own[name][1:]
    assert [row[2] for row in merged[1:]] != [row[3] for row in merged[1:]]
    text = (evals / "report.txt").read_text().splitlines()
    alpha_text = (evals / "report_alpha.txt").read_text().splitlines()
    assert [line.rsplit(None, 1)[0] for line in text[2:]] == alpha_text[2:]


def test_inspect_quant_text_and_csv(tmp_path, capsys):
    w = np.random.default_rng(0).normal(size=(64, 64))
    npy = tmp_path / "w.npy"
    np.save(npy, w)
    assert main(["inspect-quant", "--weights", str(npy), "--block", "64"]) == 0
    out = capsys.readouterr().out
    assert "matrix: 64x64" in out
    assert "reduction (payload): 7.11x" in out

    txt = tmp_path / "w.txt"
    np.savetxt(txt, w[:4, :4])
    assert main(["inspect-quant", "--weights", str(txt), "--block", "8",
                 "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in
                capsys.readouterr().out.strip().splitlines()[1:])
    assert rows["rows"] == "4" and rows["cols"] == "4"
    assert float(rows["max_roundtrip_error"]) <= float(rows["error_bound_half_max_scale"])


_INSPECT_TEXT = re.compile(
    r"matrix: (?P<rows>\S+)x(?P<cols>\S+)  block_size: (?P<block_size>\S+)  "
    r"blocks: (?P<n_blocks>\S+)\n"
    r"scales: min=(?P<scale_min>\S+) mean=(?P<scale_mean>\S+) max=(?P<scale_max>\S+)\n"
    r"max round-trip error: (?P<max_roundtrip_error>\S+)\n"
    r"error bound \(max scale / 2\): (?P<error_bound_half_max_scale>\S+)\n"
    r"bytes: codes=(?P<code_bytes>\S+) scales=(?P<scale_bytes>\S+) "
    r"header=(?P<header_bytes>\S+) total=(?P<total_bytes>\S+)\n"
    r"dense 32-bit bytes: (?P<dense_bytes>\S+)\n"
    r"reduction \(payload\): (?P<payload_ratio>\S+)x\n"
    r"reduction \(total\): (?P<total_ratio>\S+)x\n")


@pytest.mark.parametrize("shape, block", [((64, 64), 64), ((7, 9), 8)])
def test_inspect_quant_text_and_csv_carry_the_same_numbers(tmp_path, capsys, shape, block):
    npy = tmp_path / "w.npy"
    np.save(npy, np.random.default_rng(11).normal(size=shape))
    argv = ["inspect-quant", "--weights", str(npy), "--block", str(block)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert "np." not in text and "np." not in csv
    lines = csv.splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    m = _INSPECT_TEXT.fullmatch(text)
    assert m, text
    parsed = m.groupdict()
    assert parsed.keys() == rows.keys()
    for key, value in parsed.items():
        # the ratios print to two decimals in text, every other value in full
        want = f"{float(rows[key]):.2f}" if key.endswith("_ratio") else rows[key]
        assert value == want, key


def test_split_manifests_partition_the_corpus(tmp_path):
    scen = tmp_path / "s.jsonl"
    data = tmp_path / "d"
    assert main(["make-scenarios", "--n", "10", "--out", str(scen), "--seed", "7"]) == 0
    assert main(["gen-data", "--scenarios", str(scen), "--out", str(data),
                 "--seed", "7"]) == 0
    assert main(["split", "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(data), "--test-fraction", "0.2", "--seed", "7"]) == 0
    train_ids = (data / "train_ids.txt").read_text().split()
    test_ids = (data / "test_ids.txt").read_text().split()
    assert len(test_ids) == 2 and len(train_ids) == 8
    assert not set(train_ids) & set(test_ids)


def test_split_counts_the_test_records_that_repeat_a_train_question(tmp_path, capsys):
    """split_summary.json counts, per category, the test records whose exact
    question text a train record asks too; a question differing in case does
    not count. Either scenario may land in the test split: both share the same
    two questions."""
    questions = {"s1": [("What is ahead?", "scene"), ("Who is there?", "agent"),
                        ("What now?", "suggested_action"), ("Any risk?", "risk"),
                        ("Brake?", "risk")],
                 "s2": [("What is ahead?", "scene"), ("Who else?", "agent"),
                        ("What next?", "suggested_action"), ("Any risk?", "risk"),
                        ("any risk?", "risk")]}
    (tmp_path / "corpus.jsonl").write_text("".join(
        json.dumps({"scenario_id": sid, "image_ref": "img", "question": question,
                    "answer": "a", "category": category, "pair_index": i}) + "\n"
        for sid, pairs in questions.items() for i, (question, category) in enumerate(pairs, 1)),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["split", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path),
                 "--test-fraction", "0.5"]) == 0
    assert capsys.readouterr().out == (f"split: 1 train / 1 test scenarios, 2 of 5 test records "
                                       f"ask a train question -> {tmp_path}\n")
    summary = json.loads((tmp_path / "split_summary.json").read_text(encoding="utf-8"))
    assert summary == {"test_records": 5, "question_overlap": {
        "scene": 1, "agent": 0, "suggested_action": 0, "risk": 1}}


def _corpus_lines(ids):
    categories = ["scene", "agent", "suggested_action", "risk", "risk"]
    return "".join(json.dumps({"scenario_id": sid, "image_ref": "img", "question": "Risk?",
                               "answer": "no", "category": cat, "pair_index": i})
                   + "\n" for sid in ids for i, cat in enumerate(categories, 1))


def test_every_accepted_scenario_id_survives_the_split_manifests(tmp_path, capsys):
    """read_manifest strips its lines, so an id with surrounding whitespace
    would drop out of the split: the corpus read refuses it, naming it, in
    split and in train, and every id it accepts comes back from a manifest."""
    data = tmp_path / "d"
    data.mkdir()
    ids = ["s1", "s 2", "s 3", "s4"]  # inner spaces are kept
    (data / "corpus.jsonl").write_text(_corpus_lines(ids), encoding="utf-8")
    assert main(["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data),
                 "--test-fraction", "0.5"]) == 0
    kept = [r.scenario_id for name in ("train_ids.txt", "test_ids.txt")
            for r in cli._records(str(data / "corpus.jsonl"), str(data / name))]
    assert sorted(kept) == sorted(sid for sid in ids for _ in range(5))

    for bad in (" s2", "s3 ", "s3\u00a0", "\ts4"):
        (data / "corpus.jsonl").write_text(_corpus_lines(["s1", bad, "s5"]), encoding="utf-8")
        capsys.readouterr()
        assert main(["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data)]) == 2
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(f"scenario_id {bad!r} has surrounding whitespace" in e for e in errors)
    assert not (tmp_path / "run").exists()


def test_a_manifest_id_the_corpus_lacks_is_refused(tmp_path, capsys):
    """train, predict --split and eval --manifest refuse a manifest that lists
    an id the corpus lacks, naming the first in manifest order, rather than
    run on the listed ids the corpus has."""
    _, data, run = corpus_pipeline(tmp_path, n=12)
    known = (data / "train_ids.txt").read_text().split()
    listed = [known[0], "scn-x9", known[1], "scn-x1"]
    for name in ("train_ids.txt", "test_ids.txt"):
        (data / name).write_text("".join(sid + "\n" for sid in listed))
    preds = tmp_path / "preds.jsonl"
    preds.write_text("")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run2"),
                 "--set", "warmup_steps=0"]) == 2
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(preds), "--split", "test"]) == 2
    assert main(["eval", "--preds", str(preds), "--gold", str(data / "corpus.jsonl"),
                 "--labels", str(data / "labels"), "--out", str(tmp_path / "evals"),
                 "--manifest", str(data / "test_ids.txt"), "--model-name", "m"]) == 2
    corpus = data / "corpus.jsonl"
    assert capsys.readouterr().err.splitlines() == [
        f"error: input: {data / name}: scenario id 'scn-x9' is not in {corpus}"
        for name in ("train_ids.txt", "test_ids.txt", "test_ids.txt")]
    assert not (tmp_path / "run2").exists() and not (tmp_path / "evals").exists()
    assert preds.read_text() == ""


def test_a_corpus_with_a_repeated_pair_is_refused_by_every_reader(tmp_path, capsys):
    """A corpus that repeats a (scenario_id, pair_index) is refused, naming
    the first repeat, by split, train, predict and eval alike, rather than
    predicted in full and only then refused by eval."""
    _, data, run = corpus_pipeline(tmp_path, n=12)
    preds = tmp_path / "preds.jsonl"
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(preds), "--split", "all"]) == 0
    corpus = data / "corpus.jsonl"
    first = corpus.read_text().splitlines()[0]
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    capsys.readouterr()
    assert main(["split", "--corpus", str(corpus), "--out", str(tmp_path / "split")]) == 2
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run2")]) == 2
    assert main(["predict", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "p2.jsonl"), "--split", "all"]) == 2
    assert main(["eval", "--preds", str(preds), "--gold", str(corpus),
                 "--labels", str(data / "labels"), "--out", str(tmp_path / "evals"),
                 "--model-name", "m"]) == 2
    key = (json.loads(first)["scenario_id"], json.loads(first)["pair_index"])
    assert capsys.readouterr().err.splitlines() == [
        f"error: input: {corpus}: duplicate record for {key}"] * 4
    assert not any((tmp_path / name).exists() for name in ("split", "run2", "p2.jsonl", "evals"))


def test_make_synthetic_refuses_a_seq_len_beyond_max_seq_len(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["make-synthetic", "--out", str(out), "--seq-len", "40"]) == 2
    assert capsys.readouterr().err == "error: config: --seq-len 40 exceeds max_seq_len 32\n"
    assert not out.exists()
    assert main(["make-synthetic", "--out", str(out), "--seq-len", "40", "--n-train", "8",
                 "--n-test", "4", "--set", "max_seq_len=40"]) == 0
    assert main(["train", "--data", str(out), "--out", str(tmp_path / "run"),
                 "--set", "max_seq_len=40", "--set", "warmup_steps=0"]) == 0
