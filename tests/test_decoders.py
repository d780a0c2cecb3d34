"""Decoder robustness: every reader of on-disk input ends in InputError.

Hypothesis feeds arbitrary bytes and arbitrary JSON lines to each reader;
the only exception allowed out is InputError, which the CLI turns into
exit code 2 and one line on stderr. Hand-written cases pin the inputs
that once escaped untyped or were silently coerced.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlorakit.cli import main
from qlorakit.config import load_config
from qlorakit.errors import ConfigError, InputError
from qlorakit.evalharness import read_label_set, read_predictions_jsonl
from qlorakit.fileio import ECHO_CHARS
from qlorakit.lora import lora_init, load_adapters, save_adapters
from qlorakit.qagen import read_manifest, read_records_jsonl, read_scenarios_jsonl
from qlorakit.tasks import read_token_examples

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# every key any JSONL reader knows, so fuzzed rows reach field validation
KEYS = ("scenario_id", "image_ref", "caption", "risk_present", "suggested_action",
        "road_type", "extra", "question", "answer", "category", "pair_index",
        "tokens", "label", "raw_answer")
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(0, 5)
           | st.floats() | st.text(max_size=8) | st.sampled_from(["scene", "risk", "x"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
ROWS = st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=len(KEYS))
LINES = st.one_of(
    ROWS.map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=30),
    st.lists(st.one_of(st.text(max_size=6), st.integers().map(str),
                       st.floats().map(repr)), max_size=4).map(",".join),
    st.integers(1, 3000).map(lambda d: "[" * d + "]" * d),
).map(lambda s: s.encode("utf-8", "surrogatepass"))
FILES = st.one_of(
    st.binary(max_size=120),
    st.lists(st.one_of(LINES, st.binary(max_size=12)), max_size=6).map(b"\n".join),
)

READERS = {
    "read_records_jsonl": read_records_jsonl,
    "read_scenarios_jsonl": read_scenarios_jsonl,
    "read_token_examples": read_token_examples,
    "read_predictions_jsonl": read_predictions_jsonl,
    "read_manifest": read_manifest,
    "read_label_set": lambda path: read_label_set(path, "risk"),
}


def _decode_or_input_error(read, path, blob):
    """read(path) on a file holding blob; InputError is the one allowed failure.
    The file is removed afterwards, so each example writes a new one."""
    path.write_bytes(blob)
    try:
        read(path)
    except InputError:
        pass
    finally:
        path.unlink()


@pytest.mark.parametrize("reader", sorted(READERS))
@FUZZ
@given(blob=FILES)
def test_text_readers_raise_only_input_error(tmp_path, reader, blob):
    _decode_or_input_error(READERS[reader], tmp_path / "input", blob)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ckpt") / "adapters.bin"
    save_adapters(path, {"layers.0.attn_q": lora_init(3, 2, 2, 4.0, seed=1)}, {"k": 1})
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_load_adapters_raises_only_input_error(tmp_path, checkpoint, data):
    good = checkpoint
    rest = good[16 + int.from_bytes(good[12:16], "little"):]
    blob = data.draw(st.one_of(
        st.integers(1, 5000).map(  # meta nested too deep for the JSON decoder
            lambda d: good[:12] + struct.pack("<I", 2 * d) + b"[" * d + b"]" * d + rest),
        st.binary(max_size=80),
        st.binary(max_size=60).map(lambda b: good[:16] + b),
        st.integers(0, len(good)).map(lambda k: good[:k]),
        st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)).map(
            lambda pv: good[:pv[0]] + bytes([pv[1]]) + good[pv[0] + 1:]),
    ))
    _decode_or_input_error(load_adapters, tmp_path / "adapters.bin", blob)


RECORD = (b'{"scenario_id": "s", "image_ref": "i", "question": "q?", "answer": "a", '
          b'"category": "scene", "pair_index": %s}\n')
MALFORMED = {
    "records-bad-utf8": ("read_records_jsonl", b'{"question": "\xff"}\n'),
    "records-deep-nesting": ("read_records_jsonl", b"[" * 100_000 + b"]" * 100_000),
    "records-pair-index-string": ("read_records_jsonl", RECORD % b'"x"'),
    "records-pair-index-numeric-string": ("read_records_jsonl", RECORD % b'"3"'),
    "records-pair-index-fraction": ("read_records_jsonl", RECORD % b"1.5"),
    "records-pair-index-bool": ("read_records_jsonl", RECORD % b"true"),
    "records-lone-surrogate": ("read_records_jsonl", RECORD.replace(b'"q?"', b'"q\\ud800?"')
                               % b"1"),
    "scenarios-lone-surrogate": ("read_scenarios_jsonl", (
        b'{"scenario_id": "s", "image_ref": "i", "caption": "c\\udc80", "risk_present": false, '
        b'"suggested_action": "a", "road_type": "r"}\n')),
    "scenarios-extra-list": ("read_scenarios_jsonl", (
        b'{"scenario_id": "s", "image_ref": "i", "caption": "c", "risk_present": false, '
        b'"suggested_action": "a", "road_type": "r", "extra": [1]}\n')),
    "tokens-1e400": ("read_token_examples", b'{"tokens": [1e400], "label": 0}\n'),
    "tokens-infinity": ("read_token_examples", b'{"tokens": [Infinity], "label": 0}\n'),
    "tokens-2**70": ("read_token_examples", b'{"tokens": [1180591620717411303424], "label": 0}\n'),
    "label-2**70": ("read_token_examples", b'{"tokens": [1], "label": 1180591620717411303424}\n'),
    "tokens-string": ("read_token_examples", b'{"tokens": "12", "label": 0}\n'),
    "tokens-string-element": ("read_token_examples", b'{"tokens": [1, "2"], "label": 0}\n'),
    "tokens-bool-element": ("read_token_examples", b'{"tokens": [1, true], "label": 0}\n'),
    "tokens-nested-list": ("read_token_examples", b'{"tokens": [[1]], "label": 0}\n'),
    "tokens-missing": ("read_token_examples", b'{"label": 0}\n'),
    "label-missing": ("read_token_examples", b'{"tokens": [1]}\n'),
    "predictions-pair-index-string": ("read_predictions_jsonl", (
        b'{"scenario_id": "s", "pair_index": "1", "raw_answer": "a"}\n')),
    "predictions-pair-index-2**70": ("read_predictions_jsonl", (
        b'{"scenario_id": "s", "pair_index": 1180591620717411303424, "raw_answer": "a"}\n')),
    "predictions-raw-answer-number": ("read_predictions_jsonl", (
        b'{"scenario_id": "s", "pair_index": 1, "raw_answer": 1}\n')),
    "manifest-bad-utf8": ("read_manifest", b"s1\n\xfe\n"),
    "labels-bad-utf8": ("read_label_set", b"yes\n\xc3\n"),
    "labels-one-label": ("read_label_set", b"yes\n"),
    "labels-empty-after-normalization": ("read_label_set", b"yes\n{}\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_are_input_errors(tmp_path, case):
    reader, text = MALFORMED[case]
    path = tmp_path / "input"
    path.write_bytes(text)
    with pytest.raises(InputError):
        READERS[reader](path)


@pytest.mark.parametrize("row, message", [
    (b'{"tokens": [1], "label": %s}' % (b"9" * 4000),  # a 4,000-digit label
     f"label must be a 64-bit integer, got {'9' * ECHO_CHARS}..."),
    (b'{"tokens": %s1%s, "label": 0}' % (b"[" * 200, b"]" * 200),  # tokens nested 200 deep
     f"tokens item must be a 64-bit integer, got {'[' * ECHO_CHARS}..."),
    (b'{"tokens": [1, "2"], "label": 0}', "tokens item must be a 64-bit integer, got '2'"),
])
def test_a_bad_integer_is_quoted_up_to_a_fixed_length(tmp_path, row, message):
    path = tmp_path / "train.jsonl"
    path.write_bytes(row + b"\n")
    with pytest.raises(InputError) as info:
        read_token_examples(path)
    assert str(info.value) == f"{path}: {message}"


def test_integral_floats_still_read_as_integers(tmp_path):
    path = tmp_path / "train.jsonl"
    path.write_text('{"tokens": [1.0, 2], "label": 3.0}\n')
    [(toks, label)] = read_token_examples(path)
    assert toks.tolist() == [1, 2] and label == 3 and isinstance(label, int)


def test_config_file_with_bad_bytes_or_deep_nesting_is_a_config_error(tmp_path):
    for i, text in enumerate((b'{"rank": "\xff"}', b"[" * 100_000 + b"]" * 100_000)):
        path = tmp_path / f"cfg{i}.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError):
            load_config(path)


def _exits_2_with_one_line(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: input: ") and err.count("\n") == 1, err
    assert len(err.encode()) <= 300, err
    return err


@pytest.mark.parametrize("corpus", [b'{"scenario_id": "s\xff"}\n', RECORD % b'"x"'],
                         ids=["bad-utf8", "pair-index-string"])
def test_split_on_a_corrupt_corpus_exits_2_with_one_line(tmp_path, capsys, corpus):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(corpus)
    _exits_2_with_one_line(capsys, ["split", "--corpus", str(path),
                                    "--out", str(tmp_path / "out")])


def test_gen_data_on_a_lone_surrogate_caption_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "scenarios.jsonl"
    path.write_bytes(MALFORMED["scenarios-lone-surrogate"][1])
    _exits_2_with_one_line(capsys, ["gen-data", "--scenarios", str(path),
                                    "--out", str(tmp_path / "out")])


def corpus_checkpoint(**changed) -> bytes:
    """An adapter checkpoint without adapters whose meta is a corpus run's
    with the changed keys replaced; a None value drops the key."""
    meta = {"mode": "corpus", "labels": ["no", "yes"], "n_classes": 2, "config": {}}
    meta.update(changed)
    blob = json.dumps({k: v for k, v in meta.items() if v is not None}).encode()
    return b"LAD1" + struct.pack("<III", 1, 0, len(blob)) + blob


METRICS = {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5, "sample_count": 4}


def eval_summary(**changed) -> bytes:
    """The bytes of model m's eval_summary file with the changed keys replaced;
    "\xff" in a value stands for a byte that is not UTF-8."""
    summary = {"model_name": "m", "mode": "macro", "metrics": {"risk": METRICS}, **changed}
    return json.dumps(summary).encode().replace(b"\\u00ff", b"\xff")


# case -> (command, the file it reads, its bytes); train reads task.json of a token
# dir, predict the adapters.bin of a run dir, report eval_summary_*.json beside a
# good one of model a
CLI_INPUTS = {
    "train-task-json-invalid": ("train", "task.json", b"{bad"),
    "train-task-json-no-keys": ("train", "task.json", b"{}"),
    "train-task-json-list": ("train", "task.json", b"[1]"),
    "train-task-json-string-vocab": ("train", "task.json",
                                     b'{"vocab_size": "x", "n_classes": 4}'),
    "train-task-json-bad-utf8": ("train", "task.json",
                                 b'{"vocab_size": 64, "n_classes": 4}\xff'),
    "report-bad-utf8": ("report", "eval_summary_m.json", eval_summary(mode="\xff")),
    "report-invalid-json": ("report", "eval_summary_m.json", eval_summary()[:-2]),
    "report-metrics-not-object": ("report", "eval_summary_m.json", eval_summary(metrics=[1])),
    "report-unknown-metric-key": ("report", "eval_summary_m.json",
                                  eval_summary(metrics={"risk": {**METRICS, "auc": 0.5}})),
    "report-missing-metric-key": ("report", "eval_summary_m.json", eval_summary(
        metrics={"risk": {k: v for k, v in METRICS.items() if k != "f1"}})),
    "report-string-metric": ("report", "eval_summary_m.json",
                             eval_summary(metrics={"risk": {**METRICS, "recall": "0.5"}})),
    "report-metric-above-1": ("report", "eval_summary_m.json",
                              eval_summary(metrics={"risk": {**METRICS, "f1": 1.5}})),
    "report-int-metric": ("report", "eval_summary_m.json",
                          eval_summary(metrics={"risk": {**METRICS, "accuracy": 1}})),
    "report-unknown-category": ("report", "eval_summary_m.json",
                                eval_summary(metrics={"weather": METRICS})),
    "report-comma-in-model-name": ("report", "eval_summary_m.json",
                                   eval_summary(model_name="m,n")),
    "report-newline-in-model-name": ("report", "eval_summary_m.json",
                                     eval_summary(model_name="m\n")),
    "report-model-twice": ("report", "eval_summary_m.json", eval_summary(model_name="a")),
    "report-unknown-mode": ("report", "eval_summary_m.json", eval_summary(mode="median")),
    "inspect-quant-words": ("inspect-quant", "w.txt", b"abc def\n"),
    "inspect-quant-empty": ("inspect-quant", "w.txt", b""),
    "inspect-quant-blank": ("inspect-quant", "w.txt", b"  \n\n"),
    "inspect-quant-ragged-rows": ("inspect-quant", "w.txt", b"1 2\n3\n"),
    "inspect-quant-not-npy": ("inspect-quant", "w.npy", b"not an npy file"),
    "inspect-quant-empty-npy": ("inspect-quant", "w.npy", b""),
    "predict-meta-no-config": ("predict", "adapters.bin", corpus_checkpoint(config=None)),
    "predict-meta-no-n-classes": ("predict", "adapters.bin",
                                  corpus_checkpoint(n_classes=None)),
    "predict-meta-string-n-classes": ("predict", "adapters.bin",
                                      corpus_checkpoint(n_classes="x")),
    "predict-meta-int-labels": ("predict", "adapters.bin", corpus_checkpoint(labels=5)),
    "predict-meta-list-config": ("predict", "adapters.bin", corpus_checkpoint(config=[1])),
}


# report case -> how its message names the fault in eval_summary_m.json
REPORT_FAULTS = {
    "report-bad-utf8": "not UTF-8 text",
    "report-invalid-json": "invalid JSON",
    "report-metrics-not-object": "metrics must be a JSON object",
    "report-unknown-metric-key": "risk metrics must hold exactly",
    "report-missing-metric-key": "risk metrics must hold exactly",
    "report-string-metric": "risk: recall must be a float in [0, 1], got '0.5'",
    "report-metric-above-1": "risk: f1 must be a float in [0, 1], got 1.5",
    "report-int-metric": "risk: accuracy must be a float in [0, 1], got 1",
    "report-unknown-category": "unknown category 'weather'",
    "report-comma-in-model-name": "bad model name 'm,n'",
    "report-newline-in-model-name": "bad model name 'm\\n'",
    "report-model-twice": "model name 'a' is also an earlier file's",
    "report-unknown-mode": "mode must be one of",
}


@pytest.mark.parametrize("case", sorted(CLI_INPUTS))
def test_cli_on_a_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    command, name, blob = CLI_INPUTS[case]
    (tmp_path / name).write_bytes(blob)
    (tmp_path / "train.jsonl").write_text('{"tokens": [1], "label": 0}\n')
    (tmp_path / "eval_summary_a.json").write_bytes(eval_summary(model_name="a"))
    argv = {"train": ["train", "--data", str(tmp_path), "--out", str(tmp_path / "run")],
            "report": ["report", "--in", str(tmp_path)],
            "inspect-quant": ["inspect-quant", "--weights", str(tmp_path / name)],
            "predict": ["predict", "--run", str(tmp_path), "--data", str(tmp_path),
                        "--out", str(tmp_path / "p.jsonl")]}
    err = _exits_2_with_one_line(capsys, argv[command])
    if command == "report":
        assert err.startswith(f"error: input: {tmp_path / name}: {REPORT_FAULTS[case]}"), err

