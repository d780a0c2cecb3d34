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
from qlorakit.lora import lora_init, load_adapters, save_adapters
from qlorakit.qagen import read_manifest, read_records_jsonl, read_scenarios_jsonl
from qlorakit.quant import Q4_MAGIC, q4_from_bytes
from qlorakit.tasks import read_token_examples
from qlorakit.trainer import read_trace_csv

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
    st.just("step,lr,loss"),
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
    "read_trace_csv": read_trace_csv,
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


def _q4_stream(rows, cols, block, payload):
    n = rows * cols
    size = (n + 1) // 2 + 4 * -(-n // max(block, 1))
    return (Q4_MAGIC + struct.pack("<III", rows, cols, block)
            + (payload * (size // max(len(payload), 1) + 1))[:size])


@FUZZ
@given(st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=40).map(lambda b: Q4_MAGIC + b),
    st.builds(_q4_stream, st.integers(0, 4), st.integers(0, 4), st.integers(0, 5),
              st.binary(min_size=1, max_size=24)),
))
def test_q4_from_bytes_raises_only_input_error(blob):
    try:
        q4_from_bytes(blob)
    except InputError:
        pass


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
    "predictions-pair-index-string": ("read_predictions_jsonl", (
        b'{"scenario_id": "s", "pair_index": "1", "raw_answer": "a"}\n')),
    "trace-short-row": ("read_trace_csv", b"step,lr,loss\n1,0.1\n"),
    "trace-non-int-step": ("read_trace_csv", b"step,lr,loss\nx,0.1,0.2\n"),
    "trace-bad-utf8": ("read_trace_csv", b"step,lr,loss\n\xff,0.1,0.2\n"),
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


@pytest.mark.parametrize("corpus", [b'{"scenario_id": "s\xff"}\n', RECORD % b'"x"'],
                         ids=["bad-utf8", "pair-index-string"])
def test_split_on_a_corrupt_corpus_exits_2_with_one_line(tmp_path, capsys, corpus):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(corpus)
    rc = main(["split", "--corpus", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: input: ") and err.count("\n") == 1, err


def test_gen_data_on_a_lone_surrogate_caption_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "scenarios.jsonl"
    path.write_bytes(MALFORMED["scenarios-lone-surrogate"][1])
    rc = main(["gen-data", "--scenarios", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: input: ") and err.count("\n") == 1, err
