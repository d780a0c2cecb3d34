"""One JSON decoder, fileio.json_value, serves every reader, and a fixed
nesting cap decides deep input: each reader gives the same value or the
same message whether it is called from a shallow stack or from one 500
frames deeper. Messages quote a bad value up to a fixed length."""

import contextlib
import json
import struct
import sys
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_json_depth
from qlorakit.cli import main
from qlorakit.config import load_config
from qlorakit.errors import InputError, QlorakitError
from qlorakit.fileio import MAX_JSON_DEPTH, json_value
from qlorakit.lora import load_adapters, lora_init, save_adapters
from qlorakit.qagen import (CATEGORIES, HttpLLMClient, LLMClientSpec, parse_qa_response,
                            read_records_jsonl)

EXTRA_FRAMES = 500
BRACKETS_IN_A_STRING = json.dumps("[" * 150 + "{" * 150)


def nested(openers: str) -> str:
    """A JSON value nested len(openers) deep: a list for each "[", an object for each "{"."""
    closers = "".join("]" if o == "[" else "}" for o in reversed(openers))
    return "".join("[" if o == "[" else '{"k": ' for o in openers) + "1" + closers


VALUES = st.one_of(
    st.tuples(st.integers(1, 2000), st.text(alphabet="[{", min_size=1, max_size=6)).map(
        lambda dp: nested("".join(dp[1][i % len(dp[1])] for i in range(dp[0])))),
    st.just(BRACKETS_IN_A_STRING))


def under_frames(frames: int, call):
    """call() with `frames` more Python frames on the stack."""
    return under_frames(frames - 1, call) if frames else call()


@contextlib.contextmanager
def default_recursion_limit():
    """The interpreter's default recursion limit of 1,000 frames, which
    hypothesis raises while a test runs."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class CannedReply:
    """Stands in for urllib's opener and its response: every request gets a
    200 carrying body, and no socket opens."""
    status = 200

    def __init__(self, body: bytes):
        self.body = body

    def open(self, request, timeout):
        return self

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def readers(tmp_path, value: str, monkeypatch) -> dict:
    """Per reader, the levels of nesting its text puts around value, and a
    call that decodes that text."""
    record = {"scenario_id": "s", "image_ref": "i", "question": "QUESTION", "answer": "a",
              "category": "scene", "pair_index": 1}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record).replace('"QUESTION"', value) + "\n")
    config = tmp_path / "config.json"
    config.write_text('{"model_name": %s}' % value)
    checkpoint = tmp_path / "adapters.bin"
    save_adapters(checkpoint, {"layers.0.attn_q": lora_init(3, 2, 2, 4.0, seed=1)}, {})
    good = checkpoint.read_bytes()
    meta = ('{"note": %s}' % value).encode()
    checkpoint.write_bytes(good[:12] + struct.pack("<I", len(meta)) + meta
                           + good[16 + int.from_bytes(good[12:16], "little"):])
    pairs = [{"question": "QUESTION", "answer": "a", "category": c}
             for c in CATEGORIES + ("scene",)]
    response = json.dumps(pairs).replace('"QUESTION"', value, 1)
    body = ('{"text": %s}' % value).encode()
    monkeypatch.setattr(urllib.request, "build_opener", lambda *handlers: CannedReply(body))
    monkeypatch.setenv("QA_TEST_KEY", "k")
    client = HttpLLMClient(LLMClientSpec(backend="http", endpoint="http://127.0.0.1:9/c",
                                         credential_env="QA_TEST_KEY"))
    return {
        "jsonl": (1, lambda: read_records_jsonl(corpus)),
        "config": (1, lambda: load_config(config)),
        "adapter-meta": (1, lambda: load_adapters(checkpoint)[1]),
        "qa-response": (2, lambda: parse_qa_response(response)),
        "http-body": (1, lambda: client.complete("p")),
    }


def outcome(call):
    try:
        return "value", call()
    except QlorakitError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


@settings(max_examples=40, deadline=None)
@given(value=VALUES)
@example(value=nested("[" * 600))
@example(value=nested("[{" * 495))
@example(value=nested("{" * (MAX_JSON_DEPTH - 1)))
@example(value=nested("[" * MAX_JSON_DEPTH))
@example(value=BRACKETS_IN_A_STRING)
def test_every_reader_decides_deep_input_the_same_at_any_stack_depth(tmp_path_factory, value):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = readers(tmp_path_factory.mktemp("depth"), value, monkeypatch)
        for name, (around, call) in calls.items():
            with default_recursion_limit():
                shallow = outcome(call)
                deep = outcome(lambda: under_frames(EXTRA_FRAMES, call))
            assert deep == shallow, name
            kind, result = shallow
            refused = kind == "error" and "invalid JSON" in result
            assert refused == (reference_json_depth(value) + around > MAX_JSON_DEPTH), name
            if refused:
                assert result.endswith(f"invalid JSON: nested deeper than {MAX_JSON_DEPTH} levels")


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.one_of(  # runs of openers near the cap, and what hides them in strings
    st.tuples(st.sampled_from("[{"), st.sampled_from((1, 2, 128, 255, 256, 257))).map(
        lambda ck: ck[0] * ck[1]),
    st.sampled_from(['"', '\\"', '\\\\', "]", "}", "1"])), max_size=10).map("".join))
def test_the_cap_counts_only_brackets_outside_strings(text):
    try:
        json_value(text, "text")
        refused = False
    except InputError as exc:
        refused = str(exc) == f"text: invalid JSON: nested deeper than {MAX_JSON_DEPTH} levels"
    assert refused == (reference_json_depth(text) > MAX_JSON_DEPTH)


def test_messages_quote_a_bad_value_up_to_a_fixed_length(tmp_path, capsys):
    record = {"scenario_id": "s", "image_ref": "i", "question": "q?", "answer": "a",
              "category": "c" * 100_000, "pair_index": 1}
    (tmp_path / "corpus.jsonl").write_text(json.dumps(record) + "\n")
    del record["category"]
    record["k" * 100_000] = "scene"
    (tmp_path / "keyed.jsonl").write_text(json.dumps(record) + "\n")
    metrics = {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5, "sample_count": 4}
    (tmp_path / "eval_summary_m.json").write_text(json.dumps(
        {"model_name": "m", "mode": "macro", "metrics": {"c" * 100_000: metrics}}))
    # a trained checkpoint whose one adapter has a 100,000-character name, whole and cut
    # inside that adapter's header
    data, run = tmp_path / "data", tmp_path / "run"
    for argv in (["make-scenarios", "--n", "4", "--out", str(tmp_path / "s.jsonl")],
                 ["gen-data", "--scenarios", str(tmp_path / "s.jsonl"), "--out", str(data)],
                 ["train", "--data", str(data), "--out", str(run),
                  "--set", "epochs=1", "--set", "warmup_steps=0"]):
        assert main(argv) == 0, argv[0]
    adapters, meta = load_adapters(run / "adapters.bin")
    save_adapters(run / "adapters.bin", {"x" * 100_000: min(adapters.items())[1]}, meta)
    blob = (run / "adapters.bin").read_bytes()
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "adapters.bin").write_bytes(blob[:blob.index(b"x" * 100_000) + 100_010])
    predict = ["predict", "--data", str(data), "--out", str(tmp_path / "p.jsonl"),
               "--split", "all"]
    capsys.readouterr()
    for argv in (["split", "--corpus", str(tmp_path / "corpus.jsonl"),
                  "--out", str(tmp_path / "split")],
                 ["split", "--corpus", str(tmp_path / "keyed.jsonl"),
                  "--out", str(tmp_path / "split")],
                 ["make-scenarios", "--n", "2", "--out", str(tmp_path / "s.jsonl"),
                  "--set", "rank=" + "7" * 5_001],
                 ["make-scenarios", "--n", "2", "--out", str(tmp_path / "s.jsonl"),
                  "--set", "k" * 100_000 + "=1"],
                 ["report", "--in", str(tmp_path)],
                 predict + ["--run", str(run)],
                 predict + ["--run", str(cut)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) <= 300, (argv[0], err[:400])
        assert "..." in err, (argv[0], err)
