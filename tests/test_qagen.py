"""QA-generation tests: annotation validation, the prompt/response
grammar, the deterministic mock client, retry/reject accounting, splits,
and the JSONL file formats."""

import http.server
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit import qagen
from qlorakit.cli import main
from qlorakit.errors import (ConfigError, InputError, QAParseError,
                             TransportError)
from qlorakit.fileio import write_jsonl
from qlorakit.qagen import (CATEGORIES, HttpLLMClient, LLMClientSpec,
                            MockLLMClient, QARecord, RejectRecord,
                            ScenarioAnnotation, build_prompt,
                            generate_dataset, parse_qa_response,
                            read_manifest, read_records_jsonl,
                            read_scenarios_jsonl, split_dataset,
                            write_manifest)


def scenario(i=0, **kwargs):
    base = dict(scenario_id=f"s-{i:03d}", image_ref=f"img/{i}.jpg",
                caption=f"A cyclist swerves near lane {i}", risk_present=True,
                suggested_action="slow down", road_type="urban street",
                extra={"agent": "cyclist"})
    base.update(kwargs)
    return ScenarioAnnotation(**base)


def good_response():
    pairs = [{"question": f"q{i}?", "answer": f"a{i}", "category": c}
             for i, c in enumerate(CATEGORIES)]
    pairs.append({"question": "q4?", "answer": "a4", "category": "risk"})
    return json.dumps(pairs)


# ---- annotations and records ----

def test_annotation_validation():
    with pytest.raises(InputError, match="newline"):
        scenario(caption="line one\nline two")
    with pytest.raises(InputError, match="non-empty"):
        scenario(scenario_id="   ")
    with pytest.raises(InputError, match="boolean"):
        scenario(risk_present="yes")
    with pytest.raises(InputError, match="bad extra key"):
        scenario(extra={"Bad Key": "x"})
    with pytest.raises(InputError, match="bad extra key"):
        scenario(extra={"caption": "shadows a core field"})
    with pytest.raises(InputError, match="bad extra key"):  # a "$" anchor would let it by
        scenario(extra={"agent\n": "cyclist"})


# every line boundary str.splitlines knows besides "\n" and "\r"
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_every_line_break_is_refused_in_line_text(brk, tmp_path):
    assert len(f"a{brk}b".splitlines()) == 2
    record = dict(scenario_id="s", image_ref="i", answer="a", category="risk", pair_index=1)
    for text in (f"A car ahead.{brk}road_type: desert", f"Risk?{brk}", f"{brk}Risk?"):
        with pytest.raises(InputError, match="caption must not contain newlines"):
            scenario(caption=text)
        with pytest.raises(InputError, match="question must not contain newlines"):
            QARecord(question=text, **record)
    # the same text read back from a file, as write_jsonl would have written it
    row = {"scenario_id": "s", "image_ref": "i", "question": f"Risk?{brk}now",
           "answer": "a", "category": "risk", "pair_index": 1}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="question must not contain newlines"):
        read_records_jsonl(path)
    # nor can a response carry one into the corpus
    pairs = json.loads(good_response())
    pairs[2]["answer"] = f"slow{brk}down"
    with pytest.raises(QAParseError, match="answer must not contain newlines"):
        parse_qa_response(json.dumps(pairs))


def test_unprintable_text_that_breaks_no_line_is_kept():
    for text in ("tab\there", "bell\x07", "nul\x00byte", "unit\x1fsep", "nbsp\xa0x"):
        assert scenario(caption=text).caption == text


def test_record_validation():
    good = dict(scenario_id="s", image_ref="i", question="q?", answer="a")
    QARecord(category="risk", pair_index=5, **good)
    with pytest.raises(InputError, match="category"):
        QARecord(category="weather", pair_index=1, **good)
    with pytest.raises(InputError, match="pair_index"):
        QARecord(category="risk", pair_index=6, **good)


# ---- prompt ----

def test_prompt_embeds_fields_verbatim_and_is_deterministic():
    s = scenario(caption="cyclist ahead")
    prompt = build_prompt(s)
    assert prompt == build_prompt(s)
    assert "cyclist ahead" in prompt
    assert f"scenario_id: {s.scenario_id}" in prompt
    assert "risk_present: true" in prompt
    assert "agent: cyclist" in prompt


_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=30).map(
    lambda s: s.strip() or "x")


@settings(max_examples=30, deadline=None)
@given(_word, _word, st.booleans())
def test_prompt_always_states_the_grammar(caption, action, risky):
    prompt = build_prompt(ScenarioAnnotation(
        scenario_id="sid", image_ref="img", caption=caption,
        risk_present=risky, suggested_action=action, road_type="highway"))
    assert "exactly five" in prompt
    for category in CATEGORIES:
        assert category in prompt
    assert caption in prompt and action in prompt


# ---- response parsing ----

def test_parse_well_formed_response():
    triples = parse_qa_response("Sure thing! " + good_response() + " Done.")
    assert len(triples) == 5
    assert {c for _, _, c in triples} == set(CATEGORIES)


def test_parse_rejects_wrong_count():
    four = json.dumps([{"question": "q?", "answer": "a", "category": "scene"}] * 4)
    with pytest.raises(QAParseError, match="expected 5"):
        parse_qa_response(four)


def test_parse_rejects_unknown_category():
    pairs = json.loads(good_response())
    pairs[-1]["category"] = "weather"
    with pytest.raises(QAParseError, match="weather"):
        parse_qa_response(json.dumps(pairs))


def test_parse_requires_every_category():
    five_scene = json.dumps([{"question": f"q{i}?", "answer": "a", "category": "scene"}
                             for i in range(5)])
    with pytest.raises(QAParseError, match="no QA pair for category 'agent'"):
        parse_qa_response(five_scene)
    pairs = json.loads(good_response())
    pairs[3]["category"] = "agent"  # risk now only in the fifth pair: still valid
    parse_qa_response(json.dumps(pairs))
    pairs[4]["category"] = "agent"
    with pytest.raises(QAParseError, match="'risk'"):
        parse_qa_response(json.dumps(pairs))


def test_parse_rejects_non_json():
    with pytest.raises(QAParseError):
        parse_qa_response("I cannot help with that.")
    with pytest.raises(QAParseError, match="invalid JSON"):
        parse_qa_response("[{'single': 'quotes'}]")
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(QAParseError, match="invalid JSON"):
        parse_qa_response(deep)


def test_parse_rejects_empty_fields_and_non_objects():
    pairs = json.loads(good_response())
    pairs[0]["answer"] = "   "
    with pytest.raises(QAParseError, match="answer"):
        parse_qa_response(json.dumps(pairs))
    # a field no corpus line can hold fails the grammar, so it is retried
    for field_name, value in (("question", "two\nlines?"), ("answer", "a\rb"),
                              ("question", "lone \ud800 surrogate?")):
        pairs = json.loads(good_response())
        pairs[1][field_name] = value
        with pytest.raises(QAParseError, match=field_name):
            parse_qa_response(json.dumps(pairs))
    with pytest.raises(QAParseError, match="not an object"):
        parse_qa_response(json.dumps([1, 2, 3, 4, 5]))


# ---- mock client ----

def test_mock_client_is_deterministic_and_grammar_conformant():
    s = scenario(3)
    prompt = build_prompt(s)
    t1 = MockLLMClient(seed=5).complete(prompt)
    t2 = MockLLMClient(seed=5).complete(prompt)
    assert t1 == t2
    assert MockLLMClient(seed=6).complete(prompt) != t1
    triples = parse_qa_response(t1)
    cats = [c for _, _, c in triples]
    assert len(triples) == 5
    assert set(CATEGORIES) <= set(cats)
    answers = {c: a for _, a, c in triples}
    assert answers["scene"] == s.road_type
    assert answers["agent"] == s.extra["agent"]
    assert answers["suggested_action"] == s.suggested_action
    assert answers["risk"] == "yes"


def test_mock_client_malformed_and_flaky_modes():
    s = scenario(1)
    prompt = build_prompt(s)
    bad = MockLLMClient(seed=0, malformed_ids=[s.scenario_id])
    for _ in range(3):
        with pytest.raises(QAParseError):
            parse_qa_response(bad.complete(prompt))
    flaky = MockLLMClient(seed=0, flaky_attempts={s.scenario_id: 2})
    with pytest.raises(QAParseError):
        parse_qa_response(flaky.complete(prompt))
    with pytest.raises(QAParseError):
        parse_qa_response(flaky.complete(prompt))
    assert len(parse_qa_response(flaky.complete(prompt))) == 5


# ---- generation ----

def test_generate_five_records_per_scenario_sorted():
    scenarios = [scenario(i) for i in (2, 0, 1)]
    result = generate_dataset(scenarios, MockLLMClient(seed=1))
    assert result.stats == {"scenarios": 3, "accepted": 3, "rejected": 0,
                            "records": 15, "attempts": 3}
    keys = [(r.scenario_id, r.pair_index) for r in result.records]
    assert keys == sorted(keys)
    assert [k[1] for k in keys[:5]] == [1, 2, 3, 4, 5]


def test_generation_independent_of_concurrency():
    scenarios = [scenario(i) for i in range(12)]
    r1 = generate_dataset(scenarios, MockLLMClient(seed=2), max_concurrency=1)
    r8 = generate_dataset(scenarios, MockLLMClient(seed=2), max_concurrency=8)
    assert r1.records == r8.records


def spy_on_pools(monkeypatch):
    """The keyword arguments of every ThreadPoolExecutor generate_dataset builds."""
    built = []
    real = qagen.ThreadPoolExecutor

    def spy(**kwargs):
        built.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(qagen, "ThreadPoolExecutor", spy)
    return built


def test_the_mock_runs_in_the_calling_thread_without_a_pool(monkeypatch):
    built = spy_on_pools(monkeypatch)
    threads = set()
    complete = MockLLMClient.complete
    monkeypatch.setattr(MockLLMClient, "complete", lambda self, prompt: (
        threads.add(threading.get_ident()), complete(self, prompt))[1])
    scenarios = [scenario(i) for i in range(12)]
    for workers in (1, 8):
        generate_dataset(scenarios, MockLLMClient(seed=2), max_concurrency=workers)
    assert built == [] and threads == {threading.get_ident()}
    with pytest.raises(ConfigError, match="max_concurrency must be >= 1, got 0"):
        generate_dataset(scenarios, MockLLMClient(seed=2), max_concurrency=0)


def test_http_generation_runs_in_one_pool_of_max_concurrency(stub, monkeypatch):
    built = spy_on_pools(monkeypatch)
    result = generate_dataset([scenario(i) for i in range(4)], http_client(stub.url),
                              max_concurrency=3)
    assert built == [{"max_workers": 3}]
    assert result.stats["accepted"] == 4 and len(stub.seen) == 4


def test_retry_then_reject_accounting():
    scenarios = [scenario(i) for i in range(4)]
    sid_dead = scenarios[0].scenario_id
    sid_flaky = scenarios[1].scenario_id
    client = MockLLMClient(seed=3, malformed_ids=[sid_dead],
                           flaky_attempts={sid_flaky: 2})
    result = generate_dataset(scenarios, client, max_retries=2)
    assert result.stats["accepted"] == 3
    assert result.stats["records"] == 15
    assert [r.scenario_id for r in result.rejects] == [sid_dead]
    assert result.rejects[0].attempts == 3
    assert "parse failure" in result.rejects[0].error
    # dead: 3 attempts, flaky: 3 (2 bad + 1 good), two clean: 1 each
    assert result.stats["attempts"] == 8
    assert not any(r.scenario_id == sid_dead for r in result.records)


def test_all_scenarios_failing_is_a_transport_error():
    scenarios = [scenario(i) for i in range(2)]
    client = MockLLMClient(seed=0, malformed_ids=[s.scenario_id for s in scenarios])
    with pytest.raises(TransportError, match="mock"):
        generate_dataset(scenarios, client, max_retries=1)


def test_duplicate_scenario_ids_rejected():
    with pytest.raises(InputError, match="duplicate"):
        generate_dataset([scenario(0), scenario(0)], MockLLMClient())


# ---- split ----

def test_split_sizes_partition_and_determinism():
    records = [QARecord(scenario_id=f"s{i}", image_ref="i", question="q?",
                        answer="a", category="risk", pair_index=1)
               for i in range(10)]
    train, test = split_dataset(records, 0.2, seed=4)
    assert len(test) == 2 and len(train) == 8
    assert sorted(train + test) == sorted(f"s{i}" for i in range(10))
    assert not set(train) & set(test)
    assert (train, test) == split_dataset(records, 0.2, seed=4)
    assert (train, test) != split_dataset(records, 0.2, seed=5)


def test_split_validation():
    records = [QARecord(scenario_id="a", image_ref="i", question="q?",
                        answer="x", category="risk", pair_index=1)]
    with pytest.raises(ConfigError, match="test_fraction"):
        split_dataset(records, 1.5, seed=0)
    with pytest.raises(InputError, match="at least 2"):
        split_dataset(records, 0.5, seed=0)


# ---- http client, over a real socket to a localhost stub ----

KEY = "sekret-7f3a"  # the credential; it must reach the request header and nowhere else


@pytest.fixture
def stub(monkeypatch):
    """A completion service on a free localhost port, served from a daemon thread.

    Each POST is recorded in stub.seen as (path, headers, JSON body) and
    answered by stub.reply(body), a (status, body bytes) pair; a 3xx answer
    names another path as its Location, and a status of None holds the
    answer back until the test ends, past any client timeout.
    """
    for var in ("http_proxy", "HTTP_PROXY"):  # a proxy must not route 127.0.0.1
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setitem(sys.modules, "requests", None)  # any import of it fails
    monkeypatch.setenv("QA_TEST_KEY", KEY)
    release = threading.Event()
    state = types.SimpleNamespace(seen=[], reply=lambda body: (200, text_body(good_response())))

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state.seen.append((self.path, dict(self.headers), body))
            status, payload = state.reply(body)
            if status is None:
                release.wait(10)
                return
            self.send_response(status)
            if 300 <= status < 400:
                self.send_header("Location", "/elsewhere")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    state.url = f"http://127.0.0.1:{server.server_port}/v1/complete"
    yield state
    release.set()
    server.shutdown()
    server.server_close()


def text_body(text):
    return json.dumps({"text": text}).encode("utf-8")


def http_client(url, **kwargs):
    return HttpLLMClient(LLMClientSpec(backend="http", endpoint=url,
                                       credential_env="QA_TEST_KEY", timeout_s=0.2,
                                       **kwargs))


def test_http_client_requires_the_credential_env(monkeypatch):
    monkeypatch.delenv("QA_TEST_KEY", raising=False)
    spec = LLMClientSpec(backend="http", endpoint="http://127.0.0.1:9/complete",
                         credential_env="QA_TEST_KEY")
    with pytest.raises(ConfigError, match="QA_TEST_KEY"):
        HttpLLMClient(spec)
    # a header holds one line, and an error quoting a bad header would print the key
    for bad in (KEY + "\n", KEY + "\u2603"):
        monkeypatch.setenv("QA_TEST_KEY", bad)
        with pytest.raises(ConfigError, match="QA_TEST_KEY") as exc:
            HttpLLMClient(spec)
        assert KEY not in str(exc.value)


def test_http_client_success_and_auth_header(stub):
    out = http_client(stub.url, model_name="qa-large").complete("prompt text")
    assert out == good_response()
    [(path, headers, body)] = stub.seen
    assert path == "/v1/complete"
    assert headers["Authorization"] == f"Bearer {KEY}"
    assert headers["Content-Type"] == "application/json"
    assert body == {"model": "qa-large", "prompt": "prompt text", "max_tokens": 512}


def test_http_client_error_mapping(stub):
    client = http_client(stub.url)
    for status in (404, 503, 201, 302):  # anything but 200; a redirect is not followed
        stub.seen.clear()
        stub.reply = lambda body, status=status: (status, text_body(good_response()))
        with pytest.raises(TransportError, match=f"{stub.url} returned HTTP {status}") as exc:
            client.complete("p")
        assert KEY not in str(exc.value)
        assert [path for path, _, _ in stub.seen] == ["/v1/complete"]

    malformed = {
        b"<html>": "invalid JSON",
        b"\xff\xfe": "invalid JSON",
        b"[" * 100_000 + b"]" * 100_000: "invalid JSON",
        b'{"no_text": 1}': '"text"',
        b'{"text": 7}': '"text"',
        b"[1]": "expected a JSON object",
        b'"just a string"': "expected a JSON object",
    }
    for payload, message in malformed.items():
        stub.reply = lambda body, payload=payload: (200, payload)
        with pytest.raises(QAParseError, match=message):
            client.complete("p")


def test_http_client_unreachable_and_timeout(stub):
    with socket.socket() as sock:  # a port that was free a moment ago refuses connections
        sock.bind(("127.0.0.1", 0))
        refused = f"http://127.0.0.1:{sock.getsockname()[1]}/v1/complete"
    with pytest.raises(TransportError, match=f"{refused} unreachable"):
        http_client(refused).complete("p")
    with pytest.raises(TransportError, match="unreachable"):  # refused before connecting
        http_client("http://127.0.0.1:notaport/v1/complete").complete("p")

    stub.reply = lambda body: (None, b"")
    started = time.perf_counter()
    with pytest.raises(TransportError, match=f"{stub.url} unreachable") as exc:
        http_client(stub.url).complete("p")
    assert time.perf_counter() - started < 5
    assert KEY not in str(exc.value)


def per_scenario_replies(stub, failures):
    """stub answers scenario s-<i> with a 503 for its first failures[i] attempts, then well."""
    calls = {}

    def reply(body):
        sid = re.search(r"^scenario_id: (.*)$", body["prompt"], re.M).group(1)
        calls[sid] = calls.get(sid, 0) + 1
        if calls[sid] <= failures[sid]:
            return 503, b""
        return 200, text_body(good_response())

    stub.reply = reply


def test_http_generation_retries_then_rejects(stub):
    scenarios = [scenario(0), scenario(1)]
    per_scenario_replies(stub, {"s-000": 99, "s-001": 1})
    result = generate_dataset(scenarios, http_client(stub.url), max_retries=2)
    assert result.stats == {"scenarios": 2, "accepted": 1, "rejected": 1,
                            "records": 5, "attempts": 5}
    [reject] = result.rejects
    assert (reject.scenario_id, reject.attempts) == ("s-000", 3)
    assert "returned HTTP 503" in reject.error and KEY not in reject.error
    assert {r.scenario_id for r in result.records} == {"s-001"}


def test_http_bodies_that_fail_to_decode_are_retried_then_rejected(stub):
    bodies = iter([b'"just a string"', b"[1]", b"[" * 100_000,
                   text_body("[" * 100_000 + "]" * 100_000), text_body(good_response())])
    stub.reply = lambda body: (200, next(bodies))
    result = generate_dataset([scenario(0), scenario(1), scenario(2)], http_client(stub.url),
                              max_retries=1, max_concurrency=1)
    assert result.stats["rejected"] == 2 and result.stats["attempts"] == 5
    assert [r.scenario_id for r in result.rejects] == ["s-000", "s-001"]
    assert all(r.error.startswith("parse failure: ") for r in result.rejects)


def test_gen_data_http_exits_3_when_nothing_survives(stub, tmp_path, capsys):
    scen = tmp_path / "scenarios.jsonl"
    write_jsonl(scen, [scenario(0), scenario(1)])
    argv = ["gen-data", "--scenarios", str(scen), "--backend", "http",
            "--set", f"endpoint={stub.url}", "--set", "credential_env=QA_TEST_KEY",
            "--set", "timeout_s=0.2", "--set", "max_retries=0"]

    stub.reply = lambda body: (200, b'"just a string"')
    assert main(argv + ["--out", str(tmp_path / "dead")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: transport: ") and err.count("\n") == 1, err
    assert KEY not in err

    per_scenario_replies(stub, {"s-000": 99, "s-001": 0})
    out = tmp_path / "half"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "gen_summary.json").read_text())["stats"]["rejected"] == 1
    for name in ("rejects.jsonl", "gen_summary.json", "corpus.jsonl"):
        assert KEY not in (out / name).read_text()
    assert KEY not in capsys.readouterr().err
    assert all(headers["Authorization"] == f"Bearer {KEY}" for _, headers, _ in stub.seen)


# ---- dependencies ----

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]


def test_importing_the_cli_loads_no_http_code():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys, qlorakit.cli; "
            "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_client_spec_validation():
    for endpoint in ("", "svc/complete", "file:///etc/hosts", "ftp://svc/x"):
        with pytest.raises(ConfigError, match="endpoint"):
            LLMClientSpec(backend="http", endpoint=endpoint)
    with pytest.raises(ConfigError, match="backend"):
        LLMClientSpec(backend="grpc")


@pytest.mark.parametrize("key, value, message", [
    ("max_retries", -1, "max_retries must be >= 0, got -1"),
    ("max_concurrency", 0, "max_concurrency must be >= 1, got 0"),
])
def test_generation_limits_are_refused_before_any_request(tmp_path, capsys, monkeypatch,
                                                          key, value, message):
    monkeypatch.setattr(MockLLMClient, "complete",
                        lambda self, prompt: pytest.fail("a request was made"))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        generate_dataset([scenario(0)], MockLLMClient(), **{key: value})
    scen = tmp_path / "scenarios.jsonl"
    write_jsonl(scen, [scenario(0)])
    assert main(["gen-data", "--scenarios", str(scen), "--out", str(tmp_path / "d"),
                 "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"


# ---- files ----

def test_scenario_jsonl_roundtrip(tmp_path, capsys):
    scenarios = [scenario(i) for i in range(3)]
    path = tmp_path / "scenarios.jsonl"
    write_jsonl(path, scenarios)
    assert read_scenarios_jsonl(path) == scenarios
    # extra is stored sorted: the order it arrives in does not reach the file
    unsorted = [scenario(i, extra={"zone": "school", "agent": "cyclist"}) for i in range(3)]
    assert list(unsorted[0].extra) == ["agent", "zone"]
    shuffled = tmp_path / "shuffled.jsonl"
    write_jsonl(shuffled, unsorted)
    write_jsonl(path, [scenario(i, extra={"agent": "cyclist", "zone": "school"})
                                 for i in range(3)])
    assert shuffled.read_bytes() == path.read_bytes()
    # extra may be left out; every other key is required
    row = json.loads(path.read_text().splitlines()[0])
    for key in row:
        partial = tmp_path / f"no_{key}.jsonl"
        partial.write_text(json.dumps({k: v for k, v in row.items() if k != key}) + "\n")
        if key == "extra":
            assert read_scenarios_jsonl(partial)[0].extra == {}
        else:
            with pytest.raises(InputError, match=f"missing scenario key '{key}'"):
                read_scenarios_jsonl(partial)
    # a file may repeat an id; generate_dataset refuses it before any request
    dup = tmp_path / "dup.jsonl"
    write_jsonl(dup, [scenarios[0], scenarios[0]])
    assert read_scenarios_jsonl(dup) == [scenarios[0], scenarios[0]]
    client = types.SimpleNamespace(complete=lambda prompt: pytest.fail("request sent"))
    with pytest.raises(InputError, match="duplicate scenario_id"):
        generate_dataset(read_scenarios_jsonl(dup), client)
    assert main(["gen-data", "--scenarios", str(dup), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duplicate scenario_id" in err


def test_records_jsonl_roundtrip_and_bad_rows(tmp_path):
    result = generate_dataset([scenario(0)], MockLLMClient(seed=0))
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, result.records)
    assert read_records_jsonl(path) == result.records

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"scenario_id": "s"}\nnot json\n')
    with pytest.raises(InputError, match="bad.jsonl:2"):
        read_records_jsonl(bad)
    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text('{"scenario_id": "s", "surprise": 1}\n')
    with pytest.raises(InputError, match="unknown record key"):
        read_records_jsonl(unknown)
    row = json.loads(path.read_text().splitlines()[0])
    assert list(row) == ["scenario_id", "image_ref", "question", "answer", "category",
                         "pair_index"]
    for key in row:
        missing = tmp_path / f"no_{key}.jsonl"
        missing.write_text(json.dumps({k: v for k, v in row.items() if k != key}) + "\n")
        with pytest.raises(InputError, match=f"no_{key}.jsonl: missing record key '{key}'"):
            read_records_jsonl(missing)


def test_rejects_and_manifest_files(tmp_path):
    rej = tmp_path / "rejects.jsonl"
    write_jsonl(rej, [RejectRecord("s-1", 3, "parse failure: x")])
    assert json.loads(rej.read_text())["attempts"] == 3
    man = tmp_path / "ids.txt"
    write_manifest(man, ["a", "b"])
    assert read_manifest(man) == ["a", "b"]
