"""QA-generation tests: annotation validation, the prompt/response
grammar, the deterministic mock client, retry/reject accounting, splits,
and the JSONL file formats."""

import json
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.errors import (ConfigError, InputError, QAParseError,
                             TransportError)
from qlorakit.qagen import (CATEGORIES, HttpLLMClient, LLMClientSpec,
                            MockLLMClient, QARecord, RejectRecord,
                            ScenarioAnnotation, build_prompt,
                            generate_dataset, parse_qa_response,
                            read_manifest, read_records_jsonl,
                            read_scenarios_jsonl, split_dataset,
                            write_manifest, write_records_jsonl,
                            write_rejects_jsonl, write_scenarios_jsonl)


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


def test_parse_rejects_non_json_and_keeps_raw_text():
    with pytest.raises(QAParseError) as exc:
        parse_qa_response("I cannot help with that.")
    assert exc.value.raw_text == "I cannot help with that."
    with pytest.raises(QAParseError, match="invalid JSON"):
        parse_qa_response("[{'single': 'quotes'}]")


def test_parse_rejects_empty_fields_and_non_objects():
    pairs = json.loads(good_response())
    pairs[0]["answer"] = "   "
    with pytest.raises(QAParseError, match="answer"):
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


# ---- http client ----

class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def _install_fake_requests(monkeypatch, post):
    fake = types.ModuleType("requests")
    fake.RequestException = type("RequestException", (Exception,), {})
    fake.post = post
    monkeypatch.setitem(sys.modules, "requests", fake)
    return fake


def test_http_client_requires_the_credential_env(monkeypatch):
    monkeypatch.delenv("QA_TEST_KEY", raising=False)
    spec = LLMClientSpec(backend="http", endpoint="https://svc/complete",
                         credential_env="QA_TEST_KEY")
    with pytest.raises(ConfigError, match="QA_TEST_KEY"):
        HttpLLMClient(spec)


def test_http_client_success_and_auth_header(monkeypatch):
    monkeypatch.setenv("QA_TEST_KEY", "sekret")
    seen = {}

    def post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, json=json, headers=headers, timeout=timeout)
        return _FakeResponse(payload={"text": good_response()})

    _install_fake_requests(monkeypatch, post)
    spec = LLMClientSpec(backend="http", endpoint="https://svc/complete",
                         credential_env="QA_TEST_KEY", timeout_s=9.0)
    client = HttpLLMClient(spec)
    out = client.complete("prompt text")
    assert out == good_response()
    assert seen["url"] == "https://svc/complete"
    assert seen["headers"]["Authorization"] == "Bearer sekret"
    assert seen["json"]["prompt"] == "prompt text"
    assert seen["timeout"] == 9.0


def test_http_client_error_mapping(monkeypatch):
    monkeypatch.setenv("QA_TEST_KEY", "k")
    spec = LLMClientSpec(backend="http", endpoint="https://svc/x",
                         credential_env="QA_TEST_KEY")

    fake = _install_fake_requests(
        monkeypatch, lambda *a, **k: _FakeResponse(status_code=503))
    with pytest.raises(TransportError, match="https://svc/x"):
        HttpLLMClient(spec).complete("p")

    def boom(*a, **k):
        raise fake.RequestException("connection refused")
    fake.post = boom
    with pytest.raises(TransportError, match="unreachable"):
        HttpLLMClient(spec).complete("p")

    fake.post = lambda *a, **k: _FakeResponse(payload={"no_text": 1})
    with pytest.raises(QAParseError, match="text"):
        HttpLLMClient(spec).complete("p")

    fake.post = lambda *a, **k: _FakeResponse(payload=None, text="<html>")
    with pytest.raises(QAParseError, match="not JSON"):
        HttpLLMClient(spec).complete("p")


def test_client_spec_validation():
    with pytest.raises(ConfigError, match="endpoint"):
        LLMClientSpec(backend="http", endpoint="")
    with pytest.raises(ConfigError, match="backend"):
        LLMClientSpec(backend="grpc")
    with pytest.raises(ConfigError, match="max_retries"):
        LLMClientSpec(max_retries=-1)


# ---- files ----

def test_scenario_jsonl_roundtrip(tmp_path):
    scenarios = [scenario(i) for i in range(3)]
    path = tmp_path / "scenarios.jsonl"
    write_scenarios_jsonl(path, scenarios)
    assert read_scenarios_jsonl(path) == scenarios
    # extra is stored sorted: the order it arrives in does not reach the file
    unsorted = [scenario(i, extra={"zone": "school", "agent": "cyclist"}) for i in range(3)]
    assert list(unsorted[0].extra) == ["agent", "zone"]
    shuffled = tmp_path / "shuffled.jsonl"
    write_scenarios_jsonl(shuffled, unsorted)
    write_scenarios_jsonl(path, [scenario(i, extra={"agent": "cyclist", "zone": "school"})
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
    dup = tmp_path / "dup.jsonl"
    write_scenarios_jsonl(dup, [scenarios[0], scenarios[0]])
    with pytest.raises(InputError, match="duplicate scenario_id"):
        read_scenarios_jsonl(dup)


def test_records_jsonl_roundtrip_and_bad_rows(tmp_path):
    result = generate_dataset([scenario(0)], MockLLMClient(seed=0))
    path = tmp_path / "corpus.jsonl"
    write_records_jsonl(path, result.records)
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
    write_rejects_jsonl(rej, [RejectRecord("s-1", 3, "parse failure: x")])
    assert json.loads(rej.read_text())["attempts"] == 3
    man = tmp_path / "ids.txt"
    write_manifest(man, ["a", "b"])
    assert read_manifest(man) == ["a", "b"]
