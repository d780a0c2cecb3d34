"""Scenario annotations -> QA corpus via a pluggable completion client.

Each scenario yields exactly five QA pairs tagged with the four task
categories (every category at least once, one repeated). Responses must
be a JSON array of exactly five {"question", "answer", "category"}
objects; anything else is a parse failure, retried up to max_retries and
then recorded in a rejects list. Accepted output is sorted by
(scenario_id, pair_index), so corpus bytes are independent of request
scheduling.

The mock backend derives every response deterministically from
(seed, scenario_id, attempt), which makes whole-pipeline runs
byte-reproducible without a network.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError, QAParseError, TransportError
from .fileio import atomic_write, json_int, read_jsonl, read_lines

CATEGORIES = ("scene", "agent", "suggested_action", "risk")

_SCENARIO_KEYS = ("scenario_id", "image_ref", "caption", "risk_present",
                  "suggested_action", "road_type", "extra")
_RECORD_KEYS = ("scenario_id", "image_ref", "question", "answer", "category",
                "pair_index")
_EXTRA_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _check_line_text(value: str, what: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise InputError(f"{what} must be non-empty text")
    if "\n" in value or "\r" in value:
        raise InputError(f"{what} must not contain newlines")
    try:  # a JSON "\ud800" escape decodes to text no UTF-8 file can hold
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"{what} is not valid Unicode text: {exc.reason}") from exc
    return value


@dataclass(frozen=True)
class ScenarioAnnotation:
    scenario_id: str
    image_ref: str
    caption: str
    risk_present: bool
    suggested_action: str
    road_type: str
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_line_text(self.scenario_id, "scenario_id")
        _check_line_text(self.image_ref, "image_ref")
        _check_line_text(self.caption, "caption")
        _check_line_text(self.suggested_action, "suggested_action")
        _check_line_text(self.road_type, "road_type")
        if not isinstance(self.risk_present, bool):
            raise InputError("risk_present must be a boolean")
        if not isinstance(self.extra, Mapping):
            raise InputError("extra must be a mapping of key to text")
        extra = dict(self.extra)
        for key, value in extra.items():
            if not _EXTRA_KEY_RE.match(key) or key in _SCENARIO_KEYS:
                raise InputError(f"bad extra key {key!r}")
            _check_line_text(value, f"extra[{key}]")
        object.__setattr__(self, "extra", extra)


@dataclass(frozen=True)
class QARecord:
    scenario_id: str
    image_ref: str
    question: str
    answer: str
    category: str
    pair_index: int

    def __post_init__(self):
        _check_line_text(self.scenario_id, "scenario_id")
        _check_line_text(self.image_ref, "image_ref")
        _check_line_text(self.question, "question")
        _check_line_text(self.answer, "answer")
        if self.category not in CATEGORIES:
            raise InputError(
                f"category {self.category!r} not in {CATEGORIES}"
            )
        if not 1 <= self.pair_index <= 5:
            raise InputError(f"pair_index {self.pair_index} outside [1, 5]")


@dataclass(frozen=True)
class LLMClientSpec:
    backend: str = "mock"
    endpoint: str = ""
    model_name: str = "mock-qa"
    credential_env: str = "LLM_API_KEY"
    max_retries: int = 2
    timeout_s: float = 30.0
    max_concurrency: int = 4

    def __post_init__(self):
        if self.backend not in ("mock", "http"):
            raise ConfigError(f"backend must be mock or http, got {self.backend!r}")
        if self.backend == "http":
            if not self.endpoint:
                raise ConfigError("http backend requires an endpoint")
            if not self.credential_env:
                raise ConfigError("http backend requires a credential env var name")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")


# ---- prompt / response grammar ----

_PROMPT_HEADER = "You are an assistant that writes question-answer pairs about driving scenes."
_PROMPT_INSTRUCTIONS = (
    "Write exactly five question-answer pairs about this scene. Tag every pair "
    "with one of these categories: scene, agent, suggested_action, risk. Each "
    "category must appear at least once; one category may repeat. Respond with "
    "only a JSON array of exactly five objects, each having string keys "
    '"question", "answer", and "category".'
)


def build_prompt(s: ScenarioAnnotation) -> str:
    """Deterministic prompt embedding every annotation field verbatim."""
    lines = [
        _PROMPT_HEADER,
        "",
        "Scenario annotation:",
        f"scenario_id: {s.scenario_id}",
        f"image_ref: {s.image_ref}",
        f"caption: {s.caption}",
        f"risk_present: {'true' if s.risk_present else 'false'}",
        f"suggested_action: {s.suggested_action}",
        f"road_type: {s.road_type}",
    ]
    for key in sorted(s.extra):
        lines.append(f"{key}: {s.extra[key]}")
    lines.extend(["", _PROMPT_INSTRUCTIONS])
    return "\n".join(lines)


def parse_qa_response(text: str) -> list[tuple[str, str, str]]:
    """Parse a response into exactly five (question, answer, category) triples
    covering every category at least once.

    Raises QAParseError (carrying the raw text) on any grammar violation.
    """
    if not isinstance(text, str):
        raise QAParseError("response is not text", raw_text=repr(text))
    start = text.find("[")
    end = text.rfind("]")
    if start == -1 or end == -1 or end < start:
        raise QAParseError("no JSON array in response", raw_text=text)
    try:
        payload = json.loads(text[start:end + 1])
    except json.JSONDecodeError as exc:
        raise QAParseError(f"invalid JSON: {exc}", raw_text=text) from exc
    if not isinstance(payload, list):
        raise QAParseError("response is not a JSON array", raw_text=text)
    if len(payload) != 5:
        raise QAParseError(f"expected 5 QA pairs, got {len(payload)}", raw_text=text)
    triples = []
    for item in payload:
        if not isinstance(item, dict):
            raise QAParseError("array item is not an object", raw_text=text)
        question = item.get("question")
        answer = item.get("answer")
        category = item.get("category")
        if not isinstance(question, str) or not question.strip():
            raise QAParseError("missing or empty question", raw_text=text)
        if not isinstance(answer, str) or not answer.strip():
            raise QAParseError("missing or empty answer", raw_text=text)
        if category not in CATEGORIES:
            raise QAParseError(f"unknown category {category!r}", raw_text=text)
        triples.append((question, answer, category))
    seen = {c for _, _, c in triples}
    missing = [c for c in CATEGORIES if c not in seen]
    if missing:
        raise QAParseError(f"no QA pair for category {missing[0]!r}", raw_text=text)
    return triples


# ---- completion clients ----

_PROMPT_FIELD_RE = re.compile(r"^([a-z][a-z0-9_]*): (.*)$")

_QUESTION_TEMPLATES = {
    "scene": ("What type of road is the ego-car traveling on?",
              "Which road environment does the scene show?"),
    "agent": ("Which road user should the ego-car watch most closely?",
              "What kind of road user poses the main concern here?"),
    "suggested_action": ("What should the ego-car do next?",
                         "Which action is advised for the driver?"),
    "risk": ("Is there a safety-critical risk in this scene?",
             "Does the scene contain an immediate hazard?"),
}


def _prompt_fields(prompt: str) -> dict[str, str]:
    fields = {}
    for line in prompt.splitlines():
        m = _PROMPT_FIELD_RE.match(line)
        if m:
            fields.setdefault(m.group(1), m.group(2))
    return fields


class MockLLMClient:
    """Offline stand-in for the QA-writing service.

    Responses are pure functions of (seed, scenario_id, attempt), so runs
    are reproducible regardless of thread scheduling. `malformed_ids`
    always return unparseable text; `flaky_attempts[sid] = k` makes the
    first k attempts for that scenario malformed, then recovers.
    """

    backend = "mock"
    endpoint = "mock"

    def __init__(self, seed: int = 0, malformed_ids: Iterable[str] = (),
                 flaky_attempts: Mapping[str, int] | None = None):
        self.seed = int(seed)
        self.malformed_ids = frozenset(malformed_ids)
        self.flaky_attempts = dict(flaky_attempts or {})
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _malformed(self, attempt: int) -> str:
        kind = attempt % 3
        if kind == 0:
            four = [{"question": f"q{i}?", "answer": "a", "category": "scene"}
                    for i in range(4)]
            return json.dumps(four)
        if kind == 1:
            five = [{"question": f"q{i}?", "answer": "a", "category": "scene"}
                    for i in range(4)]
            five.append({"question": "q4?", "answer": "a", "category": "weather"})
            return json.dumps(five)
        return "I cannot produce QA pairs for this scene."

    def complete(self, prompt: str) -> str:
        fields = _prompt_fields(prompt)
        sid = fields.get("scenario_id", "")
        if not sid:
            raise QAParseError("prompt carries no scenario_id", raw_text=prompt)
        with self._lock:
            attempt = self._attempts.get(sid, 0)
            self._attempts[sid] = attempt + 1
        if sid in self.malformed_ids or attempt < self.flaky_attempts.get(sid, 0):
            return self._malformed(attempt)
        rng = np.random.default_rng([self.seed, zlib.crc32(sid.encode()), attempt])
        caption = fields.get("caption", "a driving scene")
        answers = {
            "scene": fields.get("road_type", "urban street"),
            "agent": fields.get("agent", "vehicle"),
            "suggested_action": fields.get("suggested_action", "slow down"),
            "risk": "yes" if fields.get("risk_present") == "true" else "no",
        }
        order = list(CATEGORIES)
        # fifth pair repeats one category; suggested_action stays unique so
        # action answers do not dominate the corpus
        order.append(("scene", "agent", "risk")[int(rng.integers(0, 3))])
        pairs = []
        for category in order:
            variant = int(rng.integers(0, 2))
            template = _QUESTION_TEMPLATES[category][variant]
            pairs.append({
                "question": f"Scene: {caption} {template}",
                "answer": answers[category],
                "category": category,
            })
        return json.dumps(pairs, ensure_ascii=False)


class HttpLLMClient:
    """Minimal HTTP completion client.

    Wire contract: POST endpoint with JSON {"model", "prompt",
    "max_tokens"} and header "Authorization: Bearer <credential>"; the
    service answers 200 with JSON {"text": "<completion>"}. The
    credential comes only from the environment variable named in the
    client spec, never from config files or argv.
    """

    backend = "http"

    def __init__(self, spec: LLMClientSpec):
        if spec.backend != "http":
            raise ConfigError(f"HttpLLMClient needs an http spec, got {spec.backend!r}")
        credential = os.environ.get(spec.credential_env)
        if not credential:
            raise ConfigError(
                f"environment variable {spec.credential_env} is not set "
                f"(required for the http backend)"
            )
        self.spec = spec
        self.endpoint = spec.endpoint
        self._credential = credential

    def complete(self, prompt: str) -> str:
        import requests

        body = {"model": self.spec.model_name, "prompt": prompt, "max_tokens": 512}
        headers = {"Authorization": f"Bearer {self._credential}"}
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers,
                                 timeout=self.spec.timeout_s)
        except requests.RequestException as exc:
            raise TransportError(f"backend {self.endpoint} unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise TransportError(
                f"backend {self.endpoint} returned HTTP {resp.status_code}"
            )
        try:
            data = resp.json()
        except ValueError as exc:
            raise QAParseError("backend response is not JSON",
                               raw_text=resp.text) from exc
        text = data.get("text")
        if not isinstance(text, str):
            raise QAParseError('backend response lacks a "text" field',
                               raw_text=resp.text)
        return text


def make_client(spec: LLMClientSpec, seed: int = 0):
    if spec.backend == "mock":
        return MockLLMClient(seed=seed)
    return HttpLLMClient(spec)


# ---- generation ----

@dataclass(frozen=True)
class RejectRecord:
    scenario_id: str
    attempts: int
    error: str


@dataclass
class GenerationResult:
    records: list
    rejects: list
    stats: dict


def generate_dataset(scenarios: Sequence[ScenarioAnnotation], client,
                     max_retries: int = LLMClientSpec.max_retries,
                     max_concurrency: int = LLMClientSpec.max_concurrency,
                     ) -> GenerationResult:
    """Produce five QARecords per accepted scenario.

    A scenario whose responses keep failing to parse after max_retries
    re-prompts is rejected (recorded, excluded from the corpus). If no
    scenario survives at all, the run is treated as a backend failure.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise InputError("at least one scenario is required")
    if max_retries < 0:
        raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
    if max_concurrency < 1:
        raise ConfigError(f"max_concurrency must be >= 1, got {max_concurrency}")
    seen = set()
    for s in scenarios:
        if s.scenario_id in seen:
            raise InputError(f"duplicate scenario_id {s.scenario_id!r}")
        seen.add(s.scenario_id)

    def run_one(s: ScenarioAnnotation):
        prompt = build_prompt(s)
        last_error = "no attempts made"
        for attempt in range(max_retries + 1):
            try:
                text = client.complete(prompt)
            except TransportError as exc:
                last_error = str(exc)
                continue
            try:
                triples = parse_qa_response(text)
            except QAParseError as exc:
                last_error = f"parse failure: {exc}"
                continue
            records = [
                QARecord(scenario_id=s.scenario_id, image_ref=s.image_ref,
                         question=q, answer=a, category=c, pair_index=i + 1)
                for i, (q, a, c) in enumerate(triples)
            ]
            return ("ok", records, attempt + 1)
        return ("fail", RejectRecord(s.scenario_id, max_retries + 1, last_error),
                max_retries + 1)

    with ThreadPoolExecutor(max_workers=max_concurrency) as pool:
        outcomes = list(pool.map(run_one, scenarios))

    records: list[QARecord] = []
    rejects: list[RejectRecord] = []
    attempts = 0
    for status, payload, used in outcomes:
        attempts += used
        if status == "ok":
            records.extend(payload)
        else:
            rejects.append(payload)
    if not records:
        endpoint = getattr(client, "endpoint", "unknown")
        raise TransportError(
            f"backend {endpoint} produced no usable responses for any of the "
            f"{len(scenarios)} scenarios (last error: {rejects[-1].error})"
        )
    records.sort(key=lambda r: (r.scenario_id, r.pair_index))
    rejects.sort(key=lambda r: r.scenario_id)
    stats = {
        "scenarios": len(scenarios),
        "accepted": len(scenarios) - len(rejects),
        "rejected": len(rejects),
        "records": len(records),
        "attempts": attempts,
    }
    return GenerationResult(records=records, rejects=rejects, stats=stats)


def split_dataset(records: Sequence[QARecord], test_fraction: float,
                  seed: int) -> tuple[list[str], list[str]]:
    """Scenario-level train/test manifests (no scenario straddles the split)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    ids = sorted({r.scenario_id for r in records})
    if len(ids) < 2:
        raise InputError(f"need at least 2 scenarios to split, got {len(ids)}")
    n_test = int(np.floor(len(ids) * test_fraction + 0.5))
    n_test = min(max(n_test, 1), len(ids) - 1)
    perm = np.random.default_rng(seed).permutation(len(ids))
    test = sorted(ids[i] for i in perm[:n_test])
    train = sorted(ids[i] for i in perm[n_test:])
    return train, test


# ---- file formats ----

def _write_jsonl(path, rows: Iterable[dict]) -> None:
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_scenarios_jsonl(path, scenarios: Sequence[ScenarioAnnotation]) -> None:
    _write_jsonl(path, (
        {
            "scenario_id": s.scenario_id,
            "image_ref": s.image_ref,
            "caption": s.caption,
            "risk_present": s.risk_present,
            "suggested_action": s.suggested_action,
            "road_type": s.road_type,
            "extra": dict(sorted(s.extra.items())),
        }
        for s in scenarios
    ))


def read_scenarios_jsonl(path) -> list[ScenarioAnnotation]:
    out = []
    seen = set()
    for row in read_jsonl(path):
        unknown = set(row) - set(_SCENARIO_KEYS)
        if unknown:
            raise InputError(f"{path}: unknown scenario key {sorted(unknown)[0]!r}")
        try:
            s = ScenarioAnnotation(
                scenario_id=row.get("scenario_id", ""),
                image_ref=row.get("image_ref", ""),
                caption=row.get("caption", ""),
                risk_present=row.get("risk_present", False),
                suggested_action=row.get("suggested_action", ""),
                road_type=row.get("road_type", ""),
                extra=row.get("extra", {}),
            )
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if s.scenario_id in seen:
            raise InputError(f"{path}: duplicate scenario_id {s.scenario_id!r}")
        seen.add(s.scenario_id)
        out.append(s)
    return out


def write_records_jsonl(path, records: Sequence[QARecord]) -> None:
    _write_jsonl(path, (
        {
            "scenario_id": r.scenario_id,
            "image_ref": r.image_ref,
            "question": r.question,
            "answer": r.answer,
            "category": r.category,
            "pair_index": r.pair_index,
        }
        for r in records
    ))


def read_records_jsonl(path) -> list[QARecord]:
    out = []
    for row in read_jsonl(path):
        unknown = set(row) - set(_RECORD_KEYS)
        if unknown:
            raise InputError(f"{path}: unknown record key {sorted(unknown)[0]!r}")
        try:
            out.append(QARecord(
                scenario_id=row.get("scenario_id", ""),
                image_ref=row.get("image_ref", ""),
                question=row.get("question", ""),
                answer=row.get("answer", ""),
                category=row.get("category", ""),
                pair_index=json_int(row.get("pair_index", 0), "pair_index"),
            ))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return out


def write_rejects_jsonl(path, rejects: Sequence[RejectRecord]) -> None:
    _write_jsonl(path, (
        {"scenario_id": r.scenario_id, "attempts": r.attempts, "error": r.error}
        for r in rejects
    ))


def write_manifest(path, ids: Sequence[str]) -> None:
    with atomic_write(path) as fh:
        for sid in ids:
            fh.write(sid + "\n")


def read_manifest(path) -> list[str]:
    return [line.strip() for line in read_lines(path) if line.strip()]
