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

import contextlib
import json
import os
import re
import zlib
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, QAParseError, TransportError
from .fileio import (atomic_write, check_row, echo, from_columns, json_value,
                     read_dataclass_jsonl, read_lines)

CATEGORIES = ("scene", "agent", "suggested_action", "risk")

_EXTRA_KEY_RE = re.compile(r"[a-z][a-z0-9_]*")
_extra_key = lambda key: (isinstance(key, str) and _EXTRA_KEY_RE.fullmatch(key) is not None
                          and key not in ScenarioAnnotation.__dataclass_fields__)


def _check_line_text(column, what: str) -> None:
    """Each value of column is non-empty text on one line that UTF-8 can hold."""
    try:  # a long column at once; a value that is not text is worded below
        if len(column) > 1 and "".join(column).isprintable() and all(map(str.strip, column)):
            return
    except TypeError:
        pass
    for value in column:
        if not isinstance(value, str) or not value.strip():
            raise InputError(f"{what} must be non-empty text")
        if not value.isprintable():  # every line break and lone surrogate is unprintable
            if value.splitlines()[0] != value:  # a break of any kind splitlines knows
                raise InputError(f"{what} must not contain newlines")
            try:  # a JSON "\ud800" escape decodes to text no UTF-8 file can hold
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InputError(f"{what} is not valid Unicode text: {exc.reason}") from exc


def _check_id(column, what: str) -> None:  # manifests hold stripped lines, so ids must be too
    _check_line_text(column, what)
    for value in column:
        if value != value.strip():
            raise InputError(f"{what} {echo(value)} has surrounding whitespace")


def _check_bool(column, what: str) -> None:
    if set(map(type, column)) != {bool}:
        raise InputError(f"{what} must be a boolean")


def _check_extra(column, what: str) -> None:
    """Each value maps keys [a-z][a-z0-9_]* that name no field to one line of text."""
    if all(isinstance(extra, Mapping) for extra in column):  # the column at once; a fault
        with contextlib.suppress(InputError):  # is worded by the loop below, key by key
            if all(map(_extra_key, {key for extra in column for key in extra})):
                return _check_line_text([v for extra in column for v in extra.values()], what)
    for extra in column:
        if not isinstance(extra, Mapping):
            raise InputError(f"{what} must be a mapping of key to text")
        for key, value in extra.items():
            if not _extra_key(key):
                raise InputError(f"bad {what} key {echo(key)}")
            _check_line_text((value,), f"{what}[{key}]")


def _check_category(column, what: str) -> None:
    for value in column:
        if value not in CATEGORIES:
            raise InputError(f"{what} {echo(value)} not in {CATEGORIES}")


def _check_pair_index(column, what: str) -> None:
    for value in column:
        if type(value) is not int:
            raise InputError(f"{what} must be an integer, got {echo(value)}")
        if not 1 <= value <= 5:
            raise InputError(f"{what} {value} outside [1, 5]")


@dataclass(frozen=True)
class ScenarioAnnotation:
    scenario_id: str
    image_ref: str
    caption: str
    risk_present: bool
    suggested_action: str
    road_type: str
    extra: Mapping[str, str] = field(default_factory=dict)

    _rules = (("scenario_id", _check_id), ("image_ref", _check_line_text),
              ("caption", _check_line_text), ("suggested_action", _check_line_text),
              ("road_type", _check_line_text), ("risk_present", _check_bool),
              ("extra", _check_extra))

    def __post_init__(self):
        check_row(self)
        # sorted, so equal annotations write equal bytes
        object.__setattr__(self, "extra", dict(sorted(self.extra.items())))


@dataclass(frozen=True)
class QARecord:
    scenario_id: str
    image_ref: str
    question: str
    answer: str
    category: str
    pair_index: int

    _rules = (("scenario_id", _check_id), ("image_ref", _check_line_text),
              ("question", _check_line_text), ("answer", _check_line_text),
              ("category", _check_category), ("pair_index", _check_pair_index))
    __post_init__ = check_row


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
            if not self.endpoint.lower().startswith(("http://", "https://")):
                raise ConfigError(f"http backend needs an http(s) endpoint: {self.endpoint!r}")
            if not self.credential_env:
                raise ConfigError("http backend requires a credential env var name")
        if not (np.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ConfigError(f"timeout_s must be finite and > 0, got {self.timeout_s}")


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
    lines.extend(f"{key}: {value}" for key, value in s.extra.items())
    lines.extend(["", _PROMPT_INSTRUCTIONS])
    return "\n".join(lines)


def parse_qa_response(text: str) -> list[tuple[str, str, str]]:
    """Parse a response into exactly five (question, answer, category) triples
    covering every category at least once.

    Raises QAParseError, naming the fault, on any grammar violation.
    """
    if not isinstance(text, str):
        raise QAParseError("response is not text")
    start = text.find("[")
    end = text.rfind("]")
    if start == -1 or end == -1 or end < start:
        raise QAParseError("no JSON array in response")
    try:
        payload = json_value(text[start:end + 1], "response", list)
    except InputError as exc:
        raise QAParseError(str(exc)) from exc
    if len(payload) != 5:
        raise QAParseError(f"expected 5 QA pairs, got {len(payload)}")
    triples = []
    for item in payload:
        if not isinstance(item, dict):
            raise QAParseError("array item is not an object")
        question = item.get("question")
        answer = item.get("answer")
        category = item.get("category")
        try:  # a field no QARecord can hold (empty, multi-line) fails the grammar
            _check_line_text((question,), "question")
            _check_line_text((answer,), "answer")
        except InputError as exc:
            raise QAParseError(str(exc)) from exc
        if category not in CATEGORIES:
            raise QAParseError(f"unknown category {echo(category)}")
        triples.append((question, answer, category))
    seen = {c for _, _, c in triples}
    missing = [c for c in CATEGORIES if c not in seen]
    if missing:
        raise QAParseError(f"no QA pair for category {missing[0]!r}")
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

    Responses are pure functions of (seed, scenario_id, attempt); attempts
    are counted per client, without a lock, as generate_dataset calls it from
    one thread. `malformed_ids` always return unparseable text;
    `flaky_attempts[sid] = k` makes the first k attempts malformed.
    """

    endpoint = "mock"

    def __init__(self, seed: int = 0, malformed_ids: Iterable[str] = (),
                 flaky_attempts: Mapping[str, int] | None = None):
        self.seed = int(seed)
        self.malformed_ids = frozenset(malformed_ids)
        self.flaky_attempts = dict(flaky_attempts or {})
        self._attempts: dict[str, int] = {}

    def _malformed(self, attempt: int) -> str:
        if attempt % 3 == 2:
            return "I cannot produce QA pairs for this scene."
        pairs = [{"question": f"q{i}?", "answer": "a", "category": "scene"} for i in range(4)]
        if attempt % 3 == 1:
            pairs.append({"question": "q4?", "answer": "a", "category": "weather"})
        return json.dumps(pairs)

    def complete(self, prompt: str) -> str:
        fields = _prompt_fields(prompt)
        sid = fields.get("scenario_id", "")
        if not sid:
            raise QAParseError("prompt carries no scenario_id")
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
    """Minimal HTTP completion client on the standard library.

    Wire contract: POST endpoint with JSON {"model", "prompt",
    "max_tokens"} and header "Authorization: Bearer <credential>"; the
    service answers 200 with JSON {"text": "<completion>"}. The
    credential comes only from the environment variable named in the
    client spec, never from config files or argv.
    """

    def __init__(self, spec: LLMClientSpec):
        if spec.backend != "http":
            raise ConfigError(f"HttpLLMClient needs an http spec, got {spec.backend!r}")
        credential = os.environ.get(spec.credential_env)
        # a header holds one line, and an error quoting a bad header would print the key
        if not credential or not (credential.isascii() and credential.isprintable()):
            raise ConfigError(
                f"environment variable {spec.credential_env} is not set to one line "
                f"of printable ASCII (required for the http backend)"
            )
        self.spec = spec
        self.endpoint = spec.endpoint
        self._credential = credential

    def complete(self, prompt: str) -> str:
        # imported here: the mock backend and every other stage never load HTTP code
        import http.client
        import urllib.error
        import urllib.request

        body = {"model": self.spec.model_name, "prompt": prompt, "max_tokens": 512}
        # a 3xx is an answer like any other, so the key never goes to a redirect target
        no_redirects = urllib.request.HTTPRedirectHandler()
        no_redirects.redirect_request = lambda *args: None
        try:
            request = urllib.request.Request(
                self.endpoint, data=json.dumps(body).encode("utf-8"), method="POST",
                headers={"Content-Type": "application/json",
                         "Authorization": f"Bearer {self._credential}"})
            with urllib.request.build_opener(no_redirects).open(
                    request, timeout=self.spec.timeout_s) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # before OSError: it is a URLError
            exc.close()
            status = exc.code
        except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: bad IDNA
            raise TransportError(f"backend {self.endpoint} unreachable: {exc}") from exc
        if status != 200:
            raise TransportError(f"backend {self.endpoint} returned HTTP {status}")
        try:
            text = json_value(raw.decode("utf-8", errors="replace"),
                              "backend response").get("text")
        except InputError as exc:
            raise QAParseError(str(exc)) from exc
        if not isinstance(text, str):
            raise QAParseError('backend response lacks a "text" string')
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
    Only an HttpLLMClient, whose requests wait on the network, runs in a pool
    of max_concurrency threads; any other client runs in the calling thread.
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
            raise InputError(f"duplicate scenario_id {echo(s.scenario_id)}")
        seen.add(s.scenario_id)

    def run_one(s: ScenarioAnnotation):
        prompt = build_prompt(s)
        last_error = "no attempts made"
        for attempt in range(max_retries + 1):
            try:  # a client may reject a body it cannot decode as a parse failure too
                triples = parse_qa_response(client.complete(prompt))
            except TransportError as exc:
                last_error = str(exc)
                continue
            except QAParseError as exc:
                last_error = f"parse failure: {exc}"
                continue
            return ("ok", [{"scenario_id": s.scenario_id, "image_ref": s.image_ref, "question": q,
                            "answer": a, "category": c, "pair_index": i}
                           for i, (q, a, c) in enumerate(triples, 1)], attempt + 1)
        return ("fail", RejectRecord(s.scenario_id, max_retries + 1, last_error),
                max_retries + 1)

    if isinstance(client, HttpLLMClient):
        with ThreadPoolExecutor(max_workers=max_concurrency) as pool:
            outcomes = list(pool.map(run_one, scenarios))
    else:  # threads would only hand a pure-Python client the GIL back and forth
        outcomes = list(map(run_one, scenarios))

    rows = [r for status, payload, _ in outcomes if status == "ok" for r in payload]
    records = from_columns(QARecord, rows) or [QARecord(**row) for row in rows]
    rejects = [payload for status, payload, _ in outcomes if status != "ok"]
    attempts = sum(used for _, _, used in outcomes)
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

def read_scenarios_jsonl(path) -> list[ScenarioAnnotation]:
    return read_dataclass_jsonl(path, ScenarioAnnotation, "scenario")


def read_records_jsonl(path) -> list[QARecord]:
    return _unique_pairs(read_dataclass_jsonl(path, QARecord, "record"), path, "record")


def _unique_pairs(rows, path, what: str) -> list:
    """rows; a repeated (scenario_id, pair_index) raises InputError naming its first repeat."""
    seen: set = set()
    for key in ((r.scenario_id, r.pair_index) for r in rows):
        if key in seen:
            raise InputError(f"{path}: duplicate {what} for {key}")
        seen.add(key)
    return rows


def write_manifest(path, ids: Sequence[str]) -> None:
    with atomic_write(path) as fh:
        fh.writelines(sid + "\n" for sid in ids)


def read_manifest(path) -> list[str]:
    return [line.strip() for line in read_lines(path) if line.strip()]
