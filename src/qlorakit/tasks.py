"""Data substrates: the synthetic token-classification task, the mock
scenario world, word tokenization, and the corpus -> training-example
bridge.

The toy classifier consumes token-id sequences; QA text reaches it
through a stable word hash (crc32 mod vocab_size - builtin hash() is
randomized per process and would break run determinism).
"""

from __future__ import annotations

import functools
import operator
import string
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import RunConfig
from .errors import ConfigError, InputError
from .evalharness import UNKNOWN, LabelSet, normalize_answer, normalize_text
from .fileio import from_columns, read_dataclass_jsonl
from .model import ModelParams, ToyModelSpec, forward_batch
from .qagen import CATEGORIES, QARecord, ScenarioAnnotation

ROAD_TYPES = ("urban street", "highway", "intersection", "rural road")
AGENTS = ("pedestrian", "cyclist", "vehicle", "motorcyclist")
RISK_ACTIONS = ("slow down", "brake", "yield")
CLEAR_ACTION = "keep going"

DEFAULT_LABEL_SETS: dict[str, tuple] = {
    "scene": ROAD_TYPES,
    "agent": AGENTS,
    "suggested_action": RISK_ACTIONS + (CLEAR_ACTION,),
    "risk": ("yes", "no"),
}
_PUNCT_BYTES = bytes.maketrans(string.punctuation.encode(), b" " * len(string.punctuation))


def tokenize(text: str, vocab_size: int, max_len: int) -> list[int]:
    """Stable word-level token ids; empty text maps to the single id 0."""
    if vocab_size < 1 or max_len < 1:
        raise ConfigError(f"bad tokenizer bounds vocab={vocab_size} max_len={max_len}")
    folded = str(text).casefold()
    if folded.isascii() and folded.isprintable():  # normalize_text's words, split as bytes
        words = folded.encode().translate(_PUNCT_BYTES).split()[:max_len]
    else:  # normalized words hold no whitespace, so bytes.split() finds them
        words = normalize_text(text).encode("utf-8").split()[:max_len]
    if not words:
        return [0]
    return [crc % vocab_size for crc in map(zlib.crc32, words)]


def _question_tokenizer(vocab_size: int, max_len: int):
    """tokenize to int64 arrays, memoized for one call: corpora repeat templated questions."""
    return functools.cache(
        lambda text: np.asarray(tokenize(text, vocab_size, max_len), dtype=np.int64))


def synthetic_token_task(n_train: int = 2000, n_test: int = 500,
                         vocab_size: int = RunConfig.vocab_size,
                         n_classes: int = RunConfig.n_classes, seq_len: int = 16,
                         purity: float = 0.85, seed: int = 0):
    """Separable token-pattern task: class c mostly draws tokens from its
    own contiguous vocab slice, with (1 - purity) uniform noise."""
    if n_train < 1 or n_test < 1:
        raise InputError("need at least one train and one test example")
    if seq_len < 1:
        raise InputError(f"seq_len must be >= 1, got {seq_len}")
    group = vocab_size // n_classes
    if group < 1:
        raise ConfigError(
            f"vocab_size {vocab_size} too small for {n_classes} classes"
        )
    if not 0.0 < purity <= 1.0:
        raise ConfigError(f"purity must lie in (0, 1], got {purity}")
    rng = np.random.default_rng(seed)

    def make(n):  # four bulk draws, in the order a seed's examples depend on
        labels = rng.integers(0, n_classes, size=n)
        pure = rng.random((n, seq_len)) < purity
        in_slice = labels[:, None] * group + rng.integers(0, group, size=(n, seq_len))
        tokens = np.where(pure, in_slice, rng.integers(0, vocab_size, size=(n, seq_len)))
        return list(zip(tokens, labels.tolist()))

    return make(n_train), make(n_test)


def synthetic_scenarios(n: int, seed: int = 0) -> list[ScenarioAnnotation]:
    """Mock annotation corpus whose captions carry every gold label in words."""
    if n < 1:
        raise InputError(f"need at least one scenario, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        sid = f"scn-{i:05d}"
        road = ROAD_TYPES[int(rng.integers(0, len(ROAD_TYPES)))]
        agent = AGENTS[int(rng.integers(0, len(AGENTS)))]
        risky = bool(rng.random() < 0.5)
        if risky:
            action = RISK_ACTIONS[int(rng.integers(0, len(RISK_ACTIONS)))]
            caption = (f"A {agent} cuts close to the ego-car on the {road}; "
                       f"the driver should {action}.")
        else:
            action = CLEAR_ACTION
            caption = (f"A {agent} keeps a safe distance on the {road}; "
                       f"the ego-car can {action}.")
        out.append({"scenario_id": sid, "image_ref": f"images/{sid}.jpg", "caption": caption,
                    "risk_present": risky, "suggested_action": action, "road_type": road,
                    "extra": {"agent": agent}})
    # the per-row constructor only words a fault the column checks found
    return from_columns(ScenarioAnnotation, out) or [ScenarioAnnotation(**row) for row in out]


def union_labels(label_sets: Mapping[str, LabelSet]) -> tuple:
    """Ordered union of all category labels; the trained model's class axis."""
    seen = []
    for category in CATEGORIES:
        ls = label_sets.get(category)
        if ls is None:
            continue
        for lab in ls.labels:
            if lab not in seen:
                seen.append(lab)
    if len(seen) < 2:
        raise InputError("label union must contain at least 2 classes")
    return tuple(seen)


def corpus_to_examples(records: Sequence[QARecord],
                       label_sets: Mapping[str, LabelSet],
                       union: Sequence[str], vocab_size: int,
                       max_seq_len: int):
    """(tokens, class-id) pairs from QA records; answers that normalize to
    unknown cannot be trained on and are counted as skipped."""
    index = {lab: i for i, lab in enumerate(union)}
    tokens = _question_tokenizer(vocab_size, max_seq_len)
    gold_label = functools.cache(normalize_answer)  # a corpus repeats a few answers
    examples = []
    skipped = 0
    for r in records:
        ls = label_sets.get(r.category)
        if ls is None:
            raise InputError(f"no label set for category {r.category!r}")
        gold = gold_label(r.answer, ls)
        if gold == UNKNOWN:
            skipped += 1
            continue
        if gold not in index:
            raise InputError(f"gold label {gold!r} missing from the label union")
        examples.append((tokens(r.question), index[gold]))
    return examples, skipped


@dataclass(frozen=True)
class TokenExample:
    """One line of a token task's train.jsonl / test.jsonl."""
    tokens: list[int]
    label: int


def read_token_examples(path) -> list[tuple]:
    return [(np.array(row.tokens, dtype=np.int64), row.label)
            for row in read_dataclass_jsonl(path, TokenExample, "example")]


def predict_answers(params: ModelParams, spec: ToyModelSpec, adapters,
                    records: Sequence[QARecord],
                    union: Sequence[str]) -> list[tuple]:
    """(scenario_id, pair_index, predicted label) for each record, sorted."""
    if len(union) != spec.n_classes:
        raise InputError(
            f"label union size {len(union)} does not match n_classes {spec.n_classes}"
        )
    ordered = sorted(records, key=operator.attrgetter("scenario_id", "pair_index"))
    # one forward row per distinct question: corpora repeat templated questions
    questions = dict.fromkeys(r.question for r in ordered)
    tokens = _question_tokenizer(spec.vocab_size, spec.max_seq_len)
    logits = forward_batch(params, spec, list(map(tokens, questions)), adapters)
    label = dict(zip(questions, map(union.__getitem__, np.argmax(logits, axis=1).tolist())))
    return [(r.scenario_id, r.pair_index, label[r.question]) for r in ordered]
