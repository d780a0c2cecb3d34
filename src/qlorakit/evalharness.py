"""Answer normalization, per-task confusion matrices, multiclass metrics
(micro / macro / weighted), subset sampling, and the one report renderer:
render_tables formats MetricReports straight into the text and CSV tables,
for eval's own tables and for report's merge of eval_summary files alike.

Normalization maps a raw answer to a canonical label: casefold, strip
punctuation, collapse whitespace, then exact match, then whole-word
containment (the label's token sequence appearing contiguously in the
answer's tokens). Zero or multiple containment hits map to "unknown".
Containment is word-level on purpose: "none of these" must not match
"no".

"unknown" is always a predicted class in the confusion matrix but joins
macro/weighted averaging only when it actually appears in gold; canonical
labels always participate (0/0 ratios count as 0).

F1 aggregation: micro F1 is the harmonic mean of the pooled precision
and recall (both equal accuracy for single-label multiclass input);
macro and weighted F1 aggregate the per-class F1 values with the same
weights as precision and recall.
"""

from __future__ import annotations

import os
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .fileio import atomic_write, echo, read_dataclass_jsonl, read_lines
from .qagen import CATEGORIES, _unique_pairs

UNKNOWN = "unknown"
MODES = ("micro", "macro", "weighted")

TASK_DISPLAY = {
    "scene": "Scene",
    "agent": "Agent",
    "suggested_action": "Suggestion Action",
    "risk": "Risk",
}
METRIC_ROWS = ("Accuracy", "Recall", "Precision", "F1-score")

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def normalize_text(raw: str) -> str:
    return " ".join(str(raw).casefold().translate(_PUNCT_TABLE).split())


@dataclass(frozen=True)
class LabelSet:
    """Canonical class strings for one task category (stored normalized)."""

    category: str
    labels: tuple

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ConfigError(f"category {echo(self.category)} not in {CATEGORIES}")
        normalized = tuple(normalize_text(lab) for lab in self.labels)
        if any(not lab for lab in normalized):
            raise ConfigError(f"{self.category}: empty label after normalization")
        if len(normalized) < 2:
            raise ConfigError(f"{self.category}: need at least 2 labels")
        if len(set(normalized)) != len(normalized):
            raise ConfigError(f"{self.category}: labels collide after normalization")
        if UNKNOWN in normalized:
            raise ConfigError(f"{self.category}: {UNKNOWN!r} is reserved")
        object.__setattr__(self, "labels", normalized)


def _contains_word_seq(tokens: list, needle: list) -> bool:
    k = len(needle)
    return any(tokens[i:i + k] == needle for i in range(len(tokens) - k + 1))


def normalize_answer(raw: str, ls: LabelSet) -> str:
    text = normalize_text(raw)
    if text in ls.labels:
        return text
    tokens = text.split()
    hits = [lab for lab in ls.labels if _contains_word_seq(tokens, lab.split())]
    if len(hits) == 1:
        return hits[0]
    return UNKNOWN


@dataclass
class ConfusionMatrix:
    category: str
    labels: tuple
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def build_confusion(preds: Sequence[str], golds: Sequence[str],
                    ls: LabelSet) -> ConfusionMatrix:
    if len(preds) != len(golds):
        raise InputError(
            f"{len(preds)} predictions vs {len(golds)} gold labels"
        )
    if not preds:
        raise InputError("cannot build a confusion matrix from zero pairs")
    labels = ls.labels + (UNKNOWN,)
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        if gold not in index:
            raise InputError(f"gold label {gold!r} not in {ls.category} label set")
        if pred not in index:
            raise InputError(f"predicted label {pred!r} not in {ls.category} label set")
        counts[index[gold], index[pred]] += 1
    return ConfusionMatrix(category=ls.category, labels=labels, counts=counts)


@dataclass(frozen=True)
class MetricReport:
    category: str
    mode: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    sample_count: int

    def __post_init__(self):
        for name in ("accuracy", "precision", "recall", "f1"):
            value = getattr(self, name)
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be a float in [0, 1], got {echo(value)}")
        if type(self.sample_count) is not int or self.sample_count < 1:
            raise InputError(f"sample_count = {echo(self.sample_count)} is not a count")


def compute_metrics(cm: ConfusionMatrix, mode: str = "macro") -> MetricReport:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    counts = cm.counts
    total = counts.sum()
    if total == 0:
        raise InputError("empty confusion matrix")
    accuracy = float(np.trace(counts) / total)

    tp = np.diag(counts).astype(np.float64)
    gold_support = counts.sum(axis=1).astype(np.float64)
    pred_support = counts.sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(pred_support > 0, tp / np.where(pred_support > 0, pred_support, 1), 0.0)
        rec = np.where(gold_support > 0, tp / np.where(gold_support > 0, gold_support, 1), 0.0)
    denom = prec + rec
    f1 = np.where(denom > 0, 2 * prec * rec / np.where(denom > 0, denom, 1), 0.0)

    unknown_idx = len(cm.labels) - 1
    considered = list(range(unknown_idx))
    if gold_support[unknown_idx] > 0:
        considered.append(unknown_idx)

    if mode == "micro":  # pooled precision and recall both equal accuracy
        precision = recall = f1_val = accuracy
    else:  # macro: the mean over the considered classes; weighted: by gold support
        weights = gold_support[considered] if mode == "weighted" else None
        precision, recall, f1_val = (float(np.average(v[considered], weights=weights))
                                     for v in (prec, rec, f1))
    return MetricReport(category=cm.category, mode=mode, accuracy=accuracy,
                        precision=precision, recall=recall, f1=f1_val,
                        sample_count=int(total))


def sample_eval_set(items: Sequence, n: int, seed: int) -> list:
    """Seed-deterministic uniform subset without replacement, input order kept."""
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    if n > len(items):
        raise InputError(f"sample size {n} exceeds available {len(items)}")
    idx = np.random.default_rng(seed).choice(len(items), size=n, replace=False)
    return [items[i] for i in np.sort(idx)]


# ---- rendering ----

_METRIC_ATTRS = dict(zip(METRIC_ROWS, ("accuracy", "recall", "precision", "f1")))


def render_tables(results: Mapping[str, Mapping[str, MetricReport]]) -> tuple[str, str]:
    """(text table, CSV) of model -> category -> report, model columns in
    mapping order, each cell a percentage to 2 decimals; a task missing for
    a model shows "-"."""
    models = list(results)
    if not models:
        raise InputError("no models to report")
    tasks = [c for c in CATEGORIES if any(c in results[m] for m in models)]
    if not tasks:
        raise InputError("no task categories to report")
    rows = [(TASK_DISPLAY[cat], metric,
             [f"{100.0 * getattr(results[m][cat], attr):.2f}" if cat in results[m] else "-"
              for m in models])
            for cat in tasks for metric, attr in _METRIC_ATTRS.items()]
    task_w = max(len("Task"), max(len(r[0]) for r in rows))
    metric_w = max(len("Metric"), max(len(r[1]) for r in rows))
    model_w = [max(len(m), 6) for m in models]
    header = f"{'Task':<{task_w}}  {'Metric':<{metric_w}}"
    for m, w in zip(models, model_w):
        header += f"  {m:>{w}}"
    text_lines = [header, "-" * len(header)]
    csv_lines = [",".join(["task", "metric"] + models)]
    last_task = None
    for task, metric, row_cells in rows:
        shown = task if task != last_task else ""
        last_task = task
        line = f"{shown:<{task_w}}  {metric:<{metric_w}}"
        for cell, w in zip(row_cells, model_w):
            line += f"  {cell:>{w}}"
        text_lines.append(line)
        csv_lines.append(",".join([task, metric] + row_cells))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def render_report(results: Mapping[str, Mapping[str, MetricReport]]) -> str:
    return render_tables(results)[0]


# ---- file formats ----

def write_label_files(labels_dir, label_sets: Mapping[str, Sequence[str]]) -> None:
    for category, labels in label_sets.items():
        ls = LabelSet(category=category, labels=tuple(labels))
        with atomic_write(os.path.join(labels_dir, f"{category}.txt")) as fh:
            fh.writelines(lab + "\n" for lab in ls.labels)


def read_label_set(path, category: str) -> LabelSet:
    labels = [line.strip() for line in read_lines(path) if line.strip()]
    try:
        return LabelSet(category=category, labels=tuple(labels))
    except ConfigError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_label_dir(labels_dir) -> dict[str, LabelSet]:
    return {category: read_label_set(os.path.join(labels_dir, f"{category}.txt"), category)
            for category in CATEGORIES}


@dataclass(frozen=True)
class Prediction:
    """One row of a predictions file."""

    scenario_id: str
    pair_index: int
    raw_answer: str


def read_predictions_jsonl(path) -> dict[tuple, str]:
    preds = _unique_pairs(read_dataclass_jsonl(path, Prediction, "prediction"), path, "prediction")
    return {(p.scenario_id, p.pair_index): p.raw_answer for p in preds}
