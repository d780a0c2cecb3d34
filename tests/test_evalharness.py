"""Evaluation-harness tests: normalization, the containment rule, the
confusion matrix, metrics against a naive counting oracle, sampling, and
report rendering."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.cli import main
from qlorakit.errors import ConfigError, InputError
from qlorakit.evalharness import (METRIC_ROWS, MODES, UNKNOWN,
                                  ConfusionMatrix, LabelSet, MetricReport, Prediction,
                                  build_confusion, compute_metrics,
                                  normalize_answer, normalize_text,
                                  read_label_dir, read_predictions_jsonl,
                                  render_report, render_tables,
                                  sample_eval_set, write_label_files)
from qlorakit.fileio import write_jsonl
from qlorakit.qagen import QARecord

YES_NO = LabelSet("risk", ("yes", "no"))
ABC = LabelSet("agent", ("a", "b", "c"))


def hand_example_matrix():
    """golds [a,a,b,c], preds [a,b,b,b]."""
    return build_confusion(["a", "b", "b", "b"], ["a", "a", "b", "c"], ABC)


def naive_metrics_oracle(golds, preds, labels, mode):
    """Per-class tallies with plain loops; written independently of the
    library implementation."""
    classes = [c for c in labels if c != UNKNOWN]
    if UNKNOWN in golds:
        classes.append(UNKNOWN)
    acc = sum(g == p for g, p in zip(golds, preds)) / len(golds)
    per = {}
    for c in classes:
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        pred_n = sum(1 for p in preds if p == c)
        gold_n = sum(1 for g in golds if g == c)
        prec = tp / pred_n if pred_n else 0.0
        rec = tp / gold_n if gold_n else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[c] = (prec, rec, f1, gold_n)
    if mode == "micro":
        return acc, acc, acc, acc
    if mode == "macro":
        n = len(classes)
        return (acc, sum(v[0] for v in per.values()) / n,
                sum(v[1] for v in per.values()) / n,
                sum(v[2] for v in per.values()) / n)
    total = sum(v[3] for v in per.values())
    return (acc, sum(v[0] * v[3] for v in per.values()) / total,
            sum(v[1] * v[3] for v in per.values()) / total,
            sum(v[2] * v[3] for v in per.values()) / total)


# ---- normalization ----

def test_normalize_text_basics():
    assert normalize_text(" Yes.") == "yes"
    assert normalize_text("SLOW-DOWN!!") == "slow down"
    assert normalize_text("  a\tb   c ") == "a b c"


def test_normalize_answer_pinned_cases():
    assert normalize_answer(" Yes.", YES_NO) == "yes"
    assert normalize_answer("none of these", YES_NO) == UNKNOWN
    agents = LabelSet("agent", ("pedestrian", "vehicle", "cyclist"))
    assert normalize_answer("pedestrian crossing ahead", agents) == "pedestrian"


def test_containment_is_whole_word_and_unique():
    agents = LabelSet("agent", ("pedestrian", "vehicle", "cyclist"))
    # two different labels contained -> ambiguous -> unknown
    assert normalize_answer("a pedestrian and a cyclist", agents) == UNKNOWN
    # substring of a word must not match
    assert normalize_answer("pedestrians everywhere", agents) == UNKNOWN
    # multi-word labels match as a contiguous word run
    roads = LabelSet("scene", ("urban street", "highway"))
    assert normalize_answer("on the urban street.", roads) == "urban street"
    assert normalize_answer("urban, street", roads) == "urban street"
    assert normalize_answer("street in an urban area", roads) == UNKNOWN


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["yes", "no"]), st.text(alphabet="abcdxyz ,.", max_size=20))
def test_exact_label_embedded_in_noise_resolves_or_is_unknown(label, noise):
    out = normalize_answer(f"{noise} {label} {noise}", YES_NO)
    assert out in (label, UNKNOWN)
    assert normalize_answer(label, YES_NO) == label


def test_label_set_validation():
    with pytest.raises(ConfigError, match="at least 2"):
        LabelSet("risk", ("yes",))
    with pytest.raises(ConfigError, match="collide"):
        LabelSet("risk", ("Yes", "yes!"))
    with pytest.raises(ConfigError, match="reserved"):
        LabelSet("risk", ("yes", "Unknown"))
    with pytest.raises(ConfigError, match="category"):
        LabelSet("weather", ("wet", "dry"))


# ---- confusion matrix ----

def test_hand_tally():
    cm = hand_example_matrix()
    idx = {lab: i for i, lab in enumerate(cm.labels)}
    assert cm.counts[idx["a"], idx["a"]] == 1
    assert cm.counts[idx["a"], idx["b"]] == 1
    assert cm.counts[idx["b"], idx["b"]] == 1
    assert cm.counts[idx["c"], idx["b"]] == 1
    assert cm.total == 4


def test_perfect_predictions_are_diagonal():
    cm = build_confusion(["a", "b", "c"], ["a", "b", "c"], ABC)
    assert np.array_equal(cm.counts, np.diag(cm.counts.diagonal()))


def test_all_unknown_predictions_fill_one_column():
    cm = build_confusion([UNKNOWN] * 3, ["a", "b", "c"], ABC)
    nonzero_cols = np.flatnonzero(cm.counts.sum(axis=0))
    assert nonzero_cols.tolist() == [len(cm.labels) - 1]


def test_confusion_validation():
    with pytest.raises(InputError, match="predictions vs"):
        build_confusion(["a"], ["a", "b"], ABC)
    with pytest.raises(InputError, match="gold label"):
        build_confusion(["a"], ["zebra"], ABC)
    with pytest.raises(InputError, match="zero"):
        build_confusion([], [], ABC)


# ---- metrics ----

def test_perfect_metrics_are_one_in_every_mode():
    cm = build_confusion(["a", "b", "c"], ["a", "b", "c"], ABC)
    for mode in MODES:
        rep = compute_metrics(cm, mode)
        assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1, 1, 1, 1)


def test_hand_example_metric_values():
    cm = hand_example_matrix()
    macro = compute_metrics(cm, "macro")
    assert macro.accuracy == pytest.approx(0.5, abs=1e-15)
    assert macro.precision == pytest.approx(4 / 9, abs=1e-12)
    assert macro.recall == pytest.approx(0.5, abs=1e-12)
    assert macro.f1 == pytest.approx(7 / 18, abs=1e-12)
    micro = compute_metrics(cm, "micro")
    assert micro.precision == micro.recall == micro.f1 == micro.accuracy == 0.5
    weighted = compute_metrics(cm, "weighted")
    assert weighted.precision == pytest.approx(7 / 12, abs=1e-12)
    assert weighted.recall == pytest.approx(0.5, abs=1e-12)
    assert weighted.f1 == pytest.approx(11 / 24, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 40), st.booleans(), st.integers(0, 10**6))
def test_metrics_match_naive_oracle(n_labels, n, allow_unknown_gold, seed):
    labels = tuple("abcd"[:n_labels])
    ls = LabelSet("agent", labels)
    rng = np.random.default_rng(seed)
    pool = list(labels) + [UNKNOWN]
    gold_pool = pool if allow_unknown_gold else list(labels)
    golds = [gold_pool[i] for i in rng.integers(0, len(gold_pool), n)]
    preds = [pool[i] for i in rng.integers(0, len(pool), n)]
    cm = build_confusion(preds, golds, ls)
    for mode in MODES:
        rep = compute_metrics(cm, mode)
        acc, prec, rec, f1 = naive_metrics_oracle(golds, preds, cm.labels, mode)
        assert abs(rep.accuracy - acc) <= 1e-12
        assert abs(rep.precision - prec) <= 1e-12
        assert abs(rep.recall - rec) <= 1e-12
        assert abs(rep.f1 - f1) <= 1e-12
        if mode == "micro":
            assert rep.precision == rep.recall == rep.accuracy


def test_unknown_joins_averaging_only_with_gold_support():
    ls = LabelSet("risk", ("yes", "no"))
    no_unknown_gold = compute_metrics(
        build_confusion(["yes", UNKNOWN], ["yes", "no"], ls), "macro")
    with_unknown_gold = compute_metrics(
        build_confusion(["yes", UNKNOWN], ["yes", UNKNOWN], ls), "macro")
    # first: classes {yes, no}; second: classes {yes, no, unknown}
    assert no_unknown_gold.recall == pytest.approx((1 + 0) / 2)
    assert with_unknown_gold.recall == pytest.approx((1 + 0 + 1) / 3)


def test_metric_report_range_validation():
    with pytest.raises(InputError, match=r"^accuracy must be a float in \[0, 1\], got 1.2"):
        MetricReport(category="risk", mode="macro", accuracy=1.2,
                     precision=0.5, recall=0.5, f1=0.5, sample_count=4)
    # a number, not its text
    with pytest.raises(InputError, match="^f1 must be a float in .*, got '0.5'"):
        MetricReport(category="risk", mode="macro", accuracy=0.5,
                     precision=0.5, recall=0.5, f1="0.5", sample_count=4)
    with pytest.raises(InputError, match="^sample_count = True is not a count"):
        MetricReport(category="risk", mode="macro", accuracy=0.5,
                     precision=0.5, recall=0.5, f1=0.5, sample_count=True)
    with pytest.raises(ConfigError, match="mode"):
        compute_metrics(hand_example_matrix(), "median")


# ---- sampling ----

def test_sampling_contract():
    items = list(range(2000))
    sampled = sample_eval_set(items, 500, seed=3)
    assert len(sampled) == len(set(sampled)) == 500
    assert sampled == sorted(sampled)  # input order kept
    assert sampled == sample_eval_set(items, 500, seed=3)
    assert sampled != sample_eval_set(items, 500, seed=4)
    assert sample_eval_set(items, 2000, seed=0) == items
    with pytest.raises(InputError, match="exceeds"):
        sample_eval_set(items, 2001, seed=0)
    with pytest.raises(InputError):
        sample_eval_set(items, 0, seed=0)


# ---- rendering ----

def perfect_report(category):
    return MetricReport(category=category, mode="macro", accuracy=1.0,
                        precision=1.0, recall=1.0, f1=1.0, sample_count=10)


def test_render_all_perfect_shows_100_everywhere():
    results = {"toy": {c: perfect_report(c) for c in
                       ("scene", "agent", "suggested_action", "risk")}}
    text = render_report(results)
    assert text.count("100.00") == 16
    header = text.splitlines()[0]
    assert header.split() == ["Task", "Metric", "toy"]
    for display in ("Scene", "Agent", "Suggestion Action", "Risk"):
        assert display in text


def test_render_hand_example_cell():
    rep = compute_metrics(hand_example_matrix(), "macro")
    text = render_report({"m": {"agent": rep}})
    f1_line = [ln for ln in text.splitlines() if "F1-score" in ln][0]
    assert f1_line.split()[-1] == "38.89"
    _, csv_text = render_tables({"m": {"agent": rep}})
    assert csv_text.splitlines()[4] == "Agent,F1-score,38.89"


def test_csv_and_text_tables_carry_identical_cells():
    results = {"m": {"risk": compute_metrics(
        build_confusion(["yes", "no"], ["yes", "yes"], YES_NO), "macro")}}
    text, csv_text = render_tables(results)
    assert text == render_report(results)
    csv_rows = list(csv.reader(csv_text.splitlines()))
    assert csv_rows[0] == ["task", "metric", "m"]
    assert [row[1:] for row in csv_rows[1:]] == [line.split()[-2:]
                                                 for line in text.splitlines()[2:]]
    assert {row[0] for row in csv_rows[1:]} == {"Risk"}


def test_metric_rows_fixed_order():
    assert METRIC_ROWS == ("Accuracy", "Recall", "Precision", "F1-score")


# ---- files ----

def test_label_files_roundtrip(tmp_path, capsys):
    sets = {"scene": ("urban street", "highway"), "agent": ("cyclist", "vehicle"),
            "suggested_action": ("brake", "keep going"), "risk": ("yes", "no")}
    write_label_files(tmp_path / "labels", sets)
    loaded = read_label_dir(tmp_path / "labels")
    assert loaded["scene"].labels == ("urban street", "highway")
    (tmp_path / "labels" / "risk.txt").unlink()
    with pytest.raises(FileNotFoundError, match="risk.txt"):
        read_label_dir(tmp_path / "labels")
    # through the CLI, the missing label file is one line and exit 2
    write_jsonl(tmp_path / "gold.jsonl", [QARecord("s-1", "img/1.jpg", "Risk?", "yes", "risk", 1)])
    write_jsonl(tmp_path / "preds.jsonl", [Prediction("s-1", 1, "yes")])
    assert main(["eval", "--preds", str(tmp_path / "preds.jsonl"),
                 "--gold", str(tmp_path / "gold.jsonl"), "--labels", str(tmp_path / "labels"),
                 "--out", str(tmp_path / "evals")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: file:") and err.count("\n") == 1 and "risk.txt" in err


def test_predictions_roundtrip_and_duplicate_keys(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, [Prediction("s-1", 1, "yes"), Prediction("s-1", 2, "no")])
    assert path.read_text().splitlines()[0] == (
        '{"scenario_id": "s-1", "pair_index": 1, "raw_answer": "yes"}')
    assert read_predictions_jsonl(path) == {("s-1", 1): "yes", ("s-1", 2): "no"}
    path.write_text('{"scenario_id": "s-1", "pair_index": 1}\n')
    with pytest.raises(InputError, match="preds.jsonl: missing prediction key 'raw_answer'"):
        read_predictions_jsonl(path)
    write_jsonl(path, [Prediction("s-1", 1, "yes"), Prediction("s-1", 1, "no")])
    with pytest.raises(InputError, match="duplicate"):
        read_predictions_jsonl(path)
