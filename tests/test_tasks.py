"""Data-substrate tests: the stable tokenizer, the synthetic token task,
the mock scenario world, label unions, and the corpus -> example bridge."""

import zlib

import numpy as np
import pytest

from qlorakit.errors import ConfigError, InputError
from qlorakit.evalharness import LabelSet, normalize_text
from qlorakit.fileio import write_jsonl
from qlorakit.model import ToyModelSpec, init_adapters, init_model_params
from qlorakit.qagen import MockLLMClient, build_prompt, generate_dataset
from qlorakit.tasks import (AGENTS, CLEAR_ACTION, DEFAULT_LABEL_SETS,
                            RISK_ACTIONS, ROAD_TYPES, TokenExample, corpus_to_examples,
                            predict_answers, read_token_examples,
                            synthetic_scenarios, synthetic_token_task,
                            tokenize, union_labels)


def default_label_sets():
    return {c: LabelSet(c, tuple(v)) for c, v in DEFAULT_LABEL_SETS.items()}


def test_tokenize_is_a_stable_word_hash():
    ids = tokenize("Slow down, now!", vocab_size=64, max_len=8)
    words = normalize_text("Slow down, now!").split()
    assert ids == [zlib.crc32(w.encode()) % 64 for w in words]
    assert ids == tokenize("slow-down now", 64, 8)  # same after normalization
    assert all(0 <= t < 64 for t in ids)


def test_tokenize_edges():
    assert tokenize("", 64, 8) == [0]
    assert tokenize("!!!", 64, 8) == [0]
    assert len(tokenize("a b c d e", 64, 3)) == 3
    with pytest.raises(ConfigError):
        tokenize("x", 0, 8)


def reference_tokenize(text, vocab_size, max_len):
    """tokenize as normalize_text words it: the path every non-ASCII text takes."""
    words = normalize_text(text).encode("utf-8").split()[:max_len]
    return [zlib.crc32(w) % vocab_size for w in words] or [0]


@pytest.mark.parametrize("text", [
    "", "   ", "!!!", "?.,;", "Is it safe?", "Slow down, now!", "a\tb\nc\rd\x0be\x0cf",
    "a\x1cb\x1dc\x1ed\x1fe", "x\x7fy", "STRASSE Straße", "\u212a\u212a k", "caf\u00e9 au lait",
    "a\u2028b\x85c", "a\u00a0b", 12345, 3.5, None, ("tuple", "input")],
    ids=repr)
def test_tokenize_matches_the_normalize_text_path(text):
    for vocab_size, max_len in ((64, 32), (7, 2), (1, 1)):
        assert tokenize(text, vocab_size, max_len) == reference_tokenize(text, vocab_size, max_len)


def test_tokenize_refuses_a_lone_surrogate_as_the_normalize_text_path_does():
    for text in ("q\ud800?", "\udc80"):
        with pytest.raises(UnicodeEncodeError) as ref:
            reference_tokenize(text, 64, 8)
        with pytest.raises(UnicodeEncodeError) as got:
            tokenize(text, 64, 8)
        assert str(got.value) == str(ref.value)


def test_synthetic_token_task_contract():
    train, test = synthetic_token_task(n_train=200, n_test=50, seed=1)
    assert len(train) == 200 and len(test) == 50
    toks, label = train[0]
    assert toks.shape == (16,) and toks.dtype == np.int64
    assert 0 <= label < 4
    tr2, te2 = synthetic_token_task(n_train=200, n_test=50, seed=1)
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
               for a, b in zip(train + test, tr2 + te2))


def test_synthetic_token_task_is_class_separable():
    train, _ = synthetic_token_task(n_train=400, n_test=1, purity=0.85, seed=0)
    group = 64 // 4
    in_slice = [
        np.mean((toks >= label * group) & (toks < (label + 1) * group))
        for toks, label in train
    ]
    assert np.mean(in_slice) > 0.8  # most tokens come from the class slice


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_token_task_distribution_at_the_defaults(seed):
    """Labels are uniform, and a token comes from its class slice with
    probability purity, otherwise uniformly from the whole vocabulary."""
    train, _ = synthetic_token_task(n_train=4000, n_test=1, seed=seed)
    assert all(type(toks) is np.ndarray and toks.shape == (16,) and toks.dtype == np.int64
               and type(label) is int for toks, label in train)
    tokens = np.stack([toks for toks, _ in train])
    labels = np.array([label for _, label in train])
    sigma = np.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(np.bincount(labels, minlength=4) - 1000) < 4 * sigma)
    assert tokens.min() >= 0 and tokens.max() < 64
    share = np.mean(tokens // 16 == labels[:, None])
    assert abs(share - (0.85 + 0.15 / 4)) < 0.01


def test_synthetic_token_task_with_full_purity_stays_in_the_class_slice():
    train, test = synthetic_token_task(n_train=500, n_test=500, purity=1.0, seed=3)
    assert all(np.all(toks // 16 == label) for toks, label in train + test)


def test_synthetic_token_task_train_split_does_not_depend_on_n_test():
    small, _ = synthetic_token_task(n_test=1, seed=4)
    large, _ = synthetic_token_task(n_test=500, seed=4)
    assert len(small) == len(large) == 2000
    assert all(np.array_equal(a, b) and x == y for (a, x), (b, y) in zip(small, large))


def test_synthetic_token_task_validation():
    with pytest.raises(ConfigError, match="purity"):
        synthetic_token_task(purity=0.0)
    with pytest.raises(ConfigError, match="too small"):
        synthetic_token_task(vocab_size=3, n_classes=4)
    with pytest.raises(InputError):
        synthetic_token_task(n_train=0)
    for seq_len in (0, -1):
        with pytest.raises(InputError, match=f"seq_len must be >= 1, got {seq_len}"):
            synthetic_token_task(seq_len=seq_len)


def test_synthetic_scenarios_carry_their_labels_in_words():
    scenarios = synthetic_scenarios(40, seed=2)
    assert len({s.scenario_id for s in scenarios}) == 40
    for s in scenarios:
        assert s.road_type in ROAD_TYPES
        assert s.extra["agent"] in AGENTS
        assert s.road_type in s.caption
        assert s.extra["agent"] in s.caption
        if s.risk_present:
            assert s.suggested_action in RISK_ACTIONS
        else:
            assert s.suggested_action == CLEAR_ACTION
        assert s.suggested_action in s.caption
    assert scenarios == synthetic_scenarios(40, seed=2)
    assert scenarios != synthetic_scenarios(40, seed=3)


def test_union_labels_order_and_dedup():
    union = union_labels(default_label_sets())
    assert len(union) == len(set(union)) == 14
    assert union[:4] == ROAD_TYPES  # category order: scene first
    assert "yes" in union and "keep going" in union
    with pytest.raises(InputError):
        union_labels({})


def test_corpus_to_examples_maps_and_skips():
    scenarios = synthetic_scenarios(6, seed=4)
    records = generate_dataset(scenarios, MockLLMClient(seed=4)).records
    sets = default_label_sets()
    union = union_labels(sets)
    examples, skipped = corpus_to_examples(records, sets, union, 64, 32)
    assert skipped == 0
    assert len(examples) == len(records) == 30
    for toks, label in examples:
        assert toks.dtype == np.int64
        assert 0 <= label < len(union)
    # an answer that resolves to no label is skipped, not mis-trained
    from qlorakit.qagen import QARecord
    odd = QARecord(scenario_id="s-x", image_ref="i", question="q?",
                   answer="none of these", category="risk", pair_index=1)
    examples2, skipped2 = corpus_to_examples([odd], sets, union, 64, 32)
    assert skipped2 == 1 and examples2 == []


def test_token_example_file_roundtrip(tmp_path):
    examples = [(np.array([1, 2, 3], dtype=np.int64), 0),
                (np.array([4], dtype=np.int64), 2)]
    path = tmp_path / "train.jsonl"
    write_jsonl(path, [TokenExample(toks.tolist(), label) for toks, label in examples])
    assert path.read_text() == ('{"tokens": [1, 2, 3], "label": 0}\n'
                                '{"tokens": [4], "label": 2}\n')
    loaded = read_token_examples(path)
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
               for a, b in zip(examples, loaded))
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tokens": [1], "label": 0, "oops": 1}\n')
    with pytest.raises(InputError, match="unknown example key"):
        read_token_examples(bad)


def test_predict_answers_shape_and_order():
    spec = ToyModelSpec(vocab_size=64, d_model=8, n_layers=1, n_heads=2,
                        d_ff=8, n_classes=14, max_seq_len=32)
    params = init_model_params(spec, seed=0)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=1)
    scenarios = synthetic_scenarios(3, seed=5)
    records = generate_dataset(scenarios, MockLLMClient(seed=5)).records
    union = union_labels(default_label_sets())
    rows = predict_answers(params, spec, adapters, records[::-1], union)
    assert [(r[0], r[1]) for r in rows] == sorted((r.scenario_id, r.pair_index)
                                                  for r in records)
    assert all(r[2] in union for r in rows)
    with pytest.raises(InputError, match="does not match n_classes"):
        predict_answers(params, spec, adapters, records, union[:5])


def test_each_distinct_question_is_tokenized_once_per_call(monkeypatch):
    from qlorakit import tasks

    spec = ToyModelSpec(vocab_size=64, d_model=8, n_layers=1, n_heads=2,
                        d_ff=8, n_classes=14, max_seq_len=32)
    params = init_model_params(spec, seed=0)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=1)
    records = generate_dataset(synthetic_scenarios(20, seed=6), MockLLMClient(seed=6)).records
    questions = sorted({r.question for r in records})
    assert len(questions) < len(records)
    sets = default_label_sets()
    union = union_labels(sets)
    calls = []
    monkeypatch.setattr(tasks, "tokenize",
                        lambda text, *bounds: calls.append(text) or tokenize(text, *bounds))
    for _ in range(2):  # no memo outlives a call
        calls.clear()
        examples, skipped = corpus_to_examples(records, sets, union, 64, 32)
        assert skipped == 0 and sorted(calls) == questions
        assert all(np.array_equal(toks, tokenize(r.question, 64, 32))
                   for (toks, _), r in zip(examples, records))
        calls.clear()
        predict_answers(params, spec, adapters, records, union)
        assert sorted(calls) == questions


def test_predict_runs_one_sequence_per_distinct_question_with_each_records_answer(monkeypatch):
    from qlorakit import model, tasks

    spec = ToyModelSpec(vocab_size=64, d_model=8, n_layers=1, n_heads=2,
                        d_ff=8, n_classes=14, max_seq_len=32)
    params = init_model_params(spec, seed=0)
    adapters = init_adapters(spec, rank=2, alpha=4.0, seed=1)
    records = generate_dataset(synthetic_scenarios(20, seed=7), MockLLMClient(seed=7)).records
    union = union_labels(default_label_sets())
    ordered = sorted(records, key=lambda r: (r.scenario_id, r.pair_index))
    every = model.forward_batch(params, spec, [tokenize(r.question, 64, 32) for r in ordered],
                                adapters)
    expected = [(r.scenario_id, r.pair_index, union[k])
                for r, k in zip(ordered, np.argmax(every, axis=1))]
    sizes = []
    monkeypatch.setattr(tasks, "forward_batch", lambda p, s, seqs, a: sizes.append(len(seqs))
                        or model.forward_batch(p, s, seqs, a))
    assert predict_answers(params, spec, adapters, records[::-1], union) == expected
    assert sizes == [len({r.question for r in records})] and sizes[0] < len(records)


def test_prompt_for_synthetic_scenarios_feeds_the_mock():
    s = synthetic_scenarios(1, seed=6)[0]
    assert f"road_type: {s.road_type}" in build_prompt(s)
