"""Acceptance suite. Each criterion is one test function, so a verbose
run emits exactly one pass/fail line per criterion; each test also prints
a "criterion NN PASS" line with its measured evidence.

Stated tolerances and runtime budgets are asserted, not just observed.
"""

import json
import re
import time

import numpy as np
import pytest

from qlorakit.cli import main
from qlorakit.evalharness import (MODES, UNKNOWN, LabelSet, build_confusion,
                                  compute_metrics, render_report)
from qlorakit.fileio import write_jsonl
from qlorakit.lora import QLoraLinear, lora_delta, lora_init, merge, qlora_forward
from qlorakit.model import (ModelParams, ToyModelSpec, init_adapters,
                            init_model_params, loss_and_grads, quantize_base)
from qlorakit.optim import OptimizerState, TrainConfig, adamw_step, lr_at
from qlorakit.qagen import MockLLMClient, generate_dataset
from qlorakit.quant import (Q4BlockMatrix, dequantize_4bit, dequantize_8bit,
                            pack_nibbles, q4_to_bytes, quantize_4bit,
                            unpack_nibbles)
from qlorakit.tasks import synthetic_scenarios, synthetic_token_task
from qlorakit.trainer import evaluate_accuracy, train


def trained_adapter(d_in, d_out, r, alpha, rng):
    ad = lora_init(d_in, d_out, r, alpha, seed=int(rng.integers(0, 2**31)))
    ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    ad.b_factor += rng.normal(0, 0.05, ad.b_factor.shape)
    return ad


def crit7_spec(targets=("attn_q", "attn_v")):
    return ToyModelSpec(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                        d_ff=64, n_classes=4, max_seq_len=16,
                        adapter_targets=targets)


def pinned_train_config(**overrides):
    base = dict(learning_rate=2e-4, rank=16, alpha=16.0, batch_size=2,
                grad_accum_steps=4, warmup_steps=5, weight_decay=0.01,
                epochs=1, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_01_merge_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        w = rng.normal(size=(64, 64))
        ad = trained_adapter(64, 64, r=16, alpha=16.0, rng=rng)
        x = rng.normal(size=(4, 64))
        adapted = x @ w + ad.scaling * ((x @ ad.b_factor) @ ad.a_factor)
        merged = x @ merge(w, ad)
        worst = max(worst, float(np.max(np.abs(adapted - merged))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 01 PASS: merge equivalence, max |diff| = {worst:.3e} "
          f"over 50 cases in {elapsed:.2f}s")


def test_criterion_02_qlora_forward_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        w = rng.normal(size=(64, 64))
        ad = trained_adapter(64, 64, r=16, alpha=16.0, rng=rng)
        layer = QLoraLinear(base=quantize_4bit(w, 64), adapter=ad)
        x = rng.normal(size=(4, 64))
        reference = x @ (dequantize_4bit(layer.base) + lora_delta(ad))
        worst = max(worst, float(np.max(np.abs(qlora_forward(x, layer) - reference))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 02 PASS: qlora forward identity, max |diff| = {worst:.3e} "
          f"over 50 cases in {elapsed:.2f}s")


def test_criterion_03_quantization_bound_and_packing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(100):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        dist = case % 3
        if dist == 0:
            w = rng.normal(size=(rows, cols))
        elif dist == 1:
            w = rng.uniform(-4, 4, size=(rows, cols))
        else:
            w = rng.standard_cauchy(size=(rows, cols))  # heavy-tailed
        block = int(rng.integers(1, 70))
        q = quantize_4bit(w, block_size=block)
        err = np.abs(dequantize_4bit(q) - w).ravel()
        bound = np.repeat(q.scales.astype(np.float64), block)[: w.size] / 2 + 1e-12
        assert np.all(err <= bound)

    for c in (0.7, 3.0, 1e-4):
        q = quantize_4bit(np.full((4, 32), c), block_size=16)
        expect = np.float64(np.float32(c / 7)) * 7
        assert np.array_equal(dequantize_4bit(q), np.full((4, 32), expect))

    codes = rng.integers(-7, 8, size=100_000)
    assert np.array_equal(unpack_nibbles(pack_nibbles(codes), codes.size), codes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 03 PASS: |deq - w| <= scale/2 + 1e-12 on 100 matrices, "
          f"constant blocks exact, 1e5-code pack round trip, in {elapsed:.2f}s")


def test_criterion_04_footprint_via_inspect_quant(tmp_path, capsys):
    w = np.random.default_rng(404).normal(size=(64, 64))
    path = tmp_path / "w.npy"
    np.save(path, w)
    assert main(["inspect-quant", "--weights", str(path), "--block", "64"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"reduction \(payload\): ([0-9.]+)x", out)
    assert m, out
    ratio = float(m.group(1))
    assert ratio >= 7.0
    assert ratio == pytest.approx(16384 / 2304, abs=0.005)
    print(f"criterion 04 PASS: inspect-quant reports {ratio:.2f}x reduction "
          f"(formula 16384/2304 = {16384 / 2304:.2f})")


def test_criterion_05_gradient_check():
    t0 = time.perf_counter()
    spec = ToyModelSpec(vocab_size=29, d_model=16, n_layers=2, n_heads=2,
                        d_ff=24, n_classes=4, max_seq_len=8,
                        adapter_targets=("attn_q", "attn_v"))
    params = init_model_params(spec, seed=50, profile="standard")
    adapters = init_adapters(spec, rank=4, alpha=8.0, seed=51)
    rng = np.random.default_rng(52)
    for ad in adapters.values():
        ad.a_factor += rng.normal(0, 0.05, ad.a_factor.shape)
    batch = [(rng.integers(0, spec.vocab_size, size=8), int(rng.integers(0, 4)))
             for _ in range(3)]

    def batch_loss():
        loss, _ = loss_and_grads(params, spec, batch, adapters)
        return loss

    _, grads = loss_and_grads(params, spec, batch, adapters)
    h = 1e-5
    checked = 0
    worst = 0.0
    for name, ad in adapters.items():
        for suffix, arr in (("/b", ad.b_factor), ("/a", ad.a_factor)):
            flat = arr.ravel()
            gflat = grads[name + suffix].ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = batch_loss()
                flat[i] = keep - h
                dn = batch_loss()
                flat[i] = keep
                fd = (up - dn) / (2 * h)
                worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"criterion 05 PASS: {checked} adapter coordinates, worst relative "
          f"error {worst:.3e} vs central differences (h=1e-5) in {elapsed:.1f}s")


def test_criterion_06_frozen_base_bytes_after_200_qlora_steps():
    spec = crit7_spec()
    train_set, _ = synthetic_token_task(n_train=1600, n_test=1, seed=60)
    params = quantize_base(init_model_params(spec, seed=61), spec)
    adapters = init_adapters(spec, rank=16, alpha=16.0, seed=62)
    before = {name: q4_to_bytes(v) for name, v in params.weights.items()
              if isinstance(v, Q4BlockMatrix)}
    assert len(before) == 13  # 6 projections x 2 layers + head
    result = train(train_set, params, spec, adapters, pinned_train_config(seed=63))
    assert result.summary["optimizer_steps"] == 200
    after = {name: q4_to_bytes(v) for name, v in params.weights.items()
             if isinstance(v, Q4BlockMatrix)}
    assert after == before
    print("criterion 06 PASS: all 13 Q4 base matrices byte-identical after a "
          "200-step QLoRA run")


def test_criterion_07_training_efficacy_lora_and_qlora():
    t0 = time.perf_counter()
    spec = crit7_spec()
    train_set, test_set = synthetic_token_task(n_train=2000, n_test=500, seed=0)
    outcomes = {}
    for variant in ("lora", "qlora"):
        params = init_model_params(spec, seed=1)
        if variant == "qlora":
            params = quantize_base(params, spec)
        adapters = init_adapters(spec, rank=16, alpha=16.0, seed=2)
        result = train(train_set, params, spec, adapters, pinned_train_config())
        ratio = result.summary["final_mean_loss"] / result.summary["initial_loss"]
        acc = evaluate_accuracy(params, spec, adapters, test_set)
        assert result.summary["optimizer_steps"] == 250
        assert ratio < 0.5, f"{variant}: loss ratio {ratio}"
        assert acc >= 0.90, f"{variant}: accuracy {acc}"
        outcomes[variant] = (ratio, acc)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("criterion 07 PASS: "
          + ", ".join(f"{v} loss ratio {r:.3f}, test acc {a:.3f}"
                      for v, (r, a) in outcomes.items())
          + f", in {elapsed:.1f}s")


def test_criterion_08_accumulation_equivalence():
    spec = crit7_spec()
    rng = np.random.default_rng(80)
    data = [(rng.integers(0, spec.vocab_size, size=12), int(rng.integers(0, 4)))
            for _ in range(8)]
    results = {}
    for tag, (micro, accum) in {"accumulated": (2, 4), "concatenated": (8, 1)}.items():
        params = init_model_params(spec, seed=81)
        adapters = init_adapters(spec, rank=16, alpha=16.0, seed=82)
        cfg = pinned_train_config(batch_size=micro, grad_accum_steps=accum,
                                 warmup_steps=0, seed=83)
        result = train(data, params, spec, adapters, cfg)
        assert result.summary["optimizer_steps"] == 1
        results[tag] = adapters
    worst = 0.0
    for name in results["accumulated"]:
        a1, a2 = results["accumulated"][name], results["concatenated"][name]
        worst = max(worst, float(np.max(np.abs(a1.a_factor - a2.a_factor))))
        worst = max(worst, float(np.max(np.abs(a1.b_factor - a2.b_factor))))
    assert worst <= 1e-12
    print(f"criterion 08 PASS: 4 micro-batches of 2 equal one batch of 8, "
          f"max parameter difference {worst:.2e}")


def test_criterion_09_scheduler_exactness():
    cfg = TrainConfig()  # peak 2e-4, warmup 5
    total = 100
    checks = {
        0: 2e-4 * (0 + 1) / 5,
        4: 2e-4 * (4 + 1) / 5,
        5: 2e-4 * (total - 5) / (total - 5),
        52: 2e-4 * (total - 52) / (total - 5),
        total - 1: 2e-4 * 1 / (total - 5),
    }
    for step, expected in checks.items():
        assert lr_at(step, total, cfg) == expected, step
    assert lr_at(4, total, cfg) == 2e-4
    assert lr_at(0, total, cfg) == pytest.approx(4e-5, rel=1e-12)
    assert lr_at(52, total, cfg) == pytest.approx(2e-4 * 48 / 95, abs=0)
    print("criterion 09 PASS: lr_at matches the warmup/decay formula at steps "
          "{0, 4, 5, 52, 99} with peak 2e-4 at step 4")


def test_criterion_10_generation_cardinality_and_retry(tmp_path):
    for n in (1, 7, 100):
        scenarios = synthetic_scenarios(n, seed=100 + n)
        result = generate_dataset(scenarios, MockLLMClient(seed=10))
        assert len(result.records) == 5 * n
        assert result.stats["records"] == 5 * n
        per = {}
        for r in result.records:
            per.setdefault(r.scenario_id, []).append(r.pair_index)
        assert all(sorted(v) == [1, 2, 3, 4, 5] for v in per.values())

        rerun = generate_dataset(synthetic_scenarios(n, seed=100 + n),
                                 MockLLMClient(seed=10), max_concurrency=8)
        blobs = []
        for tag, res in (("a", result), ("b", rerun)):
            rec, rej = tmp_path / f"r{tag}{n}.jsonl", tmp_path / f"j{tag}{n}.jsonl"
            write_jsonl(rec, res.records)
            write_jsonl(rej, res.rejects)
            blobs.append(rec.read_bytes() + rej.read_bytes())
        assert blobs[0] == blobs[1]

    scenarios = synthetic_scenarios(5, seed=110)
    dead, flaky = scenarios[0].scenario_id, scenarios[1].scenario_id
    client = MockLLMClient(seed=11, malformed_ids=[dead],
                           flaky_attempts={flaky: 2})
    result = generate_dataset(scenarios, client, max_retries=2)
    assert result.stats == {"scenarios": 5, "accepted": 4, "rejected": 1,
                            "records": 20, "attempts": 9}
    assert result.rejects[0].scenario_id == dead
    assert result.rejects[0].attempts == 3
    print("criterion 10 PASS: 5N records for N in {1, 7, 100}, byte-identical "
          "reruns, malformed scenario rejected after 3 attempts with correct "
          "accounting")


def naive_metrics_oracle(golds, preds, labels, mode):
    classes = [c for c in labels if c != UNKNOWN]
    if UNKNOWN in golds:
        classes.append(UNKNOWN)
    acc = sum(g == p for g, p in zip(golds, preds)) / len(golds)
    per = {}
    for c in classes:
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        pn = sum(1 for p in preds if p == c)
        gn = sum(1 for g in golds if g == c)
        prec = tp / pn if pn else 0.0
        rec = tp / gn if gn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[c] = (prec, rec, f1, gn)
    if mode == "micro":
        return acc, acc, acc
    if mode == "macro":
        k = len(classes)
        return (sum(v[0] for v in per.values()) / k,
                sum(v[1] for v in per.values()) / k,
                sum(v[2] for v in per.values()) / k)
    total = sum(v[3] for v in per.values())
    return (sum(v[0] * v[3] for v in per.values()) / total,
            sum(v[1] * v[3] for v in per.values()) / total,
            sum(v[2] * v[3] for v in per.values()) / total)


def test_criterion_11_metric_oracle():
    rng = np.random.default_rng(1100)
    worst = 0.0
    for _ in range(1000):
        n_labels = int(rng.integers(2, 5))
        labels = tuple("abcd"[:n_labels])
        ls = LabelSet("agent", labels)
        n = int(rng.integers(1, 40))
        pool = list(labels) + [UNKNOWN]
        gold_pool = pool if rng.random() < 0.5 else list(labels)
        golds = [gold_pool[i] for i in rng.integers(0, len(gold_pool), n)]
        preds = [pool[i] for i in rng.integers(0, len(pool), n)]
        cm = build_confusion(preds, golds, ls)
        for mode in MODES:
            rep = compute_metrics(cm, mode)
            prec, rec, f1 = naive_metrics_oracle(golds, preds, cm.labels, mode)
            worst = max(worst, abs(rep.precision - prec), abs(rep.recall - rec),
                        abs(rep.f1 - f1))
            assert worst <= 1e-12
            if mode == "micro":
                assert rep.precision == rep.recall == rep.accuracy

    ls = LabelSet("agent", ("a", "b", "c"))
    cm = build_confusion(["a", "b", "b", "b"], ["a", "a", "b", "c"], ls)
    macro = compute_metrics(cm, "macro")
    assert macro.accuracy == 0.5
    assert abs(macro.f1 - 7 / 18) <= 1e-12
    table = render_report({"m": {"agent": macro}})
    assert [ln for ln in table.splitlines() if "F1-score" in ln][0].endswith("38.89")
    print(f"criterion 11 PASS: 1000 random instances match the counting oracle "
          f"(max |diff| {worst:.2e}); hand example gives accuracy 0.5, "
          f"macro F1 7/18 rendered as 38.89")


def test_criterion_12_end_to_end_pipeline(tmp_path, capsys):
    t0 = time.perf_counter()
    scen = tmp_path / "scenarios.jsonl"
    data = tmp_path / "data"
    run = tmp_path / "run"
    preds = tmp_path / "preds.jsonl"
    evals = tmp_path / "evals"
    steps = [
        ["make-scenarios", "--n", "40", "--out", str(scen), "--seed", "12"],
        ["gen-data", "--scenarios", str(scen), "--out", str(data), "--seed", "12"],
        ["split", "--corpus", str(data / "corpus.jsonl"), "--out", str(data),
         "--seed", "12"],
        ["train", "--data", str(data), "--out", str(run), "--seed", "12"],
        ["predict", "--run", str(run), "--data", str(data), "--out", str(preds),
         "--split", "test"],
        ["eval", "--preds", str(preds), "--gold", str(data / "corpus.jsonl"),
         "--labels", str(data / "labels"), "--out", str(evals),
         "--manifest", str(data / "test_ids.txt"), "--seed", "12",
         "--model-name", "lora-toy"],
        ["report", "--in", str(evals)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv

    table = (evals / "report.txt").read_text().splitlines()
    assert table[0].split() == ["Task", "Metric", "lora-toy"]
    assert len(table) == 2 + 4 * 4  # header + rule + 4 tasks x 4 metrics
    cell_re = re.compile(r"^\d+\.\d{2}$")
    for line in table[2:]:
        assert cell_re.match(line.split()[-1]), line

    # self-evaluation: predictions copied from gold must score 100.00
    # everywhere; run it over the full corpus so every canonical label has
    # gold support (macro counts absent classes as 0 by design)
    from qlorakit.evalharness import Prediction
    from qlorakit.qagen import read_records_jsonl
    gold = read_records_jsonl(data / "corpus.jsonl")
    write_jsonl(tmp_path / "self.jsonl",
                [Prediction(r.scenario_id, r.pair_index, r.answer) for r in gold])
    assert main(["eval", "--preds", str(tmp_path / "self.jsonl"),
                 "--gold", str(data / "corpus.jsonl"),
                 "--labels", str(data / "labels"), "--out", str(evals),
                 "--seed", "12", "--model-name", "self-check"]) == 0
    capsys.readouterr()
    self_csv = (evals / "metrics_self-check.csv").read_text().splitlines()
    cells = [row.split(",")[2] for row in self_csv[1:]]
    assert len(cells) == 16
    assert all(cell == "100.00" for cell in cells)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"criterion 12 PASS: 7-stage pipeline exit codes all 0, 4x4 report "
          f"table, self-evaluation 100.00 in all 16 cells, in {elapsed:.1f}s")


def test_criterion_13_8bit_optimizer_state():
    cfg = TrainConfig(learning_rate=1e-1, weight_decay=0.0, state_bits=8)
    params = {"p": np.zeros(1)}
    state = OptimizerState.for_params(params, cfg)
    params, grads = state.bind(params)
    steps = 0
    for steps in range(1, 501):
        grads["p"][...] = 2.0 * (params["p"] - 3.0)
        adamw_step(state, 1e-1, cfg)
        if abs(params["p"][0] - 3.0) <= 1e-2:
            break
    assert abs(params["p"][0] - 3.0) <= 1e-2

    # single-step moment fidelity vs the full-precision state
    g = np.random.default_rng(130).normal(size=64)
    w = {"w": np.zeros(64)}
    s8 = OptimizerState.for_params(w, cfg)
    s8.bind(w)[1]["w"][...] = g  # the gradient view
    adamw_step(s8, 1e-3, cfg)
    cfg32 = TrainConfig(learning_rate=1e-1, weight_decay=0.0, state_bits=32)
    s32 = OptimizerState.for_params(w, cfg32)
    s32.bind(w)[1]["w"][...] = g
    adamw_step(s32, 1e-3, cfg32)

    m_err = np.abs(dequantize_8bit(s8.first["w"]) - s32.first["w"])
    m_bound = np.repeat(s8.first["w"].scales.astype(np.float64), 64)[:64] / 2
    assert np.all(m_err <= m_bound + 1e-12)
    root_err = np.abs(dequantize_8bit(s8.second["w"]) - np.sqrt(s32.second["w"]))
    root_bound = np.repeat(s8.second["w"].scales.astype(np.float64), 64)[:64] / 2
    assert np.all(root_err <= root_bound + 1e-12)
    print(f"criterion 13 PASS: 8-bit-state quadratic reaches |p - 3| <= 1e-2 "
          f"in {steps} steps; one-step moments within scale_block/2 of full "
          f"precision")
