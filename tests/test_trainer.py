"""Training-loop tests: step planning, determinism, accumulation
equivalence (including ragged windows), base freezing, the loss trace
file, and accuracy evaluation."""

import copy
import csv
import dataclasses

import numpy as np
import pytest

from qlorakit import optim, quant, trainer
from qlorakit.errors import InputError
from qlorakit.model import (LAYER_ROLES, ToyModelSpec, base_fingerprint, init_adapters,
                            init_model_params, loss_and_grads, quantize_base)
from qlorakit.optim import OptimizerState, TrainConfig, lr_at
from qlorakit.tasks import synthetic_token_task
from qlorakit.trainer import (TraceEntry, evaluate_accuracy, planned_steps, train,
                              write_trace_csv)

from conftest import make_batch, step_params


def fresh(spec, cfg_kwargs, seed=7):
    params = init_model_params(spec, seed=seed, profile="adapter_friendly")
    cfg = TrainConfig(**cfg_kwargs)
    adapters = init_adapters(spec, cfg.rank, cfg.alpha, seed=seed + 1)
    return params, adapters, cfg


def counting(calls, name, fn):
    """fn, counting each call in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def adapter_bytes(adapters):
    return b"".join(adapters[n].b_factor.tobytes() + adapters[n].a_factor.tobytes()
                    for n in sorted(adapters))


def test_planned_steps_formula():
    cfg = TrainConfig(batch_size=2, grad_accum_steps=4, epochs=1)
    assert planned_steps(2000, cfg) == 250
    assert planned_steps(7, cfg) == 1     # one ragged window
    assert planned_steps(9, cfg) == 2
    cfg3 = TrainConfig(batch_size=2, grad_accum_steps=4, epochs=3)
    assert planned_steps(16, cfg3) == 6


def test_training_is_seed_deterministic(small_spec):
    data = make_batch(small_spec, 24, seed=1)
    runs = []
    for _ in range(2):
        params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, seed=5,
                                                       warmup_steps=1, epochs=2))
        result = train(data, params, small_spec, adapters, cfg)
        runs.append((adapter_bytes(result.adapters),
                     [(e.step, e.lr, e.loss) for e in result.trace]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n,micro,accum", [(8, 2, 4), (7, 2, 4)])
def test_accumulation_equals_one_concatenated_batch(small_spec, n, micro, accum):
    data = make_batch(small_spec, n, seed=2)
    base = dict(rank=2, alpha=4.0, seed=9, warmup_steps=0, epochs=1)

    p1, a1, c1 = fresh(small_spec, dict(base, batch_size=micro, grad_accum_steps=accum))
    r1 = train(data, p1, small_spec, a1, c1)
    p2, a2, c2 = fresh(small_spec, dict(base, batch_size=n, grad_accum_steps=1))
    r2 = train(data, p2, small_spec, a2, c2)

    assert r1.summary["optimizer_steps"] == r2.summary["optimizer_steps"] == 1
    assert r1.trace[0].loss == pytest.approx(r2.trace[0].loss, abs=1e-12)
    for name in a1:
        assert np.max(np.abs(a1[name].a_factor - a2[name].a_factor)) <= 1e-12
        assert np.max(np.abs(a1[name].b_factor - a2[name].b_factor)) <= 1e-12


def test_base_weights_do_not_move(small_spec):
    data = make_batch(small_spec, 16, seed=3)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, seed=4,
                                                   warmup_steps=1))
    before = base_fingerprint(params)
    before_adapters = adapter_bytes(adapters)
    train(data, params, small_spec, adapters, cfg)
    assert base_fingerprint(params) == before
    assert adapter_bytes(adapters) != before_adapters  # adapters did move


def test_summary_contents(small_spec):
    data = make_batch(small_spec, 20, seed=5)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, seed=6,
                                                   warmup_steps=1, epochs=2))
    result = train(data, params, small_spec, adapters, cfg)
    s = result.summary
    assert s["examples"] == 20
    assert s["optimizer_steps"] == s["planned_steps"] == len(result.trace)
    assert s["final_tail_window"] == max(1, -(-len(result.trace) // 10))
    assert s["trainable_params"] == sum(a.b_factor.size + a.a_factor.size
                                        for a in adapters.values())
    assert s["total_base_params"] == small_spec.total_params()
    assert 0 < s["trainable_percent"] < 100
    assert s["train_config"]["learning_rate"] == cfg.learning_rate
    assert s["wall_time_s"] >= 0.0


def test_loss_decreases_on_separable_task():
    train_set, _ = synthetic_token_task(n_train=240, n_test=1, seed=0)
    from qlorakit.model import ToyModelSpec

    spec = ToyModelSpec(vocab_size=64, d_model=32, n_layers=2, n_heads=4,
                        d_ff=64, n_classes=4, max_seq_len=16)
    params, adapters, cfg = fresh(spec, dict(learning_rate=1e-3, seed=1,
                                             warmup_steps=2, epochs=1))
    result = train(train_set, params, spec, adapters, cfg)
    assert result.summary["final_mean_loss"] < result.summary["initial_loss"]


def test_input_validation(small_spec):
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0))
    with pytest.raises(InputError, match="non-empty"):
        train([], params, small_spec, adapters, cfg)
    with pytest.raises(InputError, match="adapters"):
        train(make_batch(small_spec, 4), params, small_spec, {}, cfg)


def public_train(dataset, params, spec, adapters, cfg):
    """train's loop on the public loss_and_grads and adamw_step; the losses."""
    flat = trainer.flatten_adapters(adapters)
    state = OptimizerState.for_params(flat, cfg)
    total = planned_steps(len(dataset), cfg)
    window = cfg.batch_size * cfg.grad_accum_steps
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), window):
            batch = [dataset[int(i)] for i in order[start:start + window]]
            loss, grads = loss_and_grads(params, spec, batch, adapters)
            step_params(flat, grads, state, lr_at(len(losses), total, cfg), cfg)
            losses.append(loss)
    return losses


@pytest.mark.parametrize("bits", [8, 32])
@pytest.mark.parametrize("base", ["dense", "q4"])
@pytest.mark.parametrize("lengths", ["equal", "mixed"])
@pytest.mark.parametrize("targets", ["q-v", "all-six"])
def test_train_is_bit_identical_to_the_public_loss_and_adamw_loop(bits, base, lengths,
                                                                  targets):
    spec = ToyModelSpec(vocab_size=23, d_model=8, n_layers=2, n_heads=2, d_ff=12,
                        n_classes=3, max_seq_len=6,
                        adapter_targets=LAYER_ROLES if targets == "all-six"
                        else ("attn_q", "attn_v"))
    rng = np.random.default_rng(21)
    data = [(rng.integers(0, spec.vocab_size,
                          size=spec.max_seq_len if lengths == "equal"
                          else int(rng.integers(1, spec.max_seq_len + 1))),
             int(rng.integers(0, spec.n_classes))) for _ in range(21)]
    cfg_kwargs = dict(rank=2, alpha=4.0, seed=6, warmup_steps=1, epochs=2,
                      learning_rate=5e-2, state_bits=bits)
    runs = []
    for run in (train, public_train):
        params, adapters, cfg = fresh(spec, cfg_kwargs)
        if base == "q4":
            params = quantize_base(params, spec, block_size=16)
        out = run(data, params, spec, adapters, cfg)
        losses = [e.loss for e in out.trace] if run is train else out
        runs.append((np.array(losses).tobytes(), adapter_bytes(adapters)))
    assert runs[0] == runs[1]
    # the adapters did train, and the windows covered every example twice
    assert runs[0][1] != adapter_bytes(fresh(spec, cfg_kwargs)[1])
    assert len(runs[0][0]) == 8 * 6


@pytest.mark.parametrize("bad", ["token-range", "float-token", "bool-token",
                                 "label-range", "float-label", "bool-label"])
def test_train_rejects_a_bad_last_example_before_step_0(small_spec, monkeypatch, bad):
    data = make_batch(small_spec, 21, seed=5)
    tokens, label = data[-1]
    data[-1] = {"token-range": (np.append(tokens[:-1], small_spec.vocab_size), label),
                "float-token": (tokens.astype(np.float64), label),
                "bool-token": ([True] + tokens[1:].tolist(), label),
                "label-range": (tokens, small_spec.n_classes),
                "float-label": (tokens, 1.5),
                "bool-label": (tokens, True)}[bad]
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, warmup_steps=1))
    with pytest.raises(InputError) as public:
        loss_and_grads(params, small_spec, data[-8:], adapters)
    before = adapter_bytes(adapters)
    calls = {"loss_and_grads": 0, "adamw_step": 0}
    for name in calls:
        monkeypatch.setattr(trainer, name, counting(calls, name, getattr(trainer, name)))
    with pytest.raises(InputError) as trained:
        train(data, params, small_spec, adapters, cfg)
    assert str(trained.value) == str(public.value)
    assert calls == {"loss_and_grads": 0, "adamw_step": 0}
    assert adapter_bytes(adapters) == before


def test_warmup_must_fit_in_planned_steps(small_spec):
    data = make_batch(small_spec, 8, seed=0)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0,
                                                   warmup_steps=5, epochs=1))
    # 8 examples, window 8 -> 1 planned step <= warmup 5
    from qlorakit.errors import ConfigError
    with pytest.raises(ConfigError, match="warmup"):
        train(data, params, small_spec, adapters, cfg)


def test_trace_records_epoch_examples_seen_and_optimizer_norms(small_spec):
    data = make_batch(small_spec, 21, seed=4)  # windows of 8: 8, 8 and 5 examples
    kwargs = dict(rank=2, alpha=4.0, seed=3, warmup_steps=1, epochs=2)
    params, adapters, cfg = fresh(small_spec, kwargs)
    trace = train(data, params, small_spec, adapters, cfg).trace
    assert [(e.step, e.epoch, e.examples_seen) for e in trace] == [
        (0, 0, 8), (1, 0, 16), (2, 0, 21), (3, 1, 29), (4, 1, 37), (5, 1, 42)]
    params, adapters, cfg = fresh(small_spec, kwargs)
    first = [data[int(i)] for i in np.random.default_rng(cfg.seed).permutation(21)[:8]]
    _, grads = loss_and_grads(params, small_spec, first, adapters)
    norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
    assert trace[0].grad_norm == pytest.approx(norm, rel=1e-12)
    assert all(e.grad_norm > 0 and 0 < e.update_norm < np.inf for e in trace)


def test_trace_csv_roundtrip(tmp_path):
    trace = [TraceEntry(step=0, epoch=0, examples_seen=8, lr=4e-5, loss=1.3862943611198906,
                        grad_norm=0.25, update_norm=1.1e-4),
             TraceEntry(step=1, epoch=1, examples_seen=15, lr=8e-5, loss=1.2,
                        grad_norm=3.0000000000000004, update_norm=2e-4)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["step", "epoch", "examples_seen", "lr", "loss", "grad_norm", "update_norm"]
    assert [TraceEntry(*map(int, row[:3]), *map(float, row[3:])) for row in rows] == trace


def test_trace_csv_bytes_match_the_astuple_formatting(tmp_path):
    """Rows are read from the fields directly; the bytes are those the
    dataclasses.astuple formatting gave."""
    trace = [TraceEntry(step=0, epoch=0, examples_seen=8, lr=1e-05, loss=0.1 + 0.2,
                        grad_norm=-0.0, update_norm=1e300),
             TraceEntry(step=2**40, epoch=123_456, examples_seen=10**15, lr=5e-324,
                        loss=float("inf"), grad_norm=float("nan"), update_norm=0.0),
             TraceEntry(step=7, epoch=1, examples_seen=56, lr=4e-5, loss=1.3862943611198906,
                        grad_norm=3.0000000000000004, update_norm=2.5e-17)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    expected = "".join(",".join(map(repr, dataclasses.astuple(e))) + "\n" for e in trace)
    assert path.read_bytes() == (trainer.TRACE_HEADER + "\n" + expected).encode()
    assert b"1e-05,0.30000000000000004,-0.0,1e+300" in path.read_bytes()


def test_evaluate_accuracy_bounds(small_setup):
    spec, params, adapters, batch = small_setup
    acc = evaluate_accuracy(params, spec, adapters, batch)
    assert 0.0 <= acc <= 1.0
    assert acc == evaluate_accuracy(params, spec, adapters, batch)
    with pytest.raises(InputError):
        evaluate_accuracy(params, spec, adapters, [])


@pytest.mark.parametrize("label,match", [(1.7, "not an integer"), (True, "not an integer"),
                                         (7, "outside")])
def test_evaluate_accuracy_refuses_labels_as_loss_and_grads_does(small_setup, label, match):
    spec, params, adapters, batch = small_setup
    data = batch + [(batch[0][0], label)]
    with pytest.raises(InputError, match=match) as public:
        loss_and_grads(params, spec, data, adapters)
    with pytest.raises(InputError) as evaluated:
        evaluate_accuracy(params, spec, adapters, data)
    assert str(evaluated.value) == str(public.value)


def test_dataset_not_mutated_by_training(small_spec):
    data = make_batch(small_spec, 12, seed=11)
    snapshot = copy.deepcopy(data)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, warmup_steps=1))
    train(data, params, small_spec, adapters, cfg)
    assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
               for a, b in zip(data, snapshot))


def test_q4_base_dequantizes_once_per_call_and_steps_once_per_window(small_spec,
                                                                     monkeypatch):
    data = make_batch(small_spec, 21, seed=5)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, seed=6,
                                                   warmup_steps=1, epochs=2))
    params = quantize_base(params, small_spec, block_size=16)
    n_q4 = sum(isinstance(v, quant.Q4BlockMatrix) for v in params.weights.values())
    assert n_q4 == 13
    calls = {"dequantize": 0, "loss_and_grads": 0}
    monkeypatch.setattr(quant, "dequantize_4bit",
                        counting(calls, "dequantize", quant.dequantize_4bit))
    monkeypatch.setattr(trainer, "loss_and_grads",
                        counting(calls, "loss_and_grads", trainer.loss_and_grads))
    result = train(data, params, small_spec, adapters, cfg)
    assert calls["dequantize"] == n_q4
    assert calls["loss_and_grads"] == result.summary["optimizer_steps"] == 6
    calls["dequantize"] = 0
    evaluate_accuracy(params, small_spec, adapters, data)
    assert calls["dequantize"] == n_q4


@pytest.mark.parametrize("bits", [8, 32])
def test_optimizer_state_quantizes_once_per_step(small_spec, monkeypatch, bits):
    """Both moments share one buffer: one dequantize and one quantize per
    step at 8 bits (plus the zero state's quantize), none at 32."""
    data = make_batch(small_spec, 21, seed=5)
    params, adapters, cfg = fresh(small_spec, dict(rank=2, alpha=4.0, seed=6,
                                                   warmup_steps=1, epochs=2,
                                                   state_bits=bits))
    assert len(trainer.flatten_adapters(adapters)) == 8
    calls = {"quantize": 0, "dequantize": 0}
    monkeypatch.setattr(optim, "quantize_8bit",
                        counting(calls, "quantize", optim.quantize_8bit))
    monkeypatch.setattr(optim, "dequantize_8bit",
                        counting(calls, "dequantize", optim.dequantize_8bit))
    steps = train(data, params, small_spec, adapters, cfg).summary["optimizer_steps"]
    assert steps == 6
    if bits == 8:
        assert calls == {"quantize": steps + 1, "dequantize": steps}
    else:
        assert calls == {"quantize": 0, "dequantize": 0}
