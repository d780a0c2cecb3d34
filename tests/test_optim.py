"""Optimizer tests: config validation, the warmup/decay schedule, AdamW
against an independent reference, the flat step against a per-block
reference, moment quantization, the flat state layout, and the scalar
quadratic convergence runs."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.config import load_config, model_spec_from
from qlorakit.errors import ConfigError, InputError, NumericError
from qlorakit.lora import flatten_adapters
from qlorakit.model import init_adapters
from qlorakit.optim import GRAD_LIMIT, OptimizerState, TrainConfig, adamw_step, lr_at
from qlorakit.quant import Q8Vector, dequantize_8bit

from conftest import reference_adamw_step, step_params


def reference_adamw(p0, grad_fn, cfg, lr, steps):
    """Textbook AdamW with decoupled decay, written independently of optim.py."""
    p = float(p0)
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(p)
        p *= 1.0 - lr * cfg.weight_decay
        m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
        v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
        m_hat = m / (1 - cfg.adam_beta1 ** t)
        v_hat = v / (1 - cfg.adam_beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
    return p


def run_quadratic(state_bits, steps=500, lr=1e-1):
    cfg = TrainConfig(learning_rate=lr, weight_decay=0.0, state_bits=state_bits)
    params = {"p": np.zeros(1)}
    state = OptimizerState.for_params(params, cfg)
    for _ in range(steps):
        grads = {"p": 2.0 * (params["p"] - 3.0)}
        step_params(params, grads, state, lr, cfg)
    return float(params["p"][0])


def test_train_config_validation():
    for bad in (dict(learning_rate=0.0), dict(learning_rate=-1e-4),
                dict(rank=0), dict(batch_size=0), dict(grad_accum_steps=0),
                dict(warmup_steps=-1), dict(weight_decay=1.0),
                dict(epochs=0), dict(adam_beta1=1.0), dict(adam_epsilon=0.0),
                dict(state_bits=16)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    assert TrainConfig().state_bits == 8


def test_schedule_matches_formula_at_pinned_steps():
    cfg = TrainConfig()  # peak 2e-4, warmup 5
    total = 100
    assert lr_at(0, total, cfg) == 2e-4 * 1 / 5
    assert lr_at(0, total, cfg) == pytest.approx(4e-5, rel=1e-12)
    assert lr_at(4, total, cfg) == 2e-4
    # decay start is continuous at the peak (up to one float rounding)
    assert lr_at(5, total, cfg) == 2e-4 * 95 / 95
    assert lr_at(5, total, cfg) == pytest.approx(2e-4, rel=1e-14)
    assert lr_at(52, total, cfg) == 2e-4 * 48 / 95
    assert lr_at(52, total, cfg) == pytest.approx(1.0105e-4, rel=1e-4)
    assert lr_at(total - 1, total, cfg) == 2e-4 * 1 / 95
    assert lr_at(total - 1, total, cfg) > 0.0


def test_schedule_warmup_is_monotone_then_decay():
    cfg = TrainConfig()
    total = 40
    values = [lr_at(s, total, cfg) for s in range(total)]
    assert all(a < b for a, b in zip(values[:5], values[1:5]))
    assert all(a > b for a, b in zip(values[5:], values[6:]))


def test_schedule_domain_errors():
    cfg = TrainConfig()
    with pytest.raises(ConfigError, match="must exceed"):
        lr_at(0, 5, cfg)  # total == warmup
    with pytest.raises(InputError, match="outside"):
        lr_at(100, 100, cfg)
    with pytest.raises(InputError):
        lr_at(-1, 100, cfg)


@pytest.mark.parametrize("bits", [32, 8])
def test_zero_gradients_zero_decay_is_a_fixed_point(bits):
    cfg = TrainConfig(weight_decay=0.0, state_bits=bits)
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = OptimizerState.for_params(params, cfg)
    step_params(params, {"w": np.zeros(3)}, state, lr=0.1, cfg=cfg)
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])


def test_single_step_matches_reference_with_decay():
    cfg = TrainConfig(weight_decay=0.01, state_bits=32)
    params = {"p": np.array([2.0])}
    state = OptimizerState.for_params(params, cfg)
    step_params(params, {"p": np.array([0.5])}, state, lr=0.1, cfg=cfg)
    expected = reference_adamw(2.0, lambda _: 0.5, cfg, lr=0.1, steps=1)
    assert params["p"][0] == pytest.approx(expected, abs=1e-15)


def test_trajectory_matches_reference_full_precision():
    cfg = TrainConfig(weight_decay=0.0, state_bits=32)
    params = {"p": np.zeros(1)}
    state = OptimizerState.for_params(params, cfg)
    for _ in range(50):
        step_params(params, {"p": 2.0 * (params["p"] - 3.0)}, state, 1e-1, cfg)
    expected = reference_adamw(0.0, lambda p: 2.0 * (p - 3.0), cfg, 1e-1, 50)
    assert params["p"][0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bits", [8, 32])
def test_flat_step_returns_the_gradient_and_update_norms(bits):
    """The update norm is that of the adaptive step alone, before decay."""
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.05, state_bits=bits)
    rng = np.random.default_rng(8)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=70)}
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    state = OptimizerState.for_params(params, cfg)
    flat, flat_grads = state.bind(params)
    for k, g in grads.items():
        flat_grads[k][...] = g
    before = {k: v.copy() for k, v in flat.items()}
    grad_norm, update_norm = adamw_step(state, 0.1, cfg)
    g = np.concatenate([grads[k].ravel() for k in sorted(grads)])
    assert grad_norm == pytest.approx(np.linalg.norm(g), rel=1e-14)
    step = np.concatenate([(before[k] * (1.0 - 0.1 * cfg.weight_decay) - flat[k]).ravel()
                           for k in sorted(flat)])
    assert update_norm == pytest.approx(np.linalg.norm(step), rel=1e-12)
    # the first step of Adam moves every coordinate by about lr
    assert update_norm == pytest.approx(0.1 * np.sqrt(g.size), rel=1e-6)
    assert not state._grad.any()


def test_quadratic_converges_full_precision():
    assert abs(run_quadratic(32) - 3.0) <= 1e-3


def test_quadratic_converges_8bit_state():
    assert abs(run_quadratic(8) - 3.0) <= 1e-2


def test_parameters_must_match_the_state_layout():
    """bind refuses params whose names or sizes differ from the state's
    layout, naming them, before it copies anything."""
    cfg = TrainConfig()
    state = OptimizerState.for_params({"a": np.zeros(2), "b": np.zeros(3)}, cfg)
    with pytest.raises(InputError, match="missing \\['b'\\], extra \\['c'\\]"):
        state.bind({"a": np.ones(2), "c": np.ones(3)})
    with pytest.raises(InputError, match="'b' has 4 elements.*built for 3"):
        state.bind({"a": np.ones(2), "b": np.ones(4)})
    assert not state._param.any()
    assert state.step_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_names_the_parameter_and_mutates_nothing(bad):
    cfg = TrainConfig()
    params = {"a/first": np.ones(3), "b/second": np.ones(2)}
    state = OptimizerState.for_params(params, cfg)
    grads = {"a/first": np.full(3, 0.5), "b/second": np.array([0.5, bad])}
    with pytest.raises(NumericError, match="'b/second'"):
        step_params(params, grads, state, 0.1, cfg)
    assert np.array_equal(params["a/first"], np.ones(3))
    assert state.step_count == 0
    assert not np.any(state.moments.codes)


def _assert_same_entry(joint, alone):
    if isinstance(alone, Q8Vector):
        assert isinstance(joint, Q8Vector)
        assert joint.length == alone.length and joint.block_size == alone.block_size
        assert joint.codes.tobytes() == alone.codes.tobytes()
        assert joint.scales.tobytes() == alone.scales.tobytes()
    else:
        assert joint.tobytes() == alone.tobytes()


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=4),
       block_size=st.integers(1, 128), bits=st.sampled_from([8, 32]),
       seed=st.integers(0, 2**16))
def test_joint_flat_state_equals_one_state_per_parameter(sizes, block_size,
                                                         bits, seed):
    cfg = TrainConfig(weight_decay=0.01, state_bits=bits)
    rng = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(len(sizes))]
    init = {n: rng.normal(size=k) for n, k in zip(names, sizes)}
    steps = [{n: rng.normal(size=k) * 10.0 ** rng.integers(-3, 3)
              for n, k in zip(names, sizes)} for _ in range(3)]

    joint = {n: v.copy() for n, v in init.items()}
    joint_state = OptimizerState.for_params(joint, cfg, block_size)
    alone = {n: {n: v.copy()} for n, v in init.items()}
    alone_state = {n: OptimizerState.for_params(alone[n], cfg, block_size)
                   for n in names}
    for lr, grads in zip((1e-2, 3e-3, 1e-3), steps):
        step_params(joint, grads, joint_state, lr, cfg)
        for n in names:
            step_params(alone[n], {n: grads[n]}, alone_state[n], lr, cfg)

    for n in names:
        assert joint[n].tobytes() == alone[n][n].tobytes()
        _assert_same_entry(joint_state.first[n], alone_state[n].first[n])
        _assert_same_entry(joint_state.second[n], alone_state[n].second[n])
    padding = np.ones(len(joint_state._grad), dtype=bool)
    for _name, size, off in joint_state.layout:
        assert off % block_size == 0
        padding[off:off + size] = False
    m = joint_state.moments
    for half in (m.codes if bits == 8 else m).reshape(2, -1):
        assert not np.any(half[padding])


@pytest.mark.parametrize("bits", [8, 32])
def test_huge_finite_gradient_is_a_numeric_error_at_both_widths(bits):
    """Beyond GRAD_LIMIT an 8-bit scale would overflow float32, and near
    1e154 a 32-bit g * g overflows: both widths refuse it before any
    mutation and without a numpy warning."""
    cfg = TrainConfig(state_bits=bits)
    params = {"a/first": np.ones(3), "b/second": np.ones(2)}
    state = OptimizerState.for_params(params, cfg)
    step_params(params, {k: np.full_like(v, 0.5) for k, v in params.items()}, state, 0.1, cfg)

    def snapshot():
        m = state.moments
        moments = m.tobytes() if bits == 32 else m.codes.tobytes() + m.scales.tobytes()
        return [v.tobytes() for v in params.values()], moments, state.step_count

    before = snapshot()
    for huge in (np.nextafter(GRAD_LIMIT, np.inf), 1e41, 1e154, 1e300, np.inf):
        grads = {"a/first": np.full(3, 0.5), "b/second": np.array([0.5, -huge])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'b/second'"):
                step_params(params, grads, state, 0.1, cfg)
        assert snapshot() == before
    # the limit itself still steps
    step_params(params, {"a/first": np.full(3, 0.5), "b/second": np.array([GRAD_LIMIT, 0.0])},
                state, 0.1, cfg)
    assert state.step_count == 2 and np.isfinite(params["b/second"]).all()


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 150), min_size=1, max_size=3),
       block_size=st.integers(1, 96), bits=st.sampled_from([8, 32]),
       magnitude=st.sampled_from([1e-300, 1e-3, 1.0, 1e30]), seed=st.integers(0, 2**16))
def test_flat_step_is_bit_identical_to_the_per_block_reference(sizes, block_size, bits,
                                                                magnitude, seed):
    cfg = TrainConfig(weight_decay=0.01, state_bits=bits)
    rng = np.random.default_rng(seed)
    params = {f"p{i}": rng.normal(size=k) for i, k in enumerate(sizes)}
    state = OptimizerState.for_params(params, cfg, block_size)
    _flat, grads = state.bind(params)
    param = state._param.copy()
    n = param.size
    first = second = ((np.zeros(n, np.int8), np.zeros(n // block_size, np.float32))
                      if bits == 8 else np.zeros(n))
    for t, lr in enumerate((1e-2, 3e-3, 1e-3, 5e-4), start=1):
        for g in grads.values():
            g[...] = rng.normal(size=g.shape) * magnitude * 10.0 ** rng.integers(-2, 3)
        g = state._grad.copy()
        norms = adamw_step(state, lr, cfg)
        first, second, *want = reference_adamw_step(param, g, first, second, t, lr,
                                                    cfg, block_size)
        assert norms == tuple(want)
        assert state._param.tobytes() == param.tobytes()
        m = state.moments  # first moments, then second
        if bits == 8:
            assert m.codes.tobytes() == first[0].tobytes() + second[0].tobytes()
            assert m.scales.tobytes() == first[1].tobytes() + second[1].tobytes()
        else:
            assert m.tobytes() == first.tobytes() + second.tobytes()


def _arrays(obj):
    """Every numpy array reachable through obj's attributes, dicts and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    if isinstance(obj, dict):
        return _arrays(list(obj.values()))
    return _arrays(list(vars(obj).values())) if hasattr(obj, "__dict__") else []


def test_8bit_state_keeps_only_codes_and_scales_between_steps():
    """On the criterion-07 shapes: after a step the 8-bit state holds its
    moments as int8 codes and float32 scales alone (no float64 copy of
    them), and the state's bytes stay 8,704 at 8 bits and 65,536 at 32."""
    rcfg = load_config()
    flat = flatten_adapters(init_adapters(model_spec_from(rcfg), rank=rcfg.rank,
                                          alpha=rcfg.alpha, seed=0))
    rng = np.random.default_rng(7)
    for bits, want in ((8, 8704), (32, 65536)):
        cfg = TrainConfig(state_bits=bits)
        state = OptimizerState.for_params(flat, cfg)
        _params, grads = state.bind(flat)
        for _ in range(2):
            for g in grads.values():
                g[...] = rng.normal(size=g.shape)
            adamw_step(state, 1e-3, cfg)
        scratch = {id(state._param), id(state._grad)}
        held = [a for a in _arrays(state) if id(a) not in scratch]
        assert sum(a.nbytes for a in _arrays(state.moments)) == want
        assert sorted(a.dtype.name for a in held) == (["float32", "int8"] if bits == 8
                                                      else ["float64"])


def test_nan_gradient_raises_numeric_error_naming_parameter():
    cfg = TrainConfig()
    params = {"layers.0.attn_q/a": np.zeros(2)}
    state = OptimizerState.for_params(params, cfg)
    with pytest.raises(NumericError, match="layers.0.attn_q/a"):
        step_params(params, {"layers.0.attn_q/a": np.array([np.nan, 0.0])},
                    state, 0.1, cfg)


def test_8bit_state_is_stored_quantized_and_reconstructs_moments():
    cfg = TrainConfig(weight_decay=0.0, state_bits=8)
    rng = np.random.default_rng(0)
    g = rng.normal(size=64)
    params8 = {"w": np.zeros(64)}
    state8 = OptimizerState.for_params(params8, cfg)
    step_params(params8, {"w": g.copy()}, state8, 1e-3, cfg)
    assert isinstance(state8.first["w"], Q8Vector)
    assert isinstance(state8.second["w"], Q8Vector)

    # exact moments after one step from zero state
    m_exact = (1 - cfg.adam_beta1) * g
    v_exact = (1 - cfg.adam_beta2) * g * g
    m_deq = dequantize_8bit(state8.first["w"])

    scale_m = np.repeat(state8.first["w"].scales.astype(np.float64), 64)[:64]
    assert np.all(np.abs(m_deq - m_exact) <= scale_m / 2 + 1e-12)
    # second moment is stored via its square root
    root_deq = dequantize_8bit(state8.second["w"])
    scale_r = np.repeat(state8.second["w"].scales.astype(np.float64), 64)[:64]
    root_err = scale_r / 2
    assert np.all(np.abs(root_deq - np.sqrt(v_exact)) <= root_err + 1e-12)
    # squaring the stored root reconstructs v to the propagated bound
    v_bound = root_err * (2 * np.sqrt(v_exact) + root_err)
    assert np.all(np.abs(root_deq ** 2 - v_exact) <= v_bound + 1e-12)


def test_scalar_blocks_quantize_losslessly():
    cfg = TrainConfig(weight_decay=0.0, state_bits=8)
    params = {"p": np.array([1.0])}
    state = OptimizerState.for_params(params, cfg)
    step_params(params, {"p": np.array([0.25])}, state, 1e-2, cfg)
    # a 1-element block's absmax is its own value: round trip is exact in f32
    m_exact = np.float64(np.float32((1 - cfg.adam_beta1) * 0.25 / 127)) * 127
    assert dequantize_8bit(state.first["p"])[0] == pytest.approx(m_exact, rel=1e-7)
