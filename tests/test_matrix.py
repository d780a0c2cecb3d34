"""Dense-core tests: as_matrix, softmax, and the adapted linear layer's
base product (a dense base, no adapter) vs a naive matmul oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlorakit.errors import InputError, ShapeError
from qlorakit.lora import QLoraLinear, qlora_forward
from qlorakit.matrix import as_matrix, softmax


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def matmul(a, b):
    """a @ b through the package's one linear layer."""
    return qlora_forward(a, QLoraLinear(as_matrix(b)))


def test_identity_preserves_matrix():
    m = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(matmul(np.eye(3), m), m)


def test_two_by_two_product():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[5, 6], [7, 8]])
    assert np.array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])


def test_random_product_matches_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8))
    assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_product_matches_naive_oracle_any_shape(n, k, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, m))
    assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"input 2x3 does not feed a 2x3 layer"):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError, match="w entries must be finite"):
        as_matrix([[1.0, np.nan]], "w")
    with pytest.raises(InputError, match="finite"):
        as_matrix([[np.inf], [0.0]])


def test_as_matrix_rejects_non_2d():
    with pytest.raises(InputError, match="ndim"):
        as_matrix([1.0, 2.0], "vec")
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 10_000))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    z = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
    before = z.copy()
    p = softmax(z, axis=-1)
    assert np.all(p >= 0)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
    # computed in its own buffer: the input is untouched, and the values are
    # bit-identical to the out-of-place formula
    e = np.exp(before - before.max(axis=-1, keepdims=True))
    assert np.array_equal(z, before) and np.array_equal(p, e / e.sum(axis=-1, keepdims=True))


def test_softmax_is_shift_stable():
    z = np.array([1e4, 1e4 + 1.0, 1e4 - 2.0])
    p = softmax(z)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(p, softmax(z - 1e4), atol=1e-15)


def _reference_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _masked_scores(t):
    """(B, H, T, T) attention scores with -inf on padded keys; every row keeps
    at least its first key."""
    rng = np.random.default_rng(t)
    scores = rng.normal(scale=3.0, size=(3, 2, t, t))
    lengths = np.array([t, max(1, t // 2), 1])
    return scores + np.where(np.arange(t) < lengths[:, None], 0.0, -np.inf)[:, None, None, :]


@pytest.mark.parametrize("z", [
    _masked_scores(16), _masked_scores(5), _masked_scores(1),
    np.random.default_rng(1).normal(scale=4.0, size=(7, 4)),
    np.array([[0.5, np.nan, 1.0], [2.0, -1.0, 0.0], [np.nan, np.nan, np.nan]]),
], ids=["masked-T16", "masked-T5", "T1", "logits-2d", "nan"])
def test_softmax_is_bit_identical_to_the_row_max_formula(z):
    assert np.array_equal(softmax(z), _reference_softmax(z), equal_nan=True)
    # along another axis, it is the same softmax of the transposed array
    if z.ndim == 2:
        assert np.array_equal(softmax(z, axis=0), _reference_softmax(z.T).T, equal_nan=True)


def test_softmax_rejects_an_axis_past_the_array():
    z = np.zeros((3, 4))
    for axis in (2, -3):
        with pytest.raises(IndexError):
            softmax(z, axis=axis)
