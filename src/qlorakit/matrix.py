"""Dense numeric core.

Matrices are plain 2-D float64 C-contiguous numpy arrays throughout the
package; the helpers here are the validated constructor and the stable
softmax the rest of the code relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a finite 2-D float64 array; reject anything else."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} entries must be finite")
    return np.ascontiguousarray(arr)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along the given axis.

    Works in its one output buffer: attention scores are the largest
    per-pass temporaries, and fewer of them keep the allocator from
    returning and re-faulting heap pages between passes.

    The max is an elementwise maximum over a key-major copy (a plain
    transpose), since numpy reduces a short last axis row by row, about 3x
    slower, and a max is exact in any order. An axis-0 contiguous input is
    key-major already and needs no copy, and every step runs full rows.
    """
    z = np.asarray(z, dtype=np.float64)
    axis = range(z.ndim)[axis]  # a negative axis counts from the end; IndexError past it
    keep = z.shape[:axis] + (1,) + z.shape[axis + 1:]
    key_major = z.transpose(axis, *range(axis), *range(axis + 1, z.ndim))
    e = z - np.maximum.reduce(np.ascontiguousarray(key_major)).reshape(keep)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e
