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
    """
    z = np.asarray(z, dtype=np.float64)
    e = z - np.maximum.reduce(z, axis=axis, keepdims=True)  # the ufuncs z.max, e.sum call
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e
