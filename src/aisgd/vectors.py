"""Feature vectors (dense or sparse) and the per-observation sample container.

Dense vectors are plain contiguous ``numpy`` arrays.  Sparse vectors are
sorted (index, value) pairs over a fixed dimension, which is how libsvm-style
text data arrives.  Both support the three primitives the solvers need:
inner product with a dense parameter vector, squared norm, and a scaled
in-place accumulation (axpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _unchecked(cls, **fields):
    """A ``cls`` instance with its fields set as given and ``__post_init__``
    skipped: only for fields the caller has already checked in bulk.  Set one
    by one, the fields keep the compact per-instance layout."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector stored as strictly increasing 0-based indices + values."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if self.dim < 1:
            raise ValueError("sparse vector dimension must be >= 1")
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("sparse index out of range")
            if not (idx[1:] > idx[:-1]).all():
                raise ValueError("sparse indices must be strictly increasing")
            if not np.isfinite(val).all():
                raise ValueError("sparse values must be finite")

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


def dot(x, theta: np.ndarray) -> float:
    """Inner product x . theta with theta dense."""
    if isinstance(x, SparseVector):
        if x.indices.size == 0:
            return 0.0
        return float(theta[x.indices] @ x.values)
    return float(np.dot(x, theta))


def sq_norm(x) -> float:
    """Squared Euclidean norm of the feature vector."""
    if isinstance(x, SparseVector):
        return float(x.values @ x.values)
    return float(np.dot(x, x))


def add_scaled(theta: np.ndarray, a: float, x) -> np.ndarray:
    """In-place theta += a * x; returns theta."""
    if isinstance(x, SparseVector):
        if x.indices.size:
            theta[x.indices] += a * x.values
    else:
        theta += a * x
    return theta


@dataclass(frozen=True)
class Sample:
    """One observation: feature vector x and scalar outcome y."""

    x: "np.ndarray | SparseVector"
    y: float

    def __post_init__(self):
        if not isinstance(self.x, SparseVector):
            x = np.asarray(self.x, dtype=np.float64)
            object.__setattr__(self, "x", x)
            if x.ndim != 1 or x.shape[0] < 1:
                raise ValueError("feature vector must be 1-d with dimension >= 1")
            if not np.isfinite(x).all():
                raise ValueError("feature vector must be finite")
        object.__setattr__(self, "y", float(self.y))
        if not math.isfinite(self.y):
            raise ValueError("outcome y must be finite")

    @property
    def dim(self) -> int:
        return self.x.dim if isinstance(self.x, SparseVector) else self.x.shape[0]
