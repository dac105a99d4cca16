"""Feature vectors (dense or sparse) and the per-observation sample container.

Dense vectors are plain contiguous ``numpy`` arrays.  Sparse vectors are
sorted (index, value) pairs over a fixed dimension, which is how libsvm-style
text data arrives.  Both support the three primitives the solvers need:
inner product with a dense parameter vector, squared norm, and a scaled
in-place accumulation (axpy).  Rows a reader has checked in bulk are built by
one builder, ``_unchecked``, with one C-level ``map`` per slot and none per row.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np


@dataclass(frozen=True, slots=True)
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
        return float(theta[x.indices].dot(x.values))
    return float(x.dot(theta))


def sq_norm(x) -> float:
    """Squared Euclidean norm of the feature vector."""
    if isinstance(x, SparseVector):
        return float(x.values.dot(x.values))
    return float(np.dot(x, x))


def add_scaled(theta: np.ndarray, a: float, x) -> np.ndarray:
    """In-place theta += a * x; returns theta."""
    if isinstance(x, SparseVector):
        theta[x.indices] += a * x.values
    else:
        theta += a * x
    return theta


@dataclass(frozen=True, slots=True)
class Sample:
    """One observation: feature vector x, scalar outcome y, and c = ||x||^2.

    The data enter an implicit update only through x.theta and ||x||^2, and
    x never changes, so ``c`` is computed once, as ``sq_norm(x)``, when the
    sample is built (or rebuilt by ``dataclasses.replace``).  It is not a
    constructor argument, and ``==`` and ``repr`` ignore it.  A finite x
    whose ||x||^2 overflows float64 raises ``ValueError``.
    """

    x: "np.ndarray | SparseVector"
    y: float
    c: float = field(init=False, repr=False, compare=False)

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
        with np.errstate(over="ignore"):
            c = sq_norm(self.x)
        if c == math.inf:  # no step, explicit or implicit, can use this row
            raise ValueError("squared feature norm overflows float64")
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.x.dim if isinstance(self.x, SparseVector) else self.x.shape[0]


def _unchecked(cls, n: int, **columns) -> list:
    """``n`` bare ``cls`` instances, each slot filled from its column by one ``map`` of
    the slot descriptor's ``__set__``, skipping ``__post_init__``: only for rows checked
    in bulk, and a ``Sample``'s ``c`` must equal ``sq_norm(x)``."""
    rows = list(map(object.__new__, repeat(cls, n)))
    for name, column in columns.items():
        deque(map(getattr(cls, name).__set__, rows, column), maxlen=0)
    return rows
