"""Synthetic Gaussian-design data, ground-truth evaluators, libsvm ingestion.

The synthetic generator draws x ~ N(0, H) where H = Q diag(eigs) Q^T for a
seeded Haar-random orthogonal Q, with the harmonic spectrum eigs_k = 1/k as
the default.  Outcomes are either a noisy linear response or +/-1 labels from
a logistic model.  Everything is deterministic given the seed: the orthogonal
factor, the features, and the noise each draw from their own child stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .vectors import Sample, SparseVector, _unchecked, dot

# Child-stream tags so each random ingredient is independent of the others.
_STREAM_Q = 0
_STREAM_X = 1
_STREAM_NOISE = 2
_STREAM_SHUFFLE = 3


def harmonic_eigenvalues(p: int) -> np.ndarray:
    """Spectrum 1, 1/2, ..., 1/p."""
    return 1.0 / np.arange(1, p + 1)


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth description of a synthetic streaming task."""

    n_samples: int
    dim: int
    theta_star: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    noise_sd: float = 1.0
    seed: int = 0
    task: str = "linear"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension p must be >= 1")
        if self.n_samples < 1:
            raise ValueError("sample count must be >= 1")
        if not math.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be finite")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if self.task not in ("linear", "logistic"):
            raise ValueError("task must be 'linear' or 'logistic'")
        ts = self.theta_star
        ts = np.zeros(self.dim) if ts is None else np.asarray(ts, dtype=np.float64)
        if ts.shape != (self.dim,):
            raise ValueError("theta_star has wrong dimension")
        if not np.isfinite(ts).all():
            raise ValueError("theta_star must be finite")
        object.__setattr__(self, "theta_star", ts)
        ev = self.eigenvalues
        ev = harmonic_eigenvalues(self.dim) if ev is None else np.asarray(ev, dtype=np.float64)
        if ev.shape != (self.dim,) or not np.all(ev > 0):
            raise ValueError("eigenvalues must be dim positive reals")
        object.__setattr__(self, "eigenvalues", ev)


def orthogonal_factor(spec: SyntheticSpec) -> np.ndarray:
    """Seeded Haar-random orthogonal Q: QR of a Gaussian matrix with the
    R diagonal sign-normalized.  Computed once per (seed, dim); read-only."""
    return _orthogonal_factor(spec.seed, spec.dim)


@lru_cache(maxsize=8)
def _orthogonal_factor(seed: int, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng([seed, _STREAM_Q]).standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    q.flags.writeable = False
    return q


def covariance(spec: SyntheticSpec) -> np.ndarray:
    """The design covariance H = Q diag(eigs) Q^T."""
    q = orthogonal_factor(spec)
    return (q * spec.eigenvalues) @ q.T


def trace_radius(spec: SyntheticSpec) -> float:
    """trace(H): the mean squared feature norm of the design."""
    return float(np.sum(spec.eigenvalues))


def excess_risk(theta: np.ndarray, spec: SyntheticSpec) -> float:
    """Quadratic form (theta - theta_star)^T H (theta - theta_star)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.dim,):
        raise ValueError("theta has wrong dimension for this spec")
    v = orthogonal_factor(spec).T @ (theta - spec.theta_star)
    return float(np.sum(spec.eigenvalues * v * v))


@dataclass
class Dataset:
    """An ordered collection of samples sharing one dimension.

    Each ``Sample`` checked its own row when built; here only dimensions are.
    The functions below skip that check (``_trusted_dataset``, and the one
    row builder ``vectors._unchecked``, with no Python frame per row) for rows
    they checked in bulk or took from a checked ``Dataset``.  A synthetic
    spec is not kept: ``materialize`` returns it.
    """

    samples: list[Sample]
    dim: int

    def __post_init__(self):
        for s in self.samples:
            if s.dim != self.dim:
                raise ValueError("all samples must share the dataset dimension")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i) -> Sample:
        return self.samples[i]


def _trusted_dataset(samples: list[Sample], dim: int) -> Dataset:
    """A ``Dataset`` of rows known to have dimension ``dim``, without the per-row check."""
    data = object.__new__(Dataset)
    data.samples, data.dim = samples, dim
    return data


_SIGNS = (-1.0, 1.0)


def _sign_labels(positive: np.ndarray) -> list[float]:
    """1.0 where ``positive`` holds, else -1.0: every row shares one of two float objects."""
    return list(map(_SIGNS.__getitem__, positive.tolist()))


def make_normal_design(spec: SyntheticSpec) -> Dataset:
    """Generate the Gaussian stream x_n ~ N(0, H) with its outcomes.

    The dataset keeps one n x p array x, whose rows are the samples'
    feature vectors, beside the per-row objects.  The standard normal draws
    are scaled in place and dropped once x is formed, so building it peaks
    at two n x p arrays.  Logistic labels share two float objects, +1.0 and
    -1.0, rather than one per row.  Every row's ||x||^2 comes from one
    ``np.vecdot``, and a finite one implies a finite row; if one is not, or
    an outcome is not finite, the first bad row raises its ``Sample``'s error.
    """
    q = orthogonal_factor(spec)
    rng_x = np.random.default_rng([spec.seed, _STREAM_X])
    rng_noise = np.random.default_rng([spec.seed, _STREAM_NOISE])

    z = rng_x.standard_normal((spec.n_samples, spec.dim))
    z *= np.sqrt(spec.eigenvalues)
    x = z @ q.T
    del z
    mean = x @ spec.theta_star
    if spec.task == "linear":
        y = mean + spec.noise_sd * rng_noise.standard_normal(spec.n_samples)
        labels = y.tolist()
    else:
        with np.errstate(over="ignore"):  # exp overflows to inf below a margin of about -709
            prob = 1.0 / (1.0 + np.exp(-mean))
        y = rng_noise.uniform(size=spec.n_samples) < prob
        labels = _sign_labels(y)

    with np.errstate(over="ignore"):
        c = np.vecdot(x, x)  # a BLAS ddot per row, as np.dot(xi, xi): each c equals sq_norm(xi)
    if not (np.isfinite(c).all() and np.isfinite(y).all()):
        list(map(Sample, x, labels))  # the first bad row raises its own error
    return _trusted_dataset(_unchecked(Sample, len(x), x=x, y=labels, c=c.tolist()), spec.dim)


def shuffle_dataset(data: Dataset, seed: int) -> Dataset:
    """Seeded reordering of a finite dataset."""
    rng = np.random.default_rng([seed, _STREAM_SHUFFLE])
    order = rng.permutation(len(data))
    return _trusted_dataset(list(map(data.samples.__getitem__, order.tolist())), data.dim)


def split_dataset(data: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Split off the trailing fraction as a test set (order preserved)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = max(1, int(round(test_fraction * len(data))))
    n_train = len(data) - n_test
    if n_train < 1:
        raise ValueError("test_fraction leaves no training data")
    rows = data.samples
    return _trusted_dataset(rows[:n_train], data.dim), _trusted_dataset(rows[n_train:], data.dim)


class LibsvmFormatError(ValueError):
    """Malformed libsvm text, with the offending line number."""


_CHUNK_LINES = 64  # lines converted at once: keeps the reader's working memory flat
_PAIR = np.dtype([("i", np.int64), ("v", np.float64)])


def _tokenize(lines):
    """(line offset, ``line.split()``) of each non-blank, non-comment line."""
    split = [(k, line.split()) for k, line in enumerate(lines)]
    return [(k, t) for k, t in split if t and not t[0].startswith("#")]


def _bulk_rows(rows, binary: bool):
    """Columns of each row's 0-based indices, values, label and ||x||^2, converted
    and checked as whole-chunk arrays, each row a view into them, then the largest
    1-based index (0 if none); None if any check fails.

    Each token after a label goes as one line to ``np.loadtxt``, which takes only
    "<int64>:<float>" lines, floats read as ``float()`` reads them, and
    ``comments=None``, so "#" is no comment: a row has one pair per token.
    """
    pairs = list(chain.from_iterable(t[1:] for _, t in rows))
    try:
        y = np.array([t[0] for _, t in rows], dtype=np.float64)
        table = np.empty(0, _PAIR)
        if pairs:  # loadtxt warns on empty input
            table = np.loadtxt(pairs, dtype=_PAIR, comments=None, delimiter=":", ndmin=1)
    except ValueError:
        return None
    idx, val = table["i"], table["v"]
    counts = [len(t) - 1 for _, t in rows]
    row = np.repeat(np.arange(len(rows)), counts)
    increasing = (idx[1:] > idx[:-1]) | (row[1:] != row[:-1])
    # idx >= 1 is tested before the shift to 0-based, where -2**63 would wrap.
    if not (np.isfinite(y).all() and np.isfinite(val).all() and (idx >= 1).all() and increasing.all()):
        return None
    labels = _sign_labels(y > 0) if binary else y.tolist()
    top = int(idx.max(initial=0))
    idx, val = idx - 1, val.copy()  # contiguous: v.dot(v) on a strided view has other bits
    ends = np.cumsum(counts).tolist()
    cuts = list(map(slice, [0] + ends, ends))
    vals = list(map(val.__getitem__, cuts))
    with np.errstate(over="ignore"):
        cs = list(map(float, map(np.ndarray.dot, vals, vals)))  # each row's sq_norm, undispatched
    if math.inf in cs:  # the checked scan names the line whose ||x||^2 overflows
        return None
    return list(map(idx.__getitem__, cuts)), vals, labels, cs, top


def _checked_rows(rows, binary: bool, path, first: int):
    """The columns of ``_bulk_rows``, each row converted alone and checked by
    the ``SparseVector`` and ``Sample`` constructors; the first bad line raises."""
    out = []
    for k, t in rows:
        split = [tok.partition(":") for tok in t[1:]]
        try:
            label = float(t[0])
            idx = np.array([i for i, _, _ in split], dtype=np.int64)
            val = np.array([v for _, _, v in split], dtype=np.float64)
            # 0*label keeps a nan or inf label non-finite for Sample to reject.
            label = (1.0 if label > 0 else -1.0) + 0.0 * label if binary else label
            # 1-based until here: an index of -2**63 wraps to 2**63-1, which no dim admits.
            s = Sample(SparseVector(idx - 1, val, 2**63 - 1), label)
        except (ValueError, OverflowError) as exc:
            raise LibsvmFormatError(f"{path}:{first + k}: {exc}") from None
        out.append((s.x.indices, s.x.values, s.y, s.c))
    top = max([int(i[-1]) + 1 for i, _, _, _ in out if i.size], default=0)
    return *(zip(*out) if out else [()] * 4), top


def _first_undecodable(lines):
    """(offset, reason) of the first of ``lines`` that is not valid UTF-8, else
    (len(lines), None).  Lines read with ``errors="surrogateescape"`` encode
    back to their bytes; only a non-ASCII line can fail the strict decode."""
    for k, line in enumerate(lines):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return k, exc.reason
    return len(lines), None


def read_libsvm(path, *, binary: bool = True, dim: int | None = None) -> Dataset:
    """Read "<label> <idx>:<val> ..." lines into a sparse dataset.

    Indices are 1-based.  Each line is split on whitespace once, into its label
    and pair tokens.  Each chunk of ``_CHUNK_LINES`` lines is converted in
    bulk, its pairs by one ``np.loadtxt`` call that takes only "<idx>:<val>"
    tokens, and checked: indices >= 1 and strictly increasing within a row,
    labels, values and each row's ||x||^2 finite.  A chunk that fails is
    scanned again line by line through the ``SparseVector`` and ``Sample``
    constructors, after a test that its lines are UTF-8.  So one pass raises
    ``LibsvmFormatError`` naming ``path:line`` of the file's first bad line,
    whichever check fails, and a line that is not UTF-8 with the decoder's
    reason.  A UTF-8 byte-order mark that opens the file is dropped; one
    anywhere else is a bad line.  With ``binary=True`` labels are mapped to +1
    (label > 0) or -1 (otherwise).  The dimension is the largest index of any
    chunk, or ``dim`` if larger.
    """
    path = Path(path)
    chunks, first = [], 1
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        while lines := list(islice(fh, _CHUNK_LINES)):
            good, reason = _first_undecodable(lines)
            chunk = _tokenize(lines[:good])
            chunks.append(_bulk_rows(chunk, binary) or _checked_rows(chunk, binary, path, first))
            del chunk  # its tokens are dropped once converted, not kept through the assembly
            if reason is not None:
                raise LibsvmFormatError(f"{path}:{first + good}: not valid UTF-8 ({reason})")
            first += len(lines)
    n = sum(len(part[2]) for part in chunks)
    if not n:
        raise LibsvmFormatError(f"{path}: no samples")
    *columns, tops = zip(*chunks)
    p = max(dim or 0, *tops)
    if p < 1:
        raise LibsvmFormatError(f"{path}: no feature indices seen and no dim given")
    return _sparse_dataset(n, p, *map(chain.from_iterable, columns))


def _sparse_dataset(n: int, dim: int, indices, values, labels, cs) -> Dataset:
    """``n`` sparse rows over ``dim`` from checked columns, without a per-row check."""
    xs = _unchecked(SparseVector, n, indices=indices, values=values, dim=repeat(dim, n))
    return _trusted_dataset(_unchecked(Sample, n, x=xs, y=labels, c=cs), dim)


def _widened(data: Dataset, dim: int) -> Dataset:
    """The sparse ``data`` at ``dim`` >= ``data.dim``: same arrays, labels and ``c``."""
    rows = map(attrgetter("x.indices", "x.values", "y", "c"), data.samples)
    return _sparse_dataset(len(data), dim, *zip(*rows))


def write_libsvm(data: Dataset, path) -> None:
    """Write a dataset in libsvm text form (values with 17 significant digits)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in data:
            y = s.y
            head = f"{int(y):d}" if float(y).is_integer() else f"{y:.17g}"
            if isinstance(s.x, SparseVector):
                pairs = zip(s.x.indices, s.x.values)
            else:
                pairs = ((i, v) for i, v in enumerate(s.x) if v != 0.0)
            body = " ".join(f"{int(i) + 1}:{v:.17g}" for i, v in pairs)
            fh.write(f"{head} {body}".rstrip() + "\n")


def _loss_function(evalset, loss):
    """theta -> mean of ``loss.value`` over the samples, or inf where a predictor is not finite.

    Dense rows are stacked once, and each call takes every predictor x.theta
    from one ``np.vecdot``, which makes each row's BLAS ``ddot`` as ``dot``
    does; a set with sparse rows keeps one ``dot`` per row.  The values are
    summed one by one in sample order, so the mean has the bits of the plain
    loop.  A predictor that is not finite, from an overflowed estimate, has
    no loss value: the mean is inf, and the products' warnings are silenced.
    """
    xs, ys = [s.x for s in evalset], [s.y for s in evalset]
    value, n = loss.value, len(ys)
    if any(isinstance(x, SparseVector) for x in xs):
        def predictors(theta):
            return [dot(x, theta) for x in xs]
    else:
        design = np.stack(xs)

        def predictors(theta):
            return np.vecdot(design, theta).tolist()

    def mean(theta) -> float:
        with np.errstate(invalid="ignore", over="ignore"):
            us = predictors(theta)
        if not all(map(math.isfinite, us)):
            return math.inf
        total = 0.0
        for u, y in zip(us, ys):
            total += value(u, y)
        return total / n

    return mean


def mean_loss(theta: np.ndarray, data: Dataset, loss) -> float:
    """Average loss value over a dataset at a fixed parameter; inf at a non-finite predictor."""
    return _loss_function(data, loss)(theta)
