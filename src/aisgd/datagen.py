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
from itertools import islice
from pathlib import Path

import numpy as np

from .vectors import Sample, SparseVector, _unchecked, dot
from .vectors import _unchecked_samples, _unchecked_vectors

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
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if self.task not in ("linear", "logistic"):
            raise ValueError("task must be 'linear' or 'logistic'")
        ts = self.theta_star
        ts = np.zeros(self.dim) if ts is None else np.asarray(ts, dtype=np.float64)
        if ts.shape != (self.dim,):
            raise ValueError("theta_star has wrong dimension")
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
    The functions below skip that check (the ``_unchecked`` builders of
    ``vectors``) for rows they checked in bulk or took from a checked
    ``Dataset``.
    """

    samples: list[Sample]
    dim: int
    spec: SyntheticSpec | None = None

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
    -1.0, rather than one per row.
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
        prob = 1.0 / (1.0 + np.exp(-mean))
        y = rng_noise.uniform(size=spec.n_samples) < prob
        labels = _sign_labels(y)

    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        for xi, yi in zip(x, labels):
            Sample(xi, yi)  # the first bad row raises its own error
    # Row by row x.x on the dot kernel of np.dot(xi, xi), so each c equals sq_norm(xi).
    c = (x[:, None, :] @ x[:, :, None]).ravel()
    samples = _unchecked_samples(x, labels, c.tolist())
    return _unchecked(Dataset, samples=samples, dim=spec.dim, spec=spec)


def shuffle_dataset(data: Dataset, seed: int) -> Dataset:
    """Seeded reordering of a finite dataset."""
    rng = np.random.default_rng([seed, _STREAM_SHUFFLE])
    order = rng.permutation(len(data))
    samples = [data.samples[i] for i in order]
    return _unchecked(Dataset, samples=samples, dim=data.dim, spec=data.spec)


def split_dataset(data: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Split off the trailing fraction as a test set (order preserved)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = max(1, int(round(test_fraction * len(data))))
    n_train = len(data) - n_test
    if n_train < 1:
        raise ValueError("test_fraction leaves no training data")
    mk = lambda rows: _unchecked(Dataset, samples=rows, dim=data.dim, spec=data.spec)
    return mk(data.samples[:n_train]), mk(data.samples[n_train:])


class LibsvmFormatError(ValueError):
    """Malformed libsvm text, with the offending line number."""


_CHUNK_LINES = 64  # lines converted at once: keeps the reader's working memory flat
_PAIR = np.dtype([("i", np.int64), ("v", np.float64)])


def _tokenize(lines):
    """(line offset, label token, rest of line) of each non-blank, non-comment line."""
    split = [(k, line.split(None, 1)) for k, line in enumerate(lines)]
    return [(k, t[0], t[1] if len(t) > 1 else "") for k, t in split if t and not t[0].startswith("#")]


def _bulk_rows(rows, binary: bool):
    """(0-based indices, values, label, ||x||^2) of each row, converted and checked
    as whole-chunk arrays, each row a view into them; None if any check fails.

    The pair tokens, split as the checked scan splits them, go one per line to
    ``np.loadtxt``: only "<int64>:<float>" lines, floats read as ``float()``
    reads them, and ``comments=None``, so "#" is no comment.
    """
    pairs = " ".join([rest for _, _, rest in rows]).split()
    try:
        y = np.array([label for _, label, _ in rows], dtype=np.float64)
        table = np.empty(0, _PAIR)
        if pairs:  # loadtxt warns on empty input
            table = np.loadtxt(pairs, dtype=_PAIR, comments=None, delimiter=":", ndmin=1)
    except ValueError:
        return None
    idx, val = table["i"], table["v"]
    counts = [rest.count(":") for _, _, rest in rows]
    row = np.repeat(np.arange(len(rows)), counts)
    increasing = (idx[1:] > idx[:-1]) | (row[1:] != row[:-1])
    # idx >= 1 is tested before the shift to 0-based, where -2**63 would wrap.
    if not (np.isfinite(y).all() and np.isfinite(val).all() and (idx >= 1).all() and increasing.all()):
        return None
    labels = _sign_labels(y > 0) if binary else y.tolist()
    idx, val = idx - 1, val.copy()  # contiguous: v.dot(v) on a strided view has other bits
    ends = np.cumsum(counts).tolist()
    bounds = list(zip([0] + ends, ends))
    vals = [val[a:b] for a, b in bounds]
    with np.errstate(over="ignore"):
        cs = [float(v.dot(v)) for v in vals]  # sq_norm of each row, without the type dispatch
    if math.inf in cs:  # the checked scan names the line whose ||x||^2 overflows
        return None
    return list(zip([idx[a:b] for a, b in bounds], vals, labels, cs))


def _checked_rows(rows, binary: bool, path, first: int):
    """The rows of ``_bulk_rows``, each converted alone and checked by the
    ``SparseVector`` and ``Sample`` constructors and for a finite ||x||^2;
    the first bad line raises."""
    out = []
    for k, label, rest in rows:
        split = [tok.partition(":") for tok in rest.split()]
        try:
            label = float(label)
            idx = np.array([i for i, _, _ in split], dtype=np.int64)
            val = np.array([v for _, _, v in split], dtype=np.float64)
            # 0*label keeps a nan or inf label non-finite for Sample to reject.
            label = (1.0 if label > 0 else -1.0) + 0.0 * label if binary else label
            # 1-based until here: an index of -2**63 wraps to 2**63-1, which no dim admits.
            with np.errstate(over="ignore"):
                s = Sample(SparseVector(idx - 1, val, 2**63 - 1), label)
            if s.c == math.inf:
                raise ValueError("squared feature norm overflows float64")
        except (ValueError, OverflowError) as exc:
            raise LibsvmFormatError(f"{path}:{first + k}: {exc}") from None
        out.append((s.x.indices, s.x.values, s.y, s.c))
    return out


def _first_undecodable_line(path: Path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8 (0 if none).

    Lines are split as the reader splits them; a byte that does not decode
    comes back as a lone surrogate, which does not encode."""
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for k, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return k
    return 0


def read_libsvm(path, *, binary: bool = True, dim: int | None = None) -> Dataset:
    """Read "<label> <idx>:<val> ..." lines into a sparse dataset.

    Indices are 1-based.  Each chunk of ``_CHUNK_LINES`` lines is converted
    in bulk, its pairs by one ``np.loadtxt`` call that takes only "<idx>:<val>"
    tokens, and checked: indices >= 1 and strictly increasing within a row,
    labels, values and each row's ||x||^2 finite.  A chunk that fails is
    scanned again line by line through the ``SparseVector`` and ``Sample``
    constructors, so a bad file raises ``LibsvmFormatError`` naming
    ``path:line`` of its first bad line; a file that is not valid UTF-8 names
    its first line that does not decode.  With ``binary=True`` labels are
    mapped to +1 (label > 0) or -1 (otherwise).  The dimension is the largest
    index seen, or ``dim`` if larger.
    """
    path = Path(path)
    rows, first = [], 1
    try:
        with path.open("r", encoding="utf-8") as fh:
            while lines := list(islice(fh, _CHUNK_LINES)):
                chunk = _tokenize(lines)
                bulk = _bulk_rows(chunk, binary)
                rows += _checked_rows(chunk, binary, path, first) if bulk is None else bulk
                first += len(lines)
    except UnicodeDecodeError as exc:
        line = _first_undecodable_line(path)
        raise LibsvmFormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    if not rows:
        raise LibsvmFormatError(f"{path}: no samples")
    p = max([dim or 0] + [int(i[-1]) + 1 for i, _, _, _ in rows if i.size])
    if p < 1:
        raise LibsvmFormatError(f"{path}: no feature indices seen and no dim given")
    indices, values, labels, cs = zip(*rows)
    samples = _unchecked_samples(_unchecked_vectors(indices, values, p), labels, cs)
    return _unchecked(Dataset, samples=samples, dim=p, spec=None)


def _widened(data: Dataset, dim: int) -> Dataset:
    """The sparse ``data`` at ``dim`` >= ``data.dim``: same arrays, labels and ``c``."""
    xs = _unchecked_vectors([s.x.indices for s in data], [s.x.values for s in data], dim)
    samples = _unchecked_samples(xs, [s.y for s in data], [s.c for s in data])
    return _unchecked(Dataset, samples=samples, dim=dim, spec=data.spec)


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
