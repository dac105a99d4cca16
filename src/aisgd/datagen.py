"""Synthetic Gaussian-design data, ground-truth evaluators, libsvm ingestion.

The synthetic generator draws x ~ N(0, H) where H = Q diag(eigs) Q^T for a
seeded Haar-random orthogonal Q, with the harmonic spectrum eigs_k = 1/k as
the default.  Outcomes are either a noisy linear response or +/-1 labels from
a logistic model.  Everything is deterministic given the seed: the orthogonal
factor, the features, and the noise each draw from their own child stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vectors import Sample, SparseVector, dot

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
    R diagonal sign-normalized."""
    rng = np.random.default_rng([spec.seed, _STREAM_Q])
    a = rng.standard_normal((spec.dim, spec.dim))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


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


def make_normal_design(spec: SyntheticSpec) -> Dataset:
    """Generate the Gaussian stream x_n ~ N(0, H) with its outcomes."""
    q = orthogonal_factor(spec)
    rng_x = np.random.default_rng([spec.seed, _STREAM_X])
    rng_noise = np.random.default_rng([spec.seed, _STREAM_NOISE])

    z = rng_x.standard_normal((spec.n_samples, spec.dim))
    x = (z * np.sqrt(spec.eigenvalues)) @ q.T
    mean = x @ spec.theta_star
    if spec.task == "linear":
        y = mean + spec.noise_sd * rng_noise.standard_normal(spec.n_samples)
    else:
        prob = 1.0 / (1.0 + np.exp(-mean))
        y = np.where(rng_noise.uniform(size=spec.n_samples) < prob, 1.0, -1.0)

    samples = [Sample(x[i], y[i]) for i in range(spec.n_samples)]
    return Dataset(samples=samples, dim=spec.dim, spec=spec)


def shuffle_dataset(data: Dataset, seed: int) -> Dataset:
    """Seeded reordering of a finite dataset."""
    rng = np.random.default_rng([seed, _STREAM_SHUFFLE])
    order = rng.permutation(len(data))
    return Dataset([data.samples[i] for i in order], dim=data.dim, spec=data.spec)


def split_dataset(data: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Split off the trailing fraction as a test set (order preserved)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = max(1, int(round(test_fraction * len(data))))
    n_train = len(data) - n_test
    if n_train < 1:
        raise ValueError("test_fraction leaves no training data")
    mk = lambda rows: Dataset(rows, dim=data.dim, spec=data.spec)
    return mk(data.samples[:n_train]), mk(data.samples[n_train:])


class LibsvmFormatError(ValueError):
    """Malformed libsvm text, with the offending line number."""


def read_libsvm(path, *, binary: bool = True, dim: int | None = None) -> Dataset:
    """Read "<label> <idx>:<val> ..." lines into a sparse dataset.

    Indices are 1-based.  Each line is only split and converted here; its
    row is checked by ``SparseVector`` and ``Sample``: indices strictly
    increasing and in range, labels and values finite.  A bad line raises
    ``LibsvmFormatError`` naming ``path:line`` of the first bad line.  With
    ``binary=True`` labels are mapped to +1 (label > 0) or -1 (otherwise).
    The dimension is the largest index seen, or ``dim`` if larger.
    """
    path = Path(path)
    rows: list[tuple[int, float, np.ndarray, np.ndarray]] = []
    unconverted = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            pairs = [tok.partition(":") for tok in tokens[1:]]
            try:
                label = float(tokens[0])
                idx = np.array([i for i, _, _ in pairs], dtype=np.int64)
                val = np.array([v for _, _, v in pairs], dtype=np.float64)
            except (ValueError, OverflowError) as exc:
                unconverted = LibsvmFormatError(f"{path}:{lineno}: {exc}")
                break
            if binary:
                # 0*label keeps a nan or inf label non-finite for Sample to reject.
                label = (1.0 if label > 0 else -1.0) + 0.0 * label
            rows.append((lineno, label, idx, val))
    p = max([dim or 0] + [int(i[-1]) for _, _, i, _ in rows if i.size])
    # The rows read so far are checked before any later error is raised, so
    # the first bad line in the file is the one named.  Indices stay 1-based
    # until here, so that an index of -2**63 cannot wrap to a valid one.
    samples = []
    for lineno, label, idx, val in rows:
        try:
            samples.append(Sample(SparseVector(idx - 1, val, max(p, 1)), label))
        except ValueError as exc:
            raise LibsvmFormatError(f"{path}:{lineno}: {exc}") from None
    if unconverted is not None:
        raise unconverted
    if not samples:
        raise LibsvmFormatError(f"{path}: no samples")
    if p < 1:
        raise LibsvmFormatError(f"{path}: no feature indices seen and no dim given")
    return Dataset(samples=samples, dim=p)


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


def mean_loss(theta: np.ndarray, data: Dataset, loss) -> float:
    """Average loss value over a dataset at a fixed parameter."""
    total = 0.0
    for s in data:
        total += loss.value(dot(s.x, theta), s.y)
    return total / len(data)
