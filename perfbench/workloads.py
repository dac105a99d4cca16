"""The benchmark's workloads: seeded inputs and the checks their traces must pass.

Each workload is one or more ``aisgd bench`` configs written from the seed.
The package sees only these files; it never sees the seed directly except as
the config's own ``seed`` key.  ``scale`` shrinks the sample counts for the
self-test; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRACE_HEADER = "run_id,n,metric,diverged,wall_ms"

# Relative tolerance for metric values against the stored reference traces:
# far below any effect of a wrong solve, far above a last-bit change in a root.
REFERENCE_RTOL = 1e-6

DENSE_P = 20
# trace(H) for the 1/k spectrum at p = 20, so gamma1 = 1/R^2 as in stability.cfg.
DENSE_R2 = float(np.sum(1.0 / np.arange(1, DENSE_P + 1)))
INIT_NORM = 1.0

SPARSE_P = 100_000
SPARSE_DRAWS = 30  # index draws per row; duplicates merge, so nnz is about 30
SPARSE_HEAD = 100  # theta_star is supported on the most frequent indices
SPARSE_SIGNAL = 10.0


@dataclass(frozen=True)
class BenchConfig:
    """One ``aisgd bench`` invocation of a workload and what its runs must produce."""

    name: str
    path: Path
    algorithms: tuple[str, ...]
    samples: int  # samples each run streams
    eval_rows: int  # trace rows each run writes


def _write_config(path: Path, keys: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def _dense_linear(seed: int, inputs: Path, scale: float) -> list[BenchConfig]:
    n = round(10_000 * scale)
    eval_every = n // 20
    algorithms = ("sgd", "isgd", "asgd", "aisgd", "adagrad")
    path = inputs / "linear.cfg"
    _write_config(path, {
        "task": "linear",
        "algorithms": ", ".join(algorithms),
        "loss": "squared",
        "schedule.kind": "polynomial",
        "schedule.gamma1": repr(1.0 / DENSE_R2),
        "schedule.exponent": repr(2.0 / 3.0),
        "n": n,
        "p": DENSE_P,
        "noise_sd": 1.0,
        "init_norm": INIT_NORM,
        "eval_every": eval_every,
        "seed": seed,
        "out": "unset",
    })
    return [BenchConfig("linear", path, algorithms, n, math.ceil(n / eval_every))]


def _dense_classify(seed: int, inputs: Path, scale: float) -> list[BenchConfig]:
    n = round(8_000 * scale)
    n_train = n - max(1, round(0.25 * n))
    eval_every = n_train // 12
    algorithms = ("aisgd", "isgd", "asgd", "sgd")
    configs = []
    for name, loss in (("logistic", "logistic"), ("hinge", "hinge:0.5")):
        path = inputs / f"{name}.cfg"
        _write_config(path, {
            "task": "logistic",
            "algorithms": ", ".join(algorithms),
            "loss": loss,
            "lambda": 1e-4,
            "schedule.kind": "xu",
            "schedule.eta0": "auto",
            "n": n,
            "p": DENSE_P,
            "theta_star_norm": 10.0,
            "test_fraction": 0.25,
            "eval_every": eval_every,
            "seed": seed,
            "out": "unset",
        })
        configs.append(
            BenchConfig(name, path, algorithms, n_train, math.ceil(n_train / eval_every))
        )
    return configs


def write_sparse_libsvm(seed: int, path: Path, n_rows: int, *, stream: int) -> None:
    """Seeded libsvm rows with heavy-tailed feature indices and logistic labels.

    Index j (0-based) is drawn with probability proportional to 1/(j+1), so
    the head coordinates recur across rows while the tail spans all of p.
    Labels follow a logistic model on the head coordinates, so the task is
    learnable.  Row 0 of every file carries index p, which fixes the
    dimension the package infers.
    """
    weights = 1.0 / np.arange(1, SPARSE_P + 1)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    theta_star = np.zeros(SPARSE_P)
    theta_star[:SPARSE_HEAD] = SPARSE_SIGNAL * np.random.default_rng([seed, 0]).standard_normal(
        SPARSE_HEAD
    )
    rng = np.random.default_rng([seed, stream])
    lines = []
    for i in range(n_rows):
        idx = np.unique(np.searchsorted(cdf, rng.random(SPARSE_DRAWS)))
        if i == 0:
            idx = np.union1d(idx, [SPARSE_P - 1])
        val = np.round(rng.uniform(0.5, 1.5, idx.size) / math.sqrt(SPARSE_DRAWS), 6)
        margin = float(val @ theta_star[idx])
        y = 1 if rng.random() < 1.0 / (1.0 + math.exp(-margin)) else -1
        lines.append(f"{y} " + " ".join(f"{j + 1}:{v:.6g}" for j, v in zip(idx, val)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sparse_libsvm(seed: int, inputs: Path, scale: float) -> list[BenchConfig]:
    n_train = round(3_000 * scale)
    n_test = round(1_000 * scale)
    eval_every = n_train // 6
    train, test = inputs / "train.svm", inputs / "test.svm"
    write_sparse_libsvm(seed, train, n_train, stream=1)
    write_sparse_libsvm(seed, test, n_test, stream=2)
    algorithms = ("aisgd", "sgd")
    path = inputs / "sparse.cfg"
    _write_config(path, {
        "task": "logistic",
        "algorithms": ", ".join(algorithms),
        "loss": "logistic",
        "lambda": 1e-5,
        "schedule.kind": "polynomial",
        "schedule.gamma1": 16.0,
        "schedule.exponent": repr(2.0 / 3.0),
        "data.path": train.resolve(),
        "test.path": test.resolve(),
        "eval_every": eval_every,
        "seed": seed,
        "out": "unset",
    })
    return [BenchConfig("sparse", path, algorithms, n_train, math.ceil(n_train / eval_every))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str  # "linear" or "classify": selects the seed-independent final check
    # The probe task whose slowdowns this workload's steps share: "cpu" for
    # interpreter-bound steps, "memory" for steps dominated by O(p) array passes.
    probe: str
    writer: Callable[[int, Path, float], list[BenchConfig]]

    def write_inputs(self, seed: int, inputs: Path, scale: float = 1.0) -> list[BenchConfig]:
        inputs.mkdir(parents=True, exist_ok=True)
        return self.writer(seed, inputs, scale)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-linear",
            "p=20 squared loss, all five algorithms: implicit steps are solver-bound, "
            "explicit steps are bookkeeping-bound",
            "linear",
            "cpu",
            _dense_linear,
        ),
        Workload(
            "dense-classify",
            "p=20 logistic and smoothed-hinge runs with xu:auto: the solver dominates, "
            "and hinge takes the zero-step shortcut and has kinks",
            "classify",
            "cpu",
            _dense_classify,
        ),
        Workload(
            "sparse-libsvm",
            "parsed libsvm files at p=1e5 with about 30 nonzeros per row: "
            "O(p) bookkeeping dominates and solver gains barely show",
            "classify",
            "memory",
            _sparse_libsvm,
        ),
    )
}


def read_trace(path: Path) -> list[tuple[str, int, float, bool]]:
    """CSV trace rows as (run_id, n, metric, diverged); wall_ms is dropped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        run_id, n, metric, diverged, _wall = line.split(",")
        if diverged not in ("true", "false"):
            raise ValueError(f"{path.name}: bad diverged flag {diverged!r}")
        rows.append((run_id, int(n), float(metric), diverged == "true"))
    return rows


def write_reference(rows, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("run_id,n,metric,diverged\n")
        for run_id, n, metric, diverged in rows:
            fh.write(f"{run_id},{n},{metric!r},{'true' if diverged else 'false'}\n")


def read_reference(path: Path) -> list[tuple[str, int, float, bool]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    out = []
    for line in lines:
        run_id, n, metric, diverged = line.split(",")
        out.append((run_id, int(n), float(metric), diverged == "true"))
    return out


def check_run(
    workload: Workload, cfg: BenchConfig, algo: str, out_dir: Path, reference: Path | None
) -> str | None:
    """Check one run's CSV trace; returns the failure reason, or None if it passes.

    The checks hold for every seed; with ``reference`` (a directory of stored
    traces for this config) the rows must also match it: n and diverged
    exactly, metric to REFERENCE_RTOL on rows that did not diverge.
    """
    found = sorted(out_dir.glob(f"{algo}-*.csv"))
    if len(found) != 1:
        return f"{cfg.name}/{algo}: expected one trace, found {len(found)}"
    path = found[0]
    try:
        rows = read_trace(path)
    except (OSError, ValueError) as exc:
        return f"{cfg.name}/{algo}: unreadable trace: {exc}"
    ns = [r[1] for r in rows]
    if len(rows) != cfg.eval_rows or ns != sorted(set(ns)) or ns[-1] != cfg.samples:
        return f"{cfg.name}/{algo}: {len(rows)} rows ending at n={ns[-1] if ns else None}"
    if any(not d and not math.isfinite(m) for _, _, m, d in rows):
        return f"{cfg.name}/{algo}: non-finite metric on a row not flagged diverged"
    if algo == "aisgd":
        if any(d for *_, d in rows):
            return f"{cfg.name}/aisgd diverged"
        final = rows[-1][2]
        # theta_star = 0 and H >= I/p, so the initial excess risk is at least
        # init_norm^2 / p; ending below that means ending below the start.
        limit = INIT_NORM**2 / DENSE_P if workload.task == "linear" else 0.5
        if not final < limit:
            return f"{cfg.name}/aisgd final metric {final!r} not below {limit!r}"
    if reference is not None:
        ref_path = reference / path.with_suffix(".ref").name
        if not ref_path.exists():
            return f"{cfg.name}/{algo}: no reference trace {ref_path.name}"
        ref = read_reference(ref_path)
        if [(r[0], r[1], r[3]) for r in rows] != [(r[0], r[1], r[3]) for r in ref]:
            return f"{cfg.name}/{algo}: n or diverged differ from the reference"
        for (_, n, m, d), (_, _, m_ref, _) in zip(rows, ref):
            if not d and not math.isclose(m, m_ref, rel_tol=REFERENCE_RTOL, abs_tol=1e-300):
                return f"{cfg.name}/{algo}: metric at n={n} is {m!r}, reference {m_ref!r}"
    return None
