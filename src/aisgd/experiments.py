"""Config-driven benchmark runner, sensitivity sweeps, and trace emission.

A benchmark config is flat ``key = value`` text (lists comma-separated,
``#`` comments allowed).  ``build_config`` alone turns keys into a run, and
``aisgd fit`` maps its flags onto the same keys.  The keys are ``CONFIG_KEYS``:
the table ``_KEYS`` plus ``lambda`` and the ``schedule.<field>`` parameters of
the kinds in ``rates.KINDS``.  A key whose ``ExperimentConfig`` field has no
default is required; ``out`` is needed only where CSV traces are written.  Any
other key raises ``ConfigError``, so a typo such as ``eval_evry`` cannot fall
back to a default unseen.  So does ``test.path`` without ``data.path`` or
beside ``test_fraction``, where one of them would go unread.

Every (algorithm, schedule) pair becomes one run and one CSV trace with
columns ``run_id,n,metric,diverged,wall_ms``, named by its run id; floats
carry 17 significant digits so reruns with the same seed are byte-identical
apart from wall_ms.  Two runs that would share a run id, and so a trace
file, raise ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace as dc_replace
from itertools import product
from pathlib import Path

import numpy as np

from .datagen import (
    Dataset,
    SyntheticSpec,
    _loss_function,
    _widened,
    excess_risk,
    make_normal_design,
    read_libsvm,
    shuffle_dataset,
    split_dataset,
)
from .losses import GlmLoss, loss_from_name
from .rates import KINDS, ConstantRate, LearningRate, PolynomialRate, XuRate, param_names
from .solvers import ALGORITHMS, RunResult, TracePoint, _lockstep_finals, run_stream
# dot is unused here but stays importable: perfbench/child.py times experiments.dot.
from .vectors import SparseVector, dot  # noqa: F401

XU_AUTO = "xu:auto"

# Child-stream tags for seed-derived direction vectors.
_STREAM_THETA_STAR = 10
_STREAM_THETA0 = 11
_STREAM_CALIBRATE = 12

SWEEP_AXES = ("lambda", "gamma_constant", "gamma1", "eta0")

# Losses whose labels are +1/-1: libsvm labels are mapped to signs for them,
# and their runs report classification error.
_SIGN_LABEL_LOSSES = frozenset({"logistic", "hinge"})


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Everything one benchmark invocation needs; fields without a default are required."""

    task: str
    algorithms: list[str]
    loss: GlmLoss
    schedules: list  # LearningRate entries, or the XU_AUTO sentinel
    seed: int
    out_dir: Path | None = None
    n_samples: int | None = None
    dim: int | None = None
    data_path: Path | None = None
    test_path: Path | None = None
    test_fraction: float | None = None
    passes: int = 1
    eval_every: int = 1000
    noise_sd: float = 1.0
    theta_star_norm: float = 0.0
    init_norm: float = 0.0

    def __post_init__(self):
        if self.task not in ("linear", "logistic"):
            raise ConfigError("task must be 'linear' or 'logistic'")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {a!r}; valid: {', '.join(ALGORITHMS)}"
                )
        if not self.schedules:
            raise ConfigError("at least one learning-rate schedule is required")
        if self.data_path is None and (self.n_samples is None or self.dim is None):
            raise ConfigError("either data.path or both n and p are required")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.test_path is not None and self.data_path is None:
            raise ConfigError("test.path needs data.path; synthetic data take test_fraction")
        if self.test_path is not None and self.test_fraction is not None:
            raise ConfigError("test.path and test_fraction each set the test set; give one")
        _run_ids(self.algorithms, self.schedules)
        for key in ("noise_sd", "theta_star_norm", "init_norm"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")


def _run_ids(algorithms, schedules) -> list[str]:
    """Each run's id, in run order, naming its CSV trace; an id two runs share is a ConfigError."""
    ids = [f"{a}-{s if s == XU_AUTO else s.label()}" for a, s in product(algorithms, schedules)]
    shared = sorted({i for i in ids if ids.count(i) > 1})
    if shared:
        raise ConfigError(f"runs would share a trace file: {', '.join(shared)}")
    return ids


def _split_list(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


# Config key -> (ExperimentConfig field, parser of the key's text).  "loss" is
# parsed together with "lambda", and "schedule.kind" with its parameters.
_KEYS = {
    "task": ("task", str.lower),
    "algorithms": ("algorithms", lambda v: [a.lower() for a in _split_list(v)]),
    "loss": ("loss", None),
    "schedule.kind": ("schedules", None),
    "seed": ("seed", int),
    "out": ("out_dir", Path),
    "n": ("n_samples", int),
    "p": ("dim", int),
    "data.path": ("data_path", Path),
    "test.path": ("test_path", Path),
    "test_fraction": ("test_fraction", float),
    "passes": ("passes", int),
    "eval_every": ("eval_every", int),
    "noise_sd": ("noise_sd", float),
    "theta_star_norm": ("theta_star_norm", float),
    "init_norm": ("init_norm", float),
}
_REQUIRED_FIELDS = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
_REQUIRED = [key for key, (name, _) in _KEYS.items() if name in _REQUIRED_FIELDS]

CONFIG_KEYS = frozenset(_KEYS) | {"lambda"} | {
    f"schedule.{f.name}" for cls in KINDS.values() for f in fields(cls)
}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = s.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _schedules_from_raw(raw: dict[str, str]) -> list:
    """One schedule per combination of the kind's comma-separated parameter lists."""
    kind = raw["schedule.kind"]
    names = param_names(kind)
    lists = [_split_list(raw.get(f"schedule.{name}", "")) for name in names]
    missing = [f"schedule.{name}" for name, values in zip(names, lists) if not values]
    if missing:
        raise ConfigError(f"{kind} schedules need {' and '.join(missing)}")
    cls = KINDS[kind.lower()]
    return [XU_AUTO if cls is XuRate and texts == ("auto",) else cls(*map(float, texts))
            for texts in product(*lists)]


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Raw key/value strings into a validated ExperimentConfig."""
    unknown = sorted(raw.keys() - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    try:
        values = {name: parse(raw[key]) for key, (name, parse) in _KEYS.items()
                  if parse is not None and key in raw}
        lam = {"lam": float(raw["lambda"])} if "lambda" in raw else {}
        return ExperimentConfig(
            loss=loss_from_name(raw["loss"], **lam),
            schedules=_schedules_from_raw(raw),
            **values,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a config file, apply flag overrides, validate."""
    text = Path(path).read_text(encoding="utf-8")
    raw = parse_config_text(text)
    if overrides:
        raw.update(overrides)
    return build_config(raw)


def _unit_vector(seed: int, tag: int, p: int) -> np.ndarray:
    rng = np.random.default_rng([seed, tag])
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def _scaled_unit_vector(norm: float, seed: int, tag: int, p: int) -> np.ndarray:
    """``norm`` times a seeded random unit vector; zeros when ``norm`` is 0."""
    return norm * _unit_vector(seed, tag, p) if norm else np.zeros(p)


def _error_function(evalset: Dataset):
    """theta -> fraction of samples with sign(x.theta) != y; sign(0) counts as +1.

    The design is stacked once: a dense matrix, or for sparse samples their
    concatenated indices and values with each entry's row number, so every
    margin comes out of one numpy pass.
    """
    xs = [s.x for s in evalset]
    y = np.array([s.y for s in evalset])
    if all(isinstance(x, SparseVector) for x in xs):
        rows = np.repeat(np.arange(len(xs)), [x.indices.size for x in xs])
        cols = np.concatenate([x.indices for x in xs])
        vals = np.concatenate([x.values for x in xs])

        def margins(th):
            return np.bincount(rows, weights=th[cols] * vals, minlength=len(xs))
    else:
        x = np.stack([x.toarray() if isinstance(x, SparseVector) else x for x in xs])

        def margins(th):
            return x @ th

    return lambda th: float(np.mean(np.where(margins(th) >= 0.0, 1.0, -1.0) != y))


def classification_error(theta: np.ndarray, test: Dataset) -> float:
    """Fraction of samples with sign(x.theta) != y; sign(0) counts as +1."""
    return _error_function(test)(theta)


def materialize(config: ExperimentConfig):
    """The synthetic spec (if any), train and test sets of a config.

    Each libsvm file is read once.  A test file wider than the train file
    has the train rows rebuilt at its dimension, so both sets share one.
    """
    if config.data_path is not None:
        binary = config.loss.name in _SIGN_LABEL_LOSSES
        train = read_libsvm(config.data_path, binary=binary)
        test = None
        if config.test_path is not None:
            test = read_libsvm(config.test_path, binary=binary, dim=train.dim)
            if test.dim > train.dim:
                train = _widened(train, test.dim)
        elif config.test_fraction is not None:
            train, test = split_dataset(train, config.test_fraction)
        return None, train, test

    p = config.dim
    spec = SyntheticSpec(
        n_samples=config.n_samples,
        dim=p,
        theta_star=_scaled_unit_vector(config.theta_star_norm, config.seed, _STREAM_THETA_STAR, p),
        noise_sd=config.noise_sd,
        seed=config.seed,
        task=config.task,
    )
    full = make_normal_design(spec)
    if config.test_fraction is not None:
        train, test = split_dataset(full, config.test_fraction)
    else:
        train, test = full, None
    return spec, train, test


def initial_point(config: ExperimentConfig, dim: int) -> np.ndarray:
    """The seeded starting point of norm ``init_norm``, or zeros."""
    return _scaled_unit_vector(config.init_norm, config.seed, _STREAM_THETA0, dim)


def make_evaluator(config: ExperimentConfig, spec, train: Dataset, test: Dataset | None):
    """The metric name and function for a run: excess risk, else test/train error or loss."""
    if spec is not None and config.task == "linear":
        return "excess_risk", lambda th: excess_risk(th, spec)
    evalset = test if test is not None else train
    name = "test" if test is not None else "train"
    if config.loss.name in _SIGN_LABEL_LOSSES:
        return f"{name}_error", _error_function(evalset)
    return f"{name}_loss", _loss_function(evalset, config.loss)


def calibrate_eta0(train: Dataset, loss: GlmLoss, algorithm: str, seed: int) -> float:
    """Pick eta0 for the xu schedule from a small deterministic pilot run.

    Candidates 2**k / R2hat for k = -6..4, where R2hat is the mean squared
    feature norm of a held-out-seed subset; each candidate trains for
    min(1000, N/10) iterations and the lowest finite mean training loss on
    the subset wins, the smaller eta0 on a tie.  A pilot whose estimate
    overflows scores inf, as a diverged one.

    Dense sgd/isgd/asgd/aisgd pilots step in lockstep, to the bit of one
    ``run_stream`` each (see ``solvers._lockstep_finals``); sparse subsets
    and adagrad run one ``run_stream`` per candidate.  Overflow and invalid
    value warnings are silenced here, where a diverged pilot is expected;
    main runs keep theirs, since a user's evaluator runs inside them.
    """
    n_cal = min(1000, max(1, len(train) // 10))
    rows = shuffle_dataset(train, seed + _STREAM_CALIBRATE).samples[:n_cal]
    r2_hat = float(np.mean([s.c for s in rows]))
    if r2_hat <= 0:
        raise ConfigError("cannot calibrate eta0: all-zero features")
    schedules = [XuRate(2.0**k / r2_hat) for k in range(-6, 5)]
    evaluator = _loss_function(rows, loss)
    with np.errstate(invalid="ignore", over="ignore"):
        if algorithm != "adagrad" and not any(isinstance(s.x, SparseVector) for s in rows):
            finals = _lockstep_finals(algorithm, loss, schedules, rows, evaluator)
        else:
            finals = [run_stream(algorithm, loss, s, rows, eval_every=n_cal,
                                 evaluator=evaluator).final_metric for s in schedules]
    finite = [(final, s.eta0) for s, final in zip(schedules, finals) if math.isfinite(final)]
    if not finite:
        raise ConfigError("eta0 calibration failed: every pilot run diverged")
    return min(finite)[1]


def _resolve_schedules(config: ExperimentConfig, train: Dataset) -> list[LearningRate]:
    resolved = []
    for sched in config.schedules:
        if sched == XU_AUTO:
            eta0 = calibrate_eta0(train, config.loss, config.algorithms[0], config.seed)
            resolved.append(XuRate(eta0))
        else:
            resolved.append(sched)
    return resolved


def _eval_positions(n_train: int, eval_every: int, passes: int) -> set[int]:
    # ceil(n_train / eval_every) rows per pass: every multiple of eval_every
    # within the pass, plus the pass end.
    positions: set[int] = set()
    for k in range(passes):
        base = k * n_train
        positions.update(base + j for j in range(eval_every, n_train + 1, eval_every))
        positions.add(base + n_train)
    return positions


def write_trace_csv(path, trace: list[TracePoint]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("run_id,n,metric,diverged,wall_ms\n")
        for pt in trace:
            fh.write(
                f"{pt.run_id},{pt.n},{pt.metric:.17g},"
                f"{'true' if pt.diverged else 'false'},{pt.wall_ms:.3f}\n"
            )


def run_benchmark(config: ExperimentConfig, *, write_csv: bool = True) -> list[RunResult]:
    """One run per (algorithm, schedule), each with its own CSV trace.

    Diverged runs finish with flagged rows; they never abort the batch.
    """
    if write_csv and config.out_dir is None:
        raise ConfigError("an output directory is required to write CSV traces")
    return run_pairs(config, *materialize(config), write_csv=write_csv)


def run_pairs(config: ExperimentConfig, spec, train: Dataset, test: Dataset | None, *,
              write_csv: bool = True) -> list[RunResult]:
    """``run_benchmark`` on the data ``materialize(config)`` returned."""
    if config.eval_every > len(train):
        raise ConfigError("eval_every exceeds the training-set size")
    metric_name, evaluator = make_evaluator(config, spec, train, test)
    schedules = _resolve_schedules(config, train)
    positions = _eval_positions(len(train), config.eval_every, config.passes)
    # checked again here, as a calibrated eta0 may print as a listed one
    run_ids = _run_ids(config.algorithms, schedules)
    theta0 = initial_point(config, train.dim)
    if write_csv:
        config.out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for run_id, (algo, sched) in zip(run_ids, product(config.algorithms, schedules)):
        stream = (s for _ in range(config.passes) for s in train)
        result = run_stream(
            algo,
            config.loss,
            sched,
            stream,
            eval_every=config.eval_every,
            evaluator=evaluator,
            theta0=theta0,
            eval_at=positions,
            run_id=run_id,
        )
        result.metric_name = metric_name
        if write_csv:
            write_trace_csv(config.out_dir / f"{run_id}.csv", result.trace)
        results.append(result)
    return results


def _override_for_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "lambda":
        return dc_replace(config, loss=dc_replace(config.loss, lam=value))
    if axis == "gamma_constant":
        return dc_replace(config, schedules=[ConstantRate(value)])
    if axis == "gamma1":
        base = config.schedules[0]
        if not isinstance(base, PolynomialRate):
            kind = base if base == XU_AUTO else "/".join(
                k for k, cls in KINDS.items() if cls is type(base)
            )
            raise ConfigError(f"the gamma1 axis needs a polynomial base schedule, not {kind}")
        return dc_replace(config, schedules=[PolynomialRate(value, base.exponent)])
    if axis == "eta0":
        return dc_replace(config, schedules=[XuRate(value)])
    raise ConfigError(f"unknown sweep axis {axis!r}; valid: {', '.join(SWEEP_AXES)}")


@dataclass
class SweepResult:
    """Final metric per (axis value, algorithm), with divergence flags."""

    axis: str
    values: list[float]
    algorithms: list[str]
    finals: np.ndarray
    diverged: np.ndarray
    csv_path: Path | None = None

    def spread(self, algorithm: str) -> float:
        """max - min of the final metric across the sweep for one algorithm."""
        col = self.finals[:, self.algorithms.index(algorithm)]
        return float(np.max(col) - np.min(col))


def sensitivity_sweep(
    config: ExperimentConfig, axis: str, values, *, write_csv: bool = True
) -> SweepResult:
    """Rerun the benchmark at each value of one hyperparameter axis.

    The data are built once and shared by every value.  The ``gamma1`` axis
    keeps the exponent of a polynomial base schedule; any other base is a
    ``ConfigError``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid: {', '.join(SWEEP_AXES)}")
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(config.schedules) != 1:
        raise ConfigError("sweeps require exactly one base schedule")
    if write_csv and config.out_dir is None:
        raise ConfigError("an output directory is required to write CSV traces")

    subs = [_override_for_axis(config, axis, value) for value in values]  # validates them all first
    subdirs = [f"{axis}_{value:g}" for value in values]
    clash = sorted({d for d in subdirs if subdirs.count(d) > 1})
    if write_csv and clash:
        raise ConfigError(f"sweep values share an output subdirectory: {', '.join(clash)}")
    data = materialize(config)  # no sweep axis touches the data
    finals = np.empty((len(values), len(config.algorithms)))
    diverged = np.zeros_like(finals, dtype=bool)
    for i, (subdir, sub) in enumerate(zip(subdirs, subs)):
        if write_csv:
            sub = dc_replace(sub, out_dir=config.out_dir / subdir)
        results = run_pairs(sub, *data, write_csv=write_csv)
        by_algo = {r.algorithm: r for r in results}
        for j, algo in enumerate(config.algorithms):
            finals[i, j] = by_algo[algo].final_metric
            diverged[i, j] = by_algo[algo].diverged

    csv_path = None
    if write_csv:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = config.out_dir / f"sweep_{axis}.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            fh.write("value," + ",".join(config.algorithms) + "\n")
            for i, value in enumerate(values):
                row = ",".join(f"{finals[i, j]:.17g}" for j in range(len(config.algorithms)))
                fh.write(f"{value:.17g},{row}\n")
    return SweepResult(
        axis=axis,
        values=values,
        algorithms=list(config.algorithms),
        finals=finals,
        diverged=diverged,
        csv_path=csv_path,
    )


def fit_loglog_slope(trace, window_fraction: float = 0.5) -> float:
    """OLS slope of log(metric) vs log(n) over the trailing window.

    Needs at least 10 finite points in the window; finite non-positive
    metrics are an error since their log is undefined.
    """
    if isinstance(trace, RunResult):
        trace = trace.trace
    pts = list(trace)
    if not 0.0 < window_fraction < 1.0:
        raise ValueError("window_fraction must lie in (0, 1)")
    k = max(1, math.ceil(len(pts) * window_fraction))
    xs, ys = [], []
    for pt in pts[-k:]:
        if not math.isfinite(pt.metric):
            continue
        if pt.metric <= 0:
            raise ValueError("non-positive metric in slope window")
        xs.append(math.log(pt.n))
        ys.append(math.log(pt.metric))
    if len(xs) < 10:
        raise ValueError("need at least 10 finite trace points in the window")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
