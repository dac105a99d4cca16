"""Config-driven benchmark runner, sensitivity sweeps, and trace emission.

A benchmark config is flat ``key = value`` text (lists comma-separated,
``#`` comments allowed).  ``build_config`` alone turns keys into a run, and
``aisgd fit`` maps its flags onto the same keys.  The keys are ``CONFIG_KEYS``:
the table ``_KEYS`` plus ``lambda`` and the ``schedule.<field>`` parameters of
the kinds in ``rates.KINDS``.  A key whose ``ExperimentConfig`` field has no
default is required; CSV traces are written exactly when ``out`` is set.  Any
other key raises ``ConfigError``, so a typo such as ``eval_evry`` cannot fall
back to a default unseen.  So does a key that would go unread: ``test.path``
without ``data.path`` or beside ``test_fraction``, a ``_SYNTHETIC_ONLY`` key
beside ``data.path``, ``noise_sd`` on logistic synthetic data; so do synthetic
data that the loss cannot fit (the sign-label losses need ``task = logistic``,
poisson a file).  Accepted and unread: ``task`` beside ``data.path``, and
another schedule kind's parameters.

Every (algorithm, schedule) pair becomes one run and one CSV trace with
columns ``run_id,n,metric,diverged,wall_ms``, named by its run id; floats
carry 17 significant digits so reruns with the same seed are byte-identical
apart from wall_ms.  Two runs that would share a run id, and so a trace
file, raise ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace as dc_replace
from itertools import chain, product, repeat
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
from .solvers import ALGORITHMS, IMPLICIT, RunResult, TracePoint, _lockstep_finals, _PathRecord
from .solvers import AVERAGED, run_stream
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


# Keys that describe synthetic data alone -> their fields; SyntheticSpec holds the defaults.
_SYNTHETIC_ONLY = {"n": "n_samples", "p": "dim", "noise_sd": "noise_sd",
                   "theta_star_norm": "theta_star_norm"}


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
    noise_sd: float | None = None
    theta_star_norm: float | None = None
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
        unread = [key for key, name in _SYNTHETIC_ONLY.items() if getattr(self, name) is not None]
        if self.data_path is not None and unread:
            raise ConfigError(f"synthetic-data key(s) {', '.join(unread)} "
                              "go unread beside data.path; drop them")
        synthetic_loss = self.loss.name if self.data_path is None else None
        if synthetic_loss == "poisson":
            raise ConfigError("synthetic data have no count outcomes for the poisson loss; "
                              "give data.path")
        if synthetic_loss in _SIGN_LABEL_LOSSES and self.task != "logistic":
            raise ConfigError(f"the {synthetic_loss} loss needs +1/-1 labels; "
                              "set task = logistic for synthetic data")
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
        for key in ("theta_star_norm", "init_norm"):
            if getattr(self, key) is not None and not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0")
        if self.data_path is None:  # n, p and noise_sd: SyntheticSpec's own checks
            _synthetic_spec(self)
        if self.noise_sd is not None and self.task == "logistic":
            raise ConfigError("noise_sd goes unread on logistic synthetic data; drop it")


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
    """Flat key = value lines into a raw string mapping; a key given twice raises."""
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in s.split("=", 1))
        if key in seen:
            raise ConfigError(f"config line {lineno}: key {key!r} already set on line {seen[key]}")
        raw[key], seen[key] = value, lineno
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
    for key, (_, parse) in _KEYS.items():  # Path("") would be the working directory
        if parse is Path and key in raw and not raw[key].strip():
            raise ConfigError(f"{key} is empty; give a path")
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
    """Read a UTF-8 config file, dropping a leading byte-order mark; apply overrides; validate."""
    if not str(path).strip():  # Path("") would be the working directory
        raise ConfigError(f"config path {str(path)!r} is empty; give a file")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object holds the file's bytes after any mark
        line = len(exc.object[:exc.start + 1].splitlines())  # the bad byte breaks no line
        raise ConfigError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
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


def _synthetic_spec(config: ExperimentConfig, **given) -> SyntheticSpec:
    """A synthetic config's spec; what SyntheticSpec refuses is a ConfigError with its text."""
    if config.noise_sd is not None:
        given["noise_sd"] = config.noise_sd
    try:
        return SyntheticSpec(config.n_samples, config.dim, seed=config.seed, task=config.task,
                             **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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

    p, norm = config.dim, config.theta_star_norm
    given = {}
    if norm is not None:
        given["theta_star"] = _scaled_unit_vector(norm, config.seed, _STREAM_THETA_STAR, p)
    spec = _synthetic_spec(config, **given)
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
    overflows scores inf, as a diverged one.  ``_resolve_schedules`` calls
    this once per config, with the config's first algorithm.

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
    """The config's schedules, xu:auto calibrated on ``algorithms[0]``'s pilots for every run."""
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


def run_benchmark(config: ExperimentConfig) -> list[RunResult]:
    """One run per (algorithm, schedule); each writes a CSV trace if ``out_dir`` is set.

    Diverged runs finish with flagged rows; they never abort the batch.
    """
    return run_pairs(config, *materialize(config))


def run_pairs(config: ExperimentConfig, spec, train: Dataset,
              test: Dataset | None) -> list[RunResult]:
    """``run_benchmark`` on the data ``materialize(config)`` returned.

    Runs on one iterate path, sgd and asgd or isgd and aisgd, at one
    schedule step through the same theta.  So the config's asgd/aisgd runs
    go first: each steps its path and records theta at each evaluation row
    and at the end, and the sgd/isgd run on that path replays the record
    without a step (see ``solvers``).  Each run is still one ``run_stream``
    call and keeps its bits, and results come back, and traces are written,
    in config order.  A record holds rows x p x 8 bytes and is dropped after
    its replay; a run with no partner, as every AdaGrad run, gets none.
    """
    if config.eval_every > len(train):
        raise ConfigError("eval_every exceeds the training-set size")
    metric_name, evaluator = make_evaluator(config, spec, train, test)
    schedules = _resolve_schedules(config, train)
    positions = _eval_positions(len(train), config.eval_every, config.passes)
    # checked again here, as a calibrated eta0 may print as a listed one
    run_ids = _run_ids(config.algorithms, schedules)
    theta0 = initial_point(config, train.dim)
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)

    runs = list(product(config.algorithms, range(len(schedules))))
    paths = [None if algo == "adagrad" else (algo in IMPLICIT, j) for algo, j in runs]
    records = {path: _PathRecord() for path in paths if path is not None and paths.count(path) > 1}
    results = [None] * len(runs)
    for i in sorted(range(len(runs)), key=lambda i: runs[i][0] not in AVERAGED):
        algo, j = runs[i]
        stream = chain.from_iterable(repeat(train.samples, config.passes))
        results[i] = run_stream(
            algo, config.loss, schedules[j], stream, eval_every=config.eval_every,
            evaluator=evaluator, theta0=theta0, eval_at=positions, run_id=run_ids[i],
            _record=records.get(paths[i]),
        )
        results[i].metric_name = metric_name
        if algo not in AVERAGED:
            records.pop(paths[i], None)  # replayed: free the record
    if config.out_dir is not None:
        for result in results:
            write_trace_csv(config.out_dir / f"{result.run_id}.csv", result.trace)
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


def sensitivity_sweep(config: ExperimentConfig, axis: str, values) -> SweepResult:
    """Rerun the benchmark at each value of one hyperparameter axis.

    The data are built once and shared by every value.  The ``gamma1`` axis
    keeps the exponent of a polynomial base schedule; any other base is a
    ``ConfigError``.  With ``config.out_dir`` set, each value's traces go to
    its own subdirectory and the finals to one wide CSV; else nothing is written.
    """
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(config.schedules) != 1:
        raise ConfigError("sweeps require exactly one base schedule")

    subs = [_override_for_axis(config, axis, value) for value in values]  # validates them all first
    subdirs = [f"{axis}_{value:g}" for value in values]
    clash = sorted({d for d in subdirs if subdirs.count(d) > 1})
    if config.out_dir is not None and clash:
        raise ConfigError(f"sweep values share an output subdirectory: {', '.join(clash)}")
    data = materialize(config)  # no sweep axis touches the data
    finals = np.empty((len(values), len(config.algorithms)))
    diverged = np.zeros_like(finals, dtype=bool)
    for i, (subdir, sub) in enumerate(zip(subdirs, subs)):
        if config.out_dir is not None:
            sub = dc_replace(sub, out_dir=config.out_dir / subdir)
        results = run_pairs(sub, *data)
        by_algo = {r.algorithm: r for r in results}
        for j, algo in enumerate(config.algorithms):
            finals[i, j] = by_algo[algo].final_metric
            diverged[i, j] = by_algo[algo].diverged

    csv_path = None
    if config.out_dir is not None:
        csv_path = config.out_dir / f"sweep_{axis}.csv"
        np.savetxt(csv_path, np.column_stack([values, finals]), fmt="%.17g", delimiter=",",
                   header="value," + ",".join(config.algorithms), comments="")
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
