"""Runs that share an iterate path are stepped once.

``run_pairs`` groups a config's runs by iterate path (sgd with asgd, isgd
with aisgd) and schedule, and runs a config's asgd/aisgd runs first.  The
averaged run of a group steps the path and records theta at each evaluation
row and at the end; the plain run replays that record without a step,
whatever the config order.  Every run must still report what a lone
``run_stream`` reports, to the bit.
Also here: a frozen run no longer computes its rate, and the benchmark
harness still sees one ``run_stream`` call per reported run.
"""

import json
import os
import subprocess
import sys
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from aisgd import ConstantRate, Sample, SquaredLoss, SyntheticSpec, build_config, run_stream
from aisgd import experiments, losses, rates, solvers
from aisgd.datagen import make_normal_design
from aisgd.vectors import SparseVector

ROOT = Path(__file__).resolve().parents[1]

# trace(H) of stability.cfg's design: p = 20, covariance spectrum 1/k
R2 = float(np.sum(1.0 / np.arange(1, 21)))

LINEAR = {"task": "linear", "loss": "squared", "schedule.kind": "polynomial",
          "schedule.gamma1": "0.3", "schedule.exponent": "0.6", "n": "400", "p": "8",
          "init_norm": "1.0", "eval_every": "40", "seed": "3"}
CLASSIFY = {**LINEAR, "task": "logistic", "theta_star_norm": "5.0", "test_fraction": "0.25",
            "schedule.gamma1": "2.0", "init_norm": "0.0"}
STABILITY = {"task": "linear", "loss": "squared", "schedule.kind": "constant",
             "schedule.gamma": repr(2.0 / R2), "n": "2000", "p": "20", "noise_sd": "1.0",
             "init_norm": "1.0", "eval_every": "20", "seed": "20"}


def _config(base, **keys):
    return build_config({**base, **{k: str(v) for k, v in keys.items()}})


def _lone_runs(config, data):
    """Each run of the config as one ``run_stream`` call without a record, by run id."""
    spec, train, test = data
    _, evaluator = experiments.make_evaluator(config, spec, train, test)
    schedules = experiments._resolve_schedules(config, train)
    positions = experiments._eval_positions(len(train), config.eval_every, config.passes)
    theta0 = experiments.initial_point(config, train.dim)
    runs = {}
    for algo, schedule in product(config.algorithms, schedules):
        stream = [s for _ in range(config.passes) for s in train]
        run = run_stream(algo, config.loss, schedule, stream, config.eval_every, evaluator,
                         theta0=theta0, eval_at=positions)
        runs[f"{algo}-{schedule.label()}"] = run
    return runs


def _fingerprint(run):
    rows = [(pt.n, pt.diverged, float(pt.metric).hex()) for pt in run.trace]
    return rows, run.state.theta.tobytes(), run.state.theta_bar.tobytes()


def _role(before, after, rows):
    """What a call did with its record, from the record's (rows, filled) around the call."""
    if before is None:
        return None
    if before == (0, False) and after == (rows, True):
        return "records"
    if before == after == (0, False):
        return "unused"
    if before[1] and after == before:
        return "replays"
    return before, after


def _paired(config, monkeypatch, data=None):
    """run_pairs' results, checked run by run against lone runs, and each call's record.

    Each call is (algorithm, role, partner): ``role`` says whether the call
    filled its record with one row per evaluation row and the final state
    ("records"), read a filled one ("replays"), left it empty ("unused") or
    had none; ``partner`` is the earlier call given the same record object.
    A record must be freed once its group's last run returns.
    """
    data = data or experiments.materialize(config)
    calls, refs, live = [], [], []
    real = experiments.run_stream

    def recording(algorithm, loss, schedule, stream, eval_every, evaluator, **kwargs):
        record = kwargs["_record"]
        live.append([k for k, ref in enumerate(refs) if ref is not None and ref() is not None])
        partner = next((k for k in live[-1] if refs[k]() is record), None)
        before = None if record is None else (len(record.rows), record.final is not None)
        result = real(algorithm, loss, schedule, stream, eval_every, evaluator, **kwargs)
        after = None if record is None else (len(record.rows), record.final is not None)
        calls.append((algorithm, _role(before, after, len(result.trace)), partner))
        refs.append(None if record is None else weakref.ref(record))
        return result

    with np.errstate(over="ignore", invalid="ignore"):
        with monkeypatch.context() as m:
            m.setattr(experiments, "run_stream", recording)
            results = experiments.run_pairs(config, *data)
        lone = _lone_runs(config, data)
    assert [r.run_id for r in results] == list(lone)
    for result in results:
        assert _fingerprint(result) == _fingerprint(lone[result.run_id]), result.run_id
    # a record lives from its group's first call through its last, and no longer
    groups = [(k, j) for j, (_, _, k) in enumerate(calls) if k is not None]
    assert [set(k) for k in live] == [{k for k, j in groups if k < i <= j}
                                      for i in range(len(calls))]
    assert all(ref is None or ref() is None for ref in refs)
    return results, calls


class TestSharedRecordKeepsEveryBit:
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("base, loss", [(LINEAR, "squared"), (CLASSIFY, "logistic"),
                                            (CLASSIFY, "hinge:0.5")])
    def test_every_run_matches_its_lone_run(self, base, loss, lam, monkeypatch):
        config = _config(base, loss=loss, **{"lambda": lam},
                         algorithms="aisgd, sgd, adagrad, isgd, asgd")
        _, calls = _paired(config, monkeypatch)
        # aisgd and asgd step and record; sgd and isgd replay them; adagrad has no record
        assert calls == [("aisgd", "records", None), ("asgd", "records", None),
                         ("sgd", "replays", 1), ("adagrad", None, None), ("isgd", "replays", 0)]

    def test_a_replaying_run_freezes_on_the_recorded_step(self, monkeypatch):
        # at 2/R^2 explicit ASGD blows up within the first thousand samples
        config = _config(STABILITY, algorithms="asgd, sgd", eval_every=1)
        results, calls = _paired(config, monkeypatch)
        first = [[pt.diverged for pt in r.trace].index(True) + 1 for r in results]
        assert first[0] == first[1] < 1000
        # the record holds a row per sample, frozen ones included
        assert calls == [("asgd", "records", None), ("sgd", "replays", 0)]

    def test_two_passes(self, monkeypatch):
        config = _config(LINEAR, algorithms="isgd, sgd, aisgd, asgd", passes=2)
        results, calls = _paired(config, monkeypatch)
        assert results[0].state.n == 800
        assert [r.state.n for r in results] == [800] * 4
        assert calls == [("aisgd", "records", None), ("asgd", "records", None),
                         ("isgd", "replays", 0), ("sgd", "replays", 1)]

    def test_members_apart_in_config_order(self, monkeypatch):
        # stability.cfg's order: each rate's aisgd run records, its isgd run replays
        rates = ", ".join(repr(k / R2) for k in (0.5, 1.0, 2.0))
        config = _config(STABILITY, n=600, algorithms="aisgd, asgd, isgd",
                         **{"schedule.gamma": rates})
        results, calls = _paired(config, monkeypatch)
        assert calls == ([("aisgd", "records", None)] * 3 + [("asgd", None, None)] * 3
                         + [("isgd", "replays", j) for j in range(3)])

    def test_two_schedules(self, monkeypatch):
        config = _config(CLASSIFY, algorithms="sgd, isgd, asgd, aisgd",
                         **{"lambda": 1e-4, "schedule.gamma1": "1.0, 4.0"})
        _, calls = _paired(config, monkeypatch)
        # runs in order: asgd-1, asgd-4, aisgd-1, aisgd-4, sgd-1, sgd-4, isgd-1, isgd-4
        assert [c[2] for c in calls] == [None] * 4 + [0, 1, 2, 3]
        assert [c[1] for c in calls] == ["records"] * 4 + ["replays"] * 4

    def test_sparse_rows_leave_the_record_unused(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        lines = []
        for _ in range(300):
            idx = np.sort(rng.choice(500, size=6, replace=False)) + 1
            y = "+1" if rng.uniform() < 0.5 else "-1"
            pairs = zip(idx, rng.uniform(0.2, 1.0, 6))
            lines.append(y + "".join(f" {i}:{v:.6g}" for i, v in pairs))
        path = tmp_path / "train.svm"
        path.write_text("\n".join(lines) + "\n")
        raw = {k: v for k, v in CLASSIFY.items() if k not in ("n", "p", "theta_star_norm")}
        config = _config(raw, algorithms="aisgd, sgd, isgd, asgd",
                         **{"data.path": path, "lambda": 1e-3})
        _, calls = _paired(config, monkeypatch)
        # the scaled sparse iterate computes every step and neither reads nor fills the record
        assert calls == [("aisgd", "unused", None), ("asgd", "unused", None),
                         ("sgd", "unused", 1), ("isgd", "unused", 0)]


class TestOneSolvePerStep:
    def test_implicit_pair_solves_each_step_once(self, monkeypatch):
        config = _config(LINEAR, algorithms="isgd, aisgd")
        data = experiments.materialize(config)
        solves = []
        solve = solvers.solve_fixed_point
        monkeypatch.setattr(solvers, "solve_fixed_point",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        experiments.run_pairs(config, *data)
        assert len(solves) == 400  # not 800: isgd replays aisgd's roots

    def test_explicit_pair_takes_each_derivative_once(self, monkeypatch):
        config = _config(LINEAR, algorithms="asgd, sgd")
        data = experiments.materialize(config)
        derivs = []
        deriv = losses.SquaredLoss.deriv
        monkeypatch.setattr(losses.SquaredLoss, "deriv",
                            lambda self, u, y: derivs.append(1) or deriv(self, u, y))
        experiments.run_pairs(config, *data)
        assert len(derivs) == 400


def _counting_rate(monkeypatch):
    """The n of each schedule's ``rate`` call, whatever the schedule's kind."""
    steps = []
    for kind in (rates.ConstantRate, rates.PolynomialRate, rates.XuRate):
        rate = kind.rate
        monkeypatch.setattr(kind, "rate", lambda s, n, rate=rate: steps.append(n) or rate(s, n))
    return steps


class TestFrozenRunsSkipTheRate:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_no_rate_after_the_freeze(self, sparse, monkeypatch):
        data = make_normal_design(SyntheticSpec(n_samples=300, dim=10, seed=4))
        if sparse:
            data = [Sample(SparseVector(np.arange(10), s.x, 10), s.y) for s in data]
        kwargs = dict(eval_every=1, evaluator=lambda th: float(th @ th), theta0=np.full(10, 0.1))
        with np.errstate(over="ignore", invalid="ignore"):
            plain = run_stream("sgd", SquaredLoss(), ConstantRate(5.0), data, **kwargs)
            steps = _counting_rate(monkeypatch)
            counted = run_stream("sgd", SquaredLoss(), ConstantRate(5.0), data, **kwargs)
        assert _fingerprint(counted) == _fingerprint(plain)
        # the first flagged row is the last step taken; no later sample asks for its rate
        last = [pt.diverged for pt in counted.trace].index(True) + 1
        assert 1 < last < 300
        assert steps == list(range(1, last + 1))


class TestReplayMakesNoStep:
    PAIRS = ["sgd, asgd", "asgd, sgd", "isgd, aisgd", "aisgd, isgd"]

    @pytest.mark.parametrize("algorithms", PAIRS)
    def test_one_rate_per_step_of_the_path(self, algorithms, monkeypatch):
        config = _config(LINEAR, algorithms=algorithms)
        data = experiments.materialize(config)
        steps = _counting_rate(monkeypatch)
        experiments.run_pairs(config, *data)
        assert steps == list(range(1, 401))  # not twice over: the replaying run steps no sample

    @pytest.mark.parametrize("algorithms", PAIRS)
    def test_a_replaying_run_takes_no_sample(self, algorithms, monkeypatch):
        config = _config(LINEAR, algorithms=algorithms, passes=2)
        data = experiments.materialize(config)
        taken, averaging = {}, []
        real = experiments.run_stream
        average_update = solvers._average_update

        def counting(algorithm, loss, schedule, stream, *args, **kwargs):
            taken[algorithm] = 0

            def items():
                for sample in stream:
                    taken[algorithm] += 1
                    yield sample
            return real(algorithm, loss, schedule, items(), *args, **kwargs)

        def spy(theta_bar, theta, n, ws):
            averaging.append(next(reversed(taken)))  # the run now in progress
            average_update(theta_bar, theta, n, ws)

        monkeypatch.setattr(experiments, "run_stream", counting)
        monkeypatch.setattr(solvers, "_average_update", spy)
        results = experiments.run_pairs(config, *data)
        averaged, plain = sorted(taken, key=lambda a: a not in solvers.AVERAGED)
        # whatever the config order, the averaged run steps the path and the plain run replays it
        assert taken == {averaged: 800, plain: 0}
        assert averaging == [averaged] * 800  # no plain run averages
        assert [r.state.n for r in results] == [800, 800]

    @pytest.mark.parametrize("first, second", [("sgd", "asgd"), ("asgd", "sgd"),
                                               ("isgd", "aisgd"), ("aisgd", "isgd")])
    def test_a_group_shares_no_array(self, first, second):
        data = make_normal_design(SyntheticSpec(n_samples=200, dim=6, seed=5))
        kwargs = dict(eval_every=50, evaluator=lambda th: float(th @ th), theta0=np.full(6, 0.2))
        record = solvers._PathRecord()
        results = [run_stream(algo, SquaredLoss(), ConstantRate(0.05), data, **kwargs,
                              _record=record) for algo in (first, second)]
        arrays = [[r.state.theta, r.state.theta_bar] for r in results]
        assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
        kept = [a.tobytes() for a in arrays[1]]
        for a in arrays[0]:
            a[:] = np.nan
        assert [a.tobytes() for a in arrays[1]] == kept


HARNESS_SCRIPT = """
import json
import sys
from pathlib import Path

import child

h = child.Harness(Path(".").resolve().parent, traced=False, probe="cpu")
from aisgd import build_config, experiments, solvers

solves = []
solve = solvers.solve_fixed_point
solvers.solve_fixed_point = lambda *a, **k: solves.append(1) or solve(*a, **k)
config = build_config(json.loads(sys.argv[1]))
results = experiments.run_benchmark(config)
print(json.dumps({"results": [[r.algorithm, r.state.n] for r in results],
                  "runs": [[algo, n, main] for _, algo, n, main in h.runs],
                  "solves": len(solves)}))
"""


def test_harness_counts_one_run_stream_call_per_reported_run():
    # perfbench/child.py wraps experiments.run_stream as
    # run_stream(algorithm, loss, schedule, data, eval_every, evaluator, **kwargs)
    # and credits result.state.n samples to each call: the record must pass
    # through that wrapper, and each reported run must be one call.
    raw = {**LINEAR, "algorithms": "sgd, isgd, asgd, aisgd, adagrad", "passes": "2"}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", HARNESS_SCRIPT, json.dumps(raw)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(out["runs"]) == sorted([algo, n, True] for algo, n in out["results"])
    assert [n for _, n in out["results"]] == [800] * 5
    assert out["solves"] == 800  # isgd replayed aisgd's record through the wrapper
