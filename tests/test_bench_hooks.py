"""Guard for the benchmark's traced hooks (perfbench/child.py).

The traced benchmark replaces package attributes by timed wrappers: among
them ``solvers.solve_fixed_point`` and every loss class's ``deriv``.  If a
wrapped name disappears, or the hot loop stops calling a wrapped function,
the per-layer solver metrics go silent.  This test builds the traced harness
in a subprocess, as the benchmark does, and checks that every implicit step
of a short dense and sparse run passes through the wrapped solver, with one
checked ``deriv`` call per solve, that every dense run reaches the wrapped
``solvers.is_diverged``, and that a sparse and a dense
``materialize`` still record the setup spans (libsvm parsing, design
generation and splitting).  A second test checks that the solver layers
read what the solver does: one iteration per squared-loss solve, and only
zero-iteration solves in hinge runs whose every step is a zero-step.  A
third checks that the ``xu:auto`` pilots, which step in lockstep over dense
data, still send every step through the wrapped solver.  All three only
read from perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import tempfile
from pathlib import Path

import numpy as np

import child

h = child.Harness(Path(".").resolve().parent, traced=True, probe="cpu")
from aisgd import ConstantRate, LogisticLoss, Sample, SparseVector, solvers

rng = np.random.default_rng(0)
n, dim = 40, 12
dense = [Sample(rng.standard_normal(dim), 1.0 if i % 3 else -1.0) for i in range(n)]
sparse = [Sample(SparseVector(np.array([1, 5, 9]), s.x[[1, 5, 9]], dim), s.y) for s in dense]
counts = []
for data in (dense, sparse):
    before = len(h.iterations)
    solvers.run_stream("isgd", LogisticLoss(), ConstantRate(0.5), data, n, lambda th: 0.0)
    counts.append(len(h.iterations) - before)
exact_tests = {}
for algorithm in solvers.ALGORITHMS:
    before = h.rec.spans_named("solvers.is_diverged").size
    solvers.run_stream(algorithm, LogisticLoss(), ConstantRate(0.5), dense, n, lambda th: 0.0)
    exact_tests[algorithm] = int(h.rec.spans_named("solvers.is_diverged").size - before)
from aisgd import experiments
with tempfile.TemporaryDirectory() as tmp:
    svm = Path(tmp) / "train.svm"
    svm.write_text("+1 1:0.5 3:1\\n-1 2:2\\n+1 4:1\\n-1 1:1 2:1\\n")
    base = {"task": "logistic", "algorithms": "aisgd", "loss": "logistic", "seed": "1",
            "schedule.kind": "const", "schedule.gamma": "0.1", "test_fraction": "0.25", "out": tmp}
    for extra in ({"data.path": str(svm)}, {"n": "40", "p": "3"}):
        experiments.materialize(experiments.build_config({**base, **extra}))
layers, calls = h.layer_metrics()
setup = ("datagen.read_libsvm", "datagen.make_normal_design", "datagen.split_dataset")
print(json.dumps({"n": n, "counts": counts, "exact_tests": exact_tests,
                  "calls_per_solve": layers["losses.deriv.calls_per_solve"],
                  "setup_calls": [calls.get(name, 0) for name in setup],
                  "setup_s": [layers[f"{name}.s"] for name in setup],
                  "read_mb_per_s": layers["datagen.read_libsvm.mb_per_s"]}))
"""


def test_traced_harness_sees_every_implicit_step():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["counts"] == [result["n"], result["n"]]
    assert result["calls_per_solve"] == 1.0
    # Every dense run reaches the wrapped divergence test: adagrad at every
    # step and evaluation, the others only while their norm bound is loose.
    exact = result["exact_tests"]
    assert exact.pop("adagrad") == result["n"] + 1
    assert all(1 <= calls < result["n"] for calls in exact.values()), exact
    assert result["setup_calls"] == [1, 1, 2]
    assert all(t > 0 for t in result["setup_s"])
    assert result["read_mb_per_s"] > 0


SOLVER_LAYERS_SCRIPT = """
import json
from pathlib import Path

import numpy as np

import child

h = child.Harness(Path(".").resolve().parent, traced=True, probe="cpu")
from aisgd import ConstantRate, Sample, SmoothedHingeLoss, SquaredLoss, solvers

rng = np.random.default_rng(1)
n, dim = 40, 12
xs = rng.standard_normal((n, dim))
signs = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
# y * x[0] >= 1, so theta0 = +-2 e_0 puts every margin at >= 2 or <= -2; the
# other features are small, so the linear-piece run's steps keep margins < 0.
xs[:, 0] = signs * (1.0 + np.abs(xs[:, 0]))
xs[:, 1:] *= 1e-3
e0 = np.eye(dim)[0]
runs = {
    "squared": (SquaredLoss(), [Sample(x, 3.0 * z) for x, z in zip(xs, rng.standard_normal(n))],
                0.05, None),
    # g = 0 at every margin >= 1: the step from u = 0 is never taken
    "hinge-flat": (SmoothedHingeLoss(), [Sample(x, s) for x, s in zip(xs, signs)], 0.01, 2.0 * e0),
    # g = y on the linear piece, so each first Newton step lands on b and stays there
    "hinge-linear": (SmoothedHingeLoss(), [Sample(x, s) for x, s in zip(xs, signs)], 0.01, -2.0 * e0),
}
out = {}
for name, (loss, data, gamma, theta0) in runs.items():
    h.iterations.clear()
    solvers.run_stream("isgd", loss, ConstantRate(gamma), data, n, lambda th: 0.0, theta0=theta0)
    layers, _ = h.layer_metrics()
    out[name] = {"solves": len(h.iterations),
                 **{k: layers[f"solvers.fixed_point.{k}"] for k in ("iters_mean", "zero_frac")}}
print(json.dumps({"n": n, "runs": out}))
"""


def test_traced_solver_layers_count_evaluations_after_zero():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", SOLVER_LAYERS_SCRIPT],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    runs = result["runs"]
    assert all(run["solves"] == result["n"] for run in runs.values()), runs
    # squared loss: one Newton step from u = 0 is the root
    assert runs["squared"]["iters_mean"] == 1.0
    assert runs["squared"]["zero_frac"] == 0.0
    # hinge zero-steps: a zero gradient, or a first step onto b itself, counts 0
    for name in ("hinge-flat", "hinge-linear"):
        assert runs[name]["zero_frac"] == 1.0, runs[name]
        assert runs[name]["iters_mean"] == 0.0, runs[name]


CALIBRATION_SCRIPT = """
import json
from pathlib import Path

import numpy as np

import child

h = child.Harness(Path(".").resolve().parent, traced=True, probe="cpu")
from aisgd import LogisticLoss, SyntheticSpec, experiments, make_normal_design

spec = SyntheticSpec(n_samples=400, dim=8, seed=4, task="logistic", theta_star=np.full(8, 0.5))
train = make_normal_design(spec)
experiments.calibrate_eta0(train, LogisticLoss(), "aisgd", 4)
layers, calls = h.layer_metrics()
print(json.dumps({"n_cal": len(train) // 10, "solves": len(h.iterations),
                  "calibrations": calls.get("experiments.calibrate_eta0", 0),
                  "calls_per_solve": layers["losses.deriv.calls_per_solve"]}))
"""


def test_traced_harness_sees_every_lockstep_pilot_solve():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", CALIBRATION_SCRIPT],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["calibrations"] == 1
    # 11 candidate rates, none of which diverges, each solving at every pilot step
    assert result["solves"] == 11 * result["n_cal"]
    assert result["calls_per_solve"] == 1.0
