"""Guard for the benchmark's traced hooks (perfbench/child.py).

The traced benchmark replaces package attributes by timed wrappers: among
them ``solvers.solve_fixed_point`` and every loss class's ``deriv``.  If a
wrapped name disappears, or the hot loop stops calling a wrapped function,
the per-layer solver metrics go silent.  This test builds the traced harness
in a subprocess, as the benchmark does, and checks that every implicit step
of a short dense and sparse run passes through the wrapped solver, with one
checked ``deriv`` call per solve.  It only reads from perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
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
layers, _ = h.layer_metrics()
print(json.dumps({"n": n, "counts": counts,
                  "calls_per_solve": layers["losses.deriv.calls_per_solve"]}))
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
