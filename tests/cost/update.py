"""Cost counts per sample of the hot loop: the table behind ``tests/test_cost_counts.py``.

Each entry is one ``run_stream`` run: an algorithm, a loss family (squared,
logistic, smoothed hinge), lambda = 0 or 1e-4, and dense p = 20 rows or
sparse rows of 30 nonzeros over p = 1e3.  Its counts are taken over samples
501 to 600 of a 600-sample run at a polynomial rate, with a constant
evaluator that the run calls only after the last sample, and divided by 100:

* ``bytecodes``: opcodes executed in frames of the package's own modules
  (``sys.settrace`` with ``f_trace_opcodes``);
* ``calls``: Python-level calls of the package's functions;
* ``_add``, ``_sub``, ``_mul``, ``_div``, ``_sqrt``: calls of the kernels'
  ufuncs through those module-level names in ``solvers``, counted by
  wrapping them; ``dot`` and ``add_scaled``: calls of ``vectors.dot`` and
  ``vectors.add_scaled``;
* ``points``: solve points, the ``loss._pair`` calls, one per point a solve
  evaluates;
* ``elements``: the sizes of the arrays whose C methods package code calls
  (``ndarray.dot``, ``copy``, ..., seen through ``sys.setprofile``) and of
  each counted ufunc call's output.  Indexing and operators stay uncounted.

A count, not a clock: the same on every run and machine, for the Python and
NumPy versions ``counts.json`` records.  The sparse entries of the scaled
iterate, and sparse AdaGrad's at lambda = 0, are also taken at p = 1e5 over
the same nonzeros, where a step that costs O(nnz) counts the same.

Run ``python3 tests/cost/update.py`` from the repository root to rewrite
``counts.json``; it prints each entry whose counts moved.  With ``--print``
it writes the table to stdout instead, and ``tools/bench_pairs.py`` compares
two checkouts' tables that way.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
COUNTS = Path(__file__).with_name("counts.json")
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import aisgd  # noqa: E402
from aisgd import PolynomialRate, Sample, SparseVector, SyntheticSpec, loss_from_name  # noqa: E402
from aisgd import make_normal_design, run_stream, solvers, vectors  # noqa: E402

PACKAGE = os.path.dirname(aisgd.__file__) + os.sep
ALGORITHMS = ("sgd", "isgd", "asgd", "aisgd", "adagrad")
FAMILIES = {"squared": "squared", "logistic": "logistic", "hinge": "hinge:0.5"}
LAMBDAS = (0.0, 1e-4)
UFUNCS = ("_add", "_sub", "_mul", "_div", "_sqrt")
COUNTED = ("bytecodes", "calls", *UFUNCS, "dot", "add_scaled", "points", "elements")
WARMUP, WINDOW = 500, 100  # counted: samples WARMUP + 1 .. WARMUP + WINDOW
DENSE_P, SPARSE_P, WIDE_P, NNZ = 20, 1000, 100_000, 30
RATE = {"dense": PolynomialRate(0.02, 0.6), "sparse": PolynomialRate(0.5, 0.6)}


def _dense_rows(task: str) -> list[Sample]:
    spec = SyntheticSpec(WARMUP + WINDOW, DENSE_P, seed=7, task=task)
    return make_normal_design(spec).samples


def _sparse_rows(task: str, dim: int) -> list[Sample]:
    """Rows of NNZ nonzeros among the first SPARSE_P coordinates, whatever ``dim``."""
    rng = np.random.default_rng(8)
    theta_star = rng.standard_normal(SPARSE_P) / math.sqrt(NNZ)
    rows = []
    for _ in range(WARMUP + WINDOW):
        idx = np.sort(rng.choice(SPARSE_P, NNZ, replace=False))
        vals = rng.standard_normal(NNZ) / math.sqrt(NNZ)
        u = float(vals.dot(theta_star[idx]))
        if task == "linear":
            y = u + rng.standard_normal()
        else:
            y = 1.0 if rng.random() < 1.0 / (1.0 + math.exp(-u)) else -1.0
        rows.append(Sample(SparseVector(idx, vals, dim), y))
    return rows


class _Counter:
    """Counts of the package's work while active; ``start`` takes the frame running the loop."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTED, 0)
        self.saved = {}

    def start(self, loop_frame) -> None:
        counts = self.counts
        codes = {vectors.dot.__code__: "dot", vectors.add_scaled.__code__: "add_scaled"}

        def opcodes(frame, event, arg):
            if event == "opcode":
                counts["bytecodes"] += 1
            return opcodes

        def calls(frame, event, arg):
            code = frame.f_code
            if not code.co_filename.startswith(PACKAGE):
                return None
            counts["calls"] += 1
            if code in codes:
                counts[codes[code]] += 1
            elif code.co_name == "_pair":
                counts["points"] += 1
            frame.f_trace_opcodes = True
            return opcodes

        def c_calls(frame, event, arg):
            if event == "c_call" and frame.f_code.co_filename.startswith(PACKAGE):
                array = getattr(arg, "__self__", None)
                if isinstance(array, np.ndarray):
                    counts["elements"] += array.size

        def wrapped(name, ufunc):
            def call(*args):
                out = ufunc(*args)
                counts[name] += 1
                counts["elements"] += out.size
                return out
            return call

        for name in UFUNCS:
            self.saved[name] = getattr(solvers, name)
            setattr(solvers, name, wrapped(name, self.saved[name]))
        loop_frame.f_trace, loop_frame.f_trace_opcodes = opcodes, True
        sys.setprofile(c_calls)
        sys.settrace(calls)

    def stop(self) -> None:
        sys.settrace(None)
        sys.setprofile(None)
        for name, ufunc in self.saved.items():
            setattr(solvers, name, ufunc)


def _stream(rows, counter: _Counter):
    for i, row in enumerate(rows):
        if i == WARMUP:
            counter.start(sys._getframe(1))  # run_stream's frame, which resumed this one
        yield row
    counter.stop()


def measure(algorithm: str, family: str, lam: float, rows: list[Sample], rate) -> dict:
    """One entry: each count per sample over the counted window."""
    counter, hooks = _Counter(), (sys.gettrace(), sys.getprofile())
    try:
        run_stream(algorithm, loss_from_name(FAMILIES[family], lam=lam), rate,
                   _stream(rows, counter), eval_every=len(rows) + 1, evaluator=lambda theta: 0.0)
    finally:
        counter.stop()
        sys.settrace(hooks[0])
        sys.setprofile(hooks[1])
    return {name: count / WINDOW for name, count in counter.counts.items()}


def compute(wide: bool = False) -> dict[str, dict[str, float]]:
    """Every entry's counts; with ``wide``, the O(nnz) sparse entries at p = WIDE_P instead."""
    entries, data = {}, {}
    for family in FAMILIES:
        task = "linear" if family == "squared" else "logistic"
        if task not in data:  # logistic and hinge share their rows
            sparse = _sparse_rows(task, WIDE_P if wide else SPARSE_P)
            data[task] = {"sparse": sparse} if wide else {"dense": _dense_rows(task), "sparse": sparse}
        for layout, rows in data[task].items():
            for lam in LAMBDAS:
                for algorithm in ALGORITHMS:
                    if wide and algorithm == "adagrad" and lam != 0.0:
                        continue  # lam*theta reaches every coordinate: O(p) by design
                    entries[f"{layout}/{family}/lam={lam:g}/{algorithm}"] = measure(
                        algorithm, family, lam, rows, RATE[layout])
    return entries


def moved(pinned: dict, entries: dict, rose_only: bool = False) -> dict[str, list[str]]:
    """Each entry whose counts differ from ``pinned`` (with ``rose_only``, rose), with those
    counts; an entry on one side only is ``new`` or ``gone``."""
    out = {}
    for name in sorted(pinned.keys() | entries.keys()):
        old, new = pinned.get(name), entries.get(name)
        if old is None or new is None:
            out[name] = ["new" if old is None else "gone"]
            continue
        changed = [f"{count} {old[count]:g} -> {new[count]:g}" for count in COUNTED
                   if (new[count] > old[count] if rose_only else new[count] != old[count])]
        if changed:
            out[name] = changed
    return out


def header() -> dict:
    """What the counts hold for: the Python and NumPy versions and the counted samples."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "warmup": WARMUP, "window": WINDOW}


def document(entries: dict) -> str:
    """``counts.json``'s text: the header, then one line per entry."""
    head = header()
    lines = [f" {json.dumps(name)}: {json.dumps(counts)}" for name, counts in entries.items()]
    return (json.dumps(head)[:-1] + ', "entries": {\n' + ",\n".join(lines) + "\n}}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--print"]):
        print("usage: python3 tests/cost/update.py [--print]", file=sys.stderr)
        return 2
    entries = compute()
    if argv:
        sys.stdout.write(document(entries))
        return 0
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))["entries"] if COUNTS.exists() else {}
    COUNTS.write_text(document(entries), encoding="utf-8")
    changes = moved(pinned, entries)
    for name, counts in changes.items():
        print(f"moved: {name}: {', '.join(counts)}")
    print(f"{len(changes)} of {len(entries)} entries moved; wrote {COUNTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
