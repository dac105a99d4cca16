"""Benchmark of ``aisgd bench``: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed writes the workload's configs (and
libsvm files) under perfbench/out/NAME/; that is not timed.  Then the
workload repeats, each repetition in a fresh single-threaded process running
``aisgd bench`` in-process on every config, back to back (a closed loop with
one client), until S seconds have passed and at least MIN_REPS repetitions
ran.  Each repetition's CSV traces are checked; a run (config, algorithm,
schedule) whose trace fails, or whose invocation raised or exited non-zero,
counts as failed.

--trace 0 reports the end-to-end metrics, medians over repetitions.  Each
repetition sums them over the workload's configs:
  setup_s        from calling cli.main to its first streaming run: config
                 load, data build or parse, split, xu:auto calibration
  total_s        cli.main wall time, until every CSV trace is written
  us_per_sample.explicit, us_per_sample.implicit
                 run_stream wall time of the sgd/asgd/adagrad (isgd/aisgd)
                 runs over the samples they streamed, evaluations included
  peak_rss_mb    peak resident set of the repetition's process
failed_frac, the share of runs that failed, is the result line's
failed / attempted; it is printed too, but it is not a metric because it is
0 whenever the program is correct.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
metric is printed by name with its unit; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The environment and
every repetition's figures go to perfbench/out/result-NAME-seedN-traceT.json.
Times are scaled to a reference machine speed; see PROBE_REF_S.

--update-reference rewrites the stored reference traces of the workload
from one repetition at REFERENCE_SEED.  Only do that when the workload
itself changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, check_run, read_trace, write_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
REFERENCE_SEED = 1

MIN_REPS = 3

# Times are scaled to a reference machine speed.  Each repetition's process
# times a fixed probe task before every streaming run and after every config,
# and a time t is reported as t * PROBE_REF_S / (mean probe time).  The probe
# is the workload's: an interpreter loop for the dense workloads, passes over
# 800 KB vectors for the sparse one, since each tracks the slowdowns of its
# own kind of step.  PROBE_REF_S is a fixed scale, about either probe's time
# on one vCPU of a 2.1 GHz Xeon VM.  On a shared machine whose speed drifts by
# tens of percent over tens of seconds, the scaled figures are several times
# steadier than unscaled ones; the unscaled medians are printed beside them.
PROBE_REF_S = 0.030
# Power of the speed factor for each unit: times scale with it, rates against it.
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "MB/s": -1}
# Start no repetition that could end past this, so the whole run stays below 180 s.
HARD_LIMIT_S = 150.0

BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload; the bypass workload is where no change is predicted.
LAYER_TARGETS = [
    (
        (
            "solvers.fixed_point.iters_mean",
            "solvers.fixed_point.iters_max",
            "solvers.fixed_point.zero_frac",
            "solvers.solve_fixed_point.p50_us",
            "solvers.solve_fixed_point.p99_us",
            "losses.deriv.us",
            "losses.deriv.calls_per_solve",
        ),
        "us_per_sample.implicit (setup_s via pilot runs) on dense-classify, dense-linear; "
        "bypass: us_per_sample.explicit everywhere",
    ),
    (("solvers.fixed_point.residual_max",), "none: correctness observable, all workloads"),
    (
        (
            "solvers.update_average.us",
            "solvers.is_diverged.us",
            "solvers.explicit_step.self_us",
            "solvers.implicit_step.self_us",
            "solvers.adagrad_step.self_us",
            "solvers.run_stream.self_us_per_sample",
            "vectors.dot.us",
            "vectors.add_scaled.us",
            "rates.rate_at.us",
        ),
        "us_per_sample.* on sparse-libsvm (O(p)) and dense-linear explicit; "
        "bypass for O(nnz) work: both dense workloads",
    ),
    (
        ("datagen.make_normal_design.s", "datagen.split_dataset.s"),
        "setup_s, peak_rss_mb on the dense workloads; bypass: sparse-libsvm",
    ),
    (
        ("datagen.read_libsvm.s", "datagen.read_libsvm.mb_per_s"),
        "setup_s, peak_rss_mb on sparse-libsvm; bypass: the dense workloads",
    ),
    (
        ("experiments.calibrate_eta0.s", "experiments.load_config.ms"),
        "setup_s on dense-classify",
    ),
    (
        ("experiments.evaluator.ms", "datagen.excess_risk.us", "experiments.write_trace_csv.ms"),
        "us_per_sample.*, total_s: sparse-libsvm (per-sample loop) vs dense (vectorised)",
    ),
    (("trace.overhead_frac",), "none, all workloads"),
]
TARGET_OF = {name: target for names, target in LAYER_TARGETS for name in names}


def _run_child(job: dict, work: Path, deadline: float) -> dict | None:
    """One repetition in a fresh process; None if it crashed or overran."""
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **BLAS_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("repetition overran the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"repetition failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check_rep(workload: Workload, configs, result, rep_dir: Path, reference: Path | None):
    """(attempted, failure reasons) for one repetition."""
    attempted, failures = 0, []
    for cfg in configs:
        attempted += len(cfg.algorithms)
        status = result["configs"][cfg.name] if result else None
        if status is None or status["rc"] != 0:
            why = "crashed" if status is None else (status["error"] or f"exit {status['rc']}")
            failures += [f"{cfg.name}/{a}: {why}" for a in cfg.algorithms]
            continue
        ref = reference / workload.name / cfg.name if reference else None
        for algo in cfg.algorithms:
            reason = check_run(workload, cfg, algo, rep_dir / cfg.name, ref)
            if reason:
                failures.append(reason)
    return attempted, failures


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed: int, configs) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "samples_per_run": {c.name: c.samples for c in configs},
        "runs_per_repetition": {c.name: len(c.algorithms) for c in configs},
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    reference: Path | None = REFERENCE,
    work: Path | None = None,
) -> dict:
    """Generate inputs, repeat the workload for ``seconds``, check and aggregate."""
    work = work or OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    configs = workload.write_inputs(seed, work / "inputs", scale)
    rep_dir = work / "rep"
    job = {
        "root": str(ROOT),
        "configs": [{"name": c.name, "path": str(c.path)} for c in configs],
        "out": str(rep_dir),
        "spans": str(work / "spans.npz"),
        "probe": workload.probe,
    }

    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    reps, attempted, failures = [], 0, []
    while True:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(rep_dir, ignore_errors=True)
        t0 = time.monotonic()
        result = _run_child({**job, "traced": traced}, work, hard_deadline + 20.0)
        last = time.monotonic() - t0
        n, fails = _check_rep(workload, configs, result, rep_dir, reference)
        attempted += n
        failures += fails
        if result is None:
            break
        reps.append(result)
        now = time.monotonic()
        if now - start >= seconds and len(reps) >= MIN_REPS:
            break
        if now + last > hard_deadline:
            break

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    samples, raw = {}, {}
    for r, values in [(r, r["metrics"]) for r in untraced] + [(r, r["layers"]) for r in traced_reps]:
        factor = PROBE_REF_S / r["probe_s"]
        for name, value in values.items():
            raw.setdefault(name, []).append(value)
            samples.setdefault(name, []).append(value * factor ** SPEED_POWER.get(units[name], 0))
    if untraced and traced_reps:
        def total(reps):
            return statistics.median(r["metrics"]["total_s"] / r["probe_s"] for r in reps)
        samples["trace.overhead_frac"] = [total(traced_reps) / total(untraced) - 1]
    return {
        "workload": workload.name,
        "env": environment(seed, configs),
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "samples": samples,
        "raw": raw,
        "probe": workload.probe,
        "probe_s": [r["probe_s"] for r in reps],
        "calls": traced_reps[-1]["calls"] if traced_reps else {},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }


def store_reference(rep_dir: Path, dest: Path) -> None:
    """Write the traces of one repetition as reference traces under ``dest``."""
    for cfg_dir in sorted(p for p in rep_dir.iterdir() if p.is_dir()):
        shutil.rmtree(dest / cfg_dir.name, ignore_errors=True)
        (dest / cfg_dir.name).mkdir(parents=True)
        for csv in sorted(cfg_dir.glob("*.csv")):
            write_reference(read_trace(csv), dest / cfg_dir.name / csv.with_suffix(".ref").name)


def update_reference(workload: Workload) -> None:
    """Store the traces of one checked repetition at REFERENCE_SEED."""
    summary = run_workload(workload, REFERENCE_SEED, 0.0, False, reference=None)
    if summary["failed"]:
        sys.exit("not storing a reference from a failing run:\n" + "\n".join(summary["failures"]))
    store_reference(OUT / workload.name / "rep", REFERENCE / workload.name)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sample counts (self-test only; disables reference traces)")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aisgd" / "cli.py").is_file():
        print(f"error: no aisgd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.update_reference:
        update_reference(workload)
        return 0

    use_reference = args.seed == REFERENCE_SEED and args.scale == 1.0
    summary = run_workload(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        reference=REFERENCE if use_reference else None,
    )
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = summary["env"]
    print(f"workload {workload.name}: {workload.why}")
    print("env: " + " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in env.items()))
    print(f"repetitions: {summary['repetitions']} ({summary['traced_repetitions']} traced), "
          f"reference traces {'checked' if use_reference else 'not used for this seed'}, "
          f"probe median {statistics.median(summary['probe_s']) * 1e3:.4g} ms "
          f"(reference {PROBE_REF_S * 1e3:g} ms)")
    metrics = {}
    target = None
    for m in wanted:
        if args.trace and TARGET_OF.get(m["name"]) != target:
            target = TARGET_OF.get(m["name"])
            print(f"-- should move: {target}")
        values = summary["samples"].get(m["name"])
        if not values:
            print(f"{m['name']}: not measured")
            continue
        q1, med, q3 = _quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        line = (f"{m['name']} = {med:.6g} {m['unit']}  "
                f"(median of {len(values)}; IQR {q1:.6g} .. {q3:.6g}")
        if m["name"] in summary["raw"] and m["unit"] in SPEED_POWER:
            line += f"; unscaled median {statistics.median(summary['raw'][m['name']]):.6g}"
        print(line + ")")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"failed_frac = {failed / attempted:.6g} fraction  ({failed} of {attempted} runs failed)")
    if args.trace:
        calls = ", ".join(f"{k}={v}" for k, v in sorted(summary["calls"].items()))
        print(f"calls in the last traced repetition: {calls}")
    for reason in summary["failures"][:20]:
        print(f"FAILED {reason}")

    record = {**summary, "metrics": metrics}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
