"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py JOB.json RESULT.json

JOB.json names the checkout root, the workload's configs, the directory for
their CSV traces and whether to trace per layer.  Each config runs through
``aisgd.cli.main(["bench", CONFIG, "--set", "out=..."])``, the path users
take.  Untraced, only the once-per-run calls are timed; traced, the
per-sample calls are timed too and the spans are saved next to the result.

Before each streaming run and after each config the repetition times a
fixed probe task, the one JOB.json names (see ``PROBES``).  The probe's mean
time measures how fast the machine ran during this repetition; probe time is
subtracted from every figure it falls inside.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

from spans import SpanRecorder

CPU_PROBE_LOOPS = 20_000
MEMORY_PROBE_PASSES = 220
MEMORY_PROBE_LEN = 100_000  # the length of a parameter vector at p = 1e5


def cpu_probe() -> None:
    """A fixed interpreter loop of scalar math and small numpy calls.

    That is the instruction mix of a dense p=20 step, so the probe slows
    down with the machine in about the same proportion as those steps.
    """
    a = np.ones(20)
    s = 0.0
    for i in range(CPU_PROBE_LOOPS):
        s += math.exp(-1e-4 * i) + float(a @ a)


def memory_probe() -> None:
    """Fixed passes over 800 KB vectors, the O(p) bookkeeping of a sparse step at p = 1e5."""
    v = np.ones(MEMORY_PROBE_LEN)
    w = np.ones(MEMORY_PROBE_LEN)
    for _ in range(MEMORY_PROBE_PASSES):
        v[:] = v + 0.5 * w


PROBES = {"cpu": cpu_probe, "memory": memory_probe}


class Harness:
    """Timed wrappers around the package, and the logs they fill."""

    def __init__(self, root: Path, traced: bool, probe: str):
        sys.path.insert(0, str(root / "src"))
        import aisgd
        from aisgd import cli, datagen, experiments, losses, solvers

        if not Path(aisgd.__file__).resolve().is_relative_to(root / "src"):
            raise ImportError(f"aisgd imported from {aisgd.__file__}, not from {root / 'src'}")
        self.cli = cli
        self.implicit = solvers.IMPLICIT
        self.rec = rec = SpanRecorder()
        self.probe = rec.timed(PROBES[probe], "probe")
        self.runs: list[tuple[int, str, int, bool]] = []  # (span, algorithm, samples, main run)
        self.iterations: list[int] = []
        self.residuals: list[float] = []
        self.libsvm_bytes = 0
        self._calibrating = False

        timed_calibrate = rec.timed(experiments.calibrate_eta0, "experiments.calibrate_eta0")

        def calibrate_eta0(*args, **kwargs):
            self._calibrating = True
            try:
                return timed_calibrate(*args, **kwargs)
            finally:
                self._calibrating = False

        timed_run_stream = rec.timed(experiments.run_stream, "solvers.run_stream")

        def run_stream(algorithm, loss, schedule, data, eval_every, evaluator, **kwargs):
            main = not self._calibrating
            if main:
                self.probe()
                if traced:
                    evaluator = rec.timed(evaluator, "experiments.evaluator")
            idx = len(rec.start)
            result = timed_run_stream(algorithm, loss, schedule, data, eval_every, evaluator, **kwargs)
            self.runs.append((idx, algorithm, result.state.n, main))
            return result

        experiments.calibrate_eta0 = calibrate_eta0
        experiments.run_stream = run_stream
        rec.wrap(experiments, "write_trace_csv", "experiments.write_trace_csv")
        rec.wrap(cli, "load_config", "experiments.load_config")
        rec.wrap(cli, "main", "cli.main")
        if not traced:
            return

        timed_read = rec.timed(experiments.read_libsvm, "datagen.read_libsvm")

        def read_libsvm(path, *args, **kwargs):
            self.libsvm_bytes += Path(path).stat().st_size
            return timed_read(path, *args, **kwargs)

        experiments.read_libsvm = read_libsvm
        for attr in ("make_normal_design", "split_dataset", "excess_risk"):
            rec.wrap(experiments, attr, f"datagen.{attr}")

        timed_solve = rec.timed(solvers.solve_fixed_point, "solvers.solve_fixed_point")

        def solve_fixed_point(*args, **kwargs):
            res = timed_solve(*args, **kwargs)
            self.iterations.append(res.iterations)
            self.residuals.append(res.residual)
            return res

        solvers.solve_fixed_point = solve_fixed_point
        for attr in ("implicit_step", "explicit_step", "adagrad_step", "update_average", "is_diverged"):
            rec.wrap(solvers, attr, f"solvers.{attr}")
        rec.wrap(solvers, "rate_at", "rates.rate_at")
        rec.wrap(solvers, "add_scaled", "vectors.add_scaled")
        for module in (solvers, experiments, datagen):
            rec.wrap(module, "dot", "vectors.dot")
        for cls in vars(losses).values():
            if isinstance(cls, type) and issubclass(cls, losses.GlmLoss) and "deriv" in vars(cls):
                rec.wrap(cls, "deriv", "losses.deriv")

    def probe_seconds_between(self, t0: float, t1: float) -> float:
        """Summed duration of the probes that ran inside [t0, t1]."""
        a = self.rec.arrays()
        sel = a["name_id"] == self.rec.names.index("probe")
        inside = sel & (a["start"] >= t0) & (a["end"] <= t1)
        return float((a["end"][inside] - a["start"][inside]).sum())

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of one traced repetition, and the call count of each span name."""
        rec = self.rec
        s = rec.summary()

        def stat(name: str, key: str = "mean_us") -> float:
            return s.get(name, {}).get(key, 0.0)

        iters = np.asarray(self.iterations)
        solve_idx = rec.spans_named("solvers.solve_fixed_point")
        deriv_idx = rec.spans_named("losses.deriv")
        in_solve = np.isin(rec.arrays()["parent"][deriv_idx], solve_idx).sum()
        main_idx = np.array([r[0] for r in self.runs if r[3]])
        main_samples = sum(r[2] for r in self.runs if r[3])
        read_s = stat("datagen.read_libsvm", "total_s")

        out = {
            "solvers.fixed_point.iters_mean": float(iters.mean()) if iters.size else 0.0,
            "solvers.fixed_point.iters_max": int(iters.max()) if iters.size else 0,
            "solvers.fixed_point.zero_frac": float(np.mean(iters == 0)) if iters.size else 0.0,
            "solvers.fixed_point.residual_max": max(self.residuals, default=0.0),
            "losses.deriv.us": stat("losses.deriv"),
            "losses.deriv.calls_per_solve": in_solve / solve_idx.size if solve_idx.size else 0.0,
            "solvers.update_average.us": stat("solvers.update_average"),
            "solvers.is_diverged.us": stat("solvers.is_diverged"),
            "solvers.explicit_step.self_us": stat("solvers.explicit_step", "self_mean_us"),
            "solvers.implicit_step.self_us": stat("solvers.implicit_step", "self_mean_us"),
            "solvers.adagrad_step.self_us": stat("solvers.adagrad_step", "self_mean_us"),
            "solvers.run_stream.self_us_per_sample": (
                rec.self_seconds(main_idx) / main_samples * 1e6 if main_samples else 0.0
            ),
            "vectors.dot.us": stat("vectors.dot"),
            "vectors.add_scaled.us": stat("vectors.add_scaled"),
            "rates.rate_at.us": stat("rates.rate_at"),
            "datagen.make_normal_design.s": stat("datagen.make_normal_design") / 1e6,
            "datagen.split_dataset.s": stat("datagen.split_dataset") / 1e6,
            "datagen.read_libsvm.s": stat("datagen.read_libsvm") / 1e6,
            "datagen.read_libsvm.mb_per_s": self.libsvm_bytes / 1e6 / read_s if read_s else 0.0,
            "experiments.calibrate_eta0.s": stat("experiments.calibrate_eta0") / 1e6,
            "experiments.load_config.ms": stat("experiments.load_config") / 1e3,
            "experiments.evaluator.ms": stat("experiments.evaluator") / 1e3,
            "datagen.excess_risk.us": stat("datagen.excess_risk"),
            "experiments.write_trace_csv.ms": stat("experiments.write_trace_csv") / 1e3,
        }
        for q in ("p50", "p99"):
            key = f"{q}_us"
            if key in s.get("solvers.solve_fixed_point", {}):
                out[f"solvers.solve_fixed_point.{key}"] = s["solvers.solve_fixed_point"][key]
        return out, {k: v["calls"] for k, v in s.items()}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    traced = job["traced"]
    h = Harness(Path(job["root"]), traced, job["probe"])
    rec, runs = h.rec, h.runs

    h.probe()
    configs = {}
    for cfg in job["configs"]:
        first_span, first_run = len(rec.start), len(runs)
        out_dir = Path(job["out"]) / cfg["name"]
        error = None
        try:
            rc = h.cli.main(["bench", cfg["path"], "--set", f"out={out_dir}"])
        except Exception:  # a failed run is a result: record it and go on
            rc, error = None, traceback.format_exc()
        h.probe()
        start, end = rec.start[first_span], rec.end[first_span]
        main_runs = [r for r in runs[first_run:] if r[3]]
        setup = None
        if main_runs:
            first = rec.start[main_runs[0][0]]
            setup = first - start - h.probe_seconds_between(start, first)
        configs[cfg["name"]] = {
            "rc": rc,
            "error": error,
            "total_s": end - start - h.probe_seconds_between(start, end),
            "setup_s": setup,
        }

    metrics = {}
    for key in ("setup_s", "total_s"):
        values = [c[key] for c in configs.values()]
        if None not in values:
            metrics[key] = sum(values)
    for kind, implicit in (("explicit", False), ("implicit", True)):
        picked = [r for r in runs if r[3] and (r[1] in h.implicit) == implicit]
        samples = sum(r[2] for r in picked)
        if samples:
            seconds = sum(rec.end[r[0]] - rec.start[r[0]] for r in picked)
            metrics[f"us_per_sample.{kind}"] = seconds / samples * 1e6
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    a = rec.arrays()
    probes = rec.spans_named("probe")
    result = {
        "configs": configs,
        "traced": traced,
        "probe_s": float(np.mean(a["end"][probes] - a["start"][probes])),
        "metrics": metrics,
    }
    if traced:
        result["layers"], result["calls"] = h.layer_metrics()
        rec.save(Path(job["spans"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
