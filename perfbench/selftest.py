"""Self-test of the benchmark at a small size.

    python3 perfbench/selftest.py

Checks, in under a minute:

1. For every workload, ``run.py`` with --trace 0 and --trace 1 prints every
   metric BENCHMARK.json names, with its unit, and failed_frac; its last
   line carries exactly those metrics with no failed run.
2. A stored reference trace with one metric digit altered makes runs fail,
   while the unaltered reference passes.
3. In a directory holding only BENCHMARK.json and the benchmark, ``run.py``
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS, _spec, run_workload, store_reference

SCALE = 0.4  # keeps more than 1000 implicit solves per repetition, enough for a p99
SEED = 5


def check_printed_metrics(errors: list[str]) -> None:
    spec = _spec()
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            where = f"{name} --trace {trace}"
            before = len(errors)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: {result['failed']} of {result['attempted']} runs failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted}:
                errors.append(f"{where}: metrics {got}")
            for m in wanted:
                prefix = f"{m['name']} = "
                if not any(l.startswith(prefix) and f" {m['unit']}  (" in l for l in lines):
                    errors.append(f"{where}: no printed line for {m['name']} [{m['unit']}]")
            if not any(l.startswith("failed_frac = ") for l in lines):
                errors.append(f"{where}: no printed failed_frac line")
            status = "ok " if len(errors) == before else "BAD"
            print(f"{status} {where}: {len(wanted)} metrics named in BENCHMARK.json")


def _alter_one_digit(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    run_id, n, metric, diverged = lines[1].split(",")
    digits = [i for i, ch in enumerate(metric) if ch.isdigit() and ch != "0"]
    i = digits[1]  # the second significant digit
    altered = metric[:i] + str((int(metric[i]) + 1) % 10) + metric[i + 1:]
    lines[1] = ",".join((run_id, n, altered, diverged))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{metric} -> {altered}"


def check_reference_gate(errors: list[str]) -> None:
    workload = WORKLOADS["dense-linear"]
    work = OUT / "selftest" / "gate"
    reference = OUT / "selftest" / "reference"
    first = run_workload(workload, SEED, 0.0, False, scale=SCALE / 2, reference=None, work=work)
    if first["failed"]:
        errors.append(f"reference gate: the unchecked run failed: {first['failures']}")
        return
    shutil.rmtree(reference, ignore_errors=True)
    store_reference(work / "rep", reference / workload.name)

    same = run_workload(workload, SEED, 0.0, False, scale=SCALE / 2, reference=reference, work=work)
    if same["failed"]:
        errors.append(f"reference gate: unaltered reference failed: {same['failures'][:3]}")
    ref_file = sorted((reference / workload.name).glob("*/aisgd-*.ref"))[0]
    change = _alter_one_digit(ref_file)
    altered = run_workload(workload, SEED, 0.0, False, scale=SCALE / 2, reference=reference, work=work)
    frac = altered["failed"] / altered["attempted"]
    if frac == 0:
        errors.append(f"reference gate: altered digit ({change}) not detected")
    status = "ok " if frac and not same["failed"] else "BAD"
    print(f"{status} reference gate: unaltered failed_frac {same['failed'] / same['attempted']:g}, "
          f"one digit altered ({change}) failed_frac {frac:g}")


def check_refuses_without_package(errors: list[str]) -> None:
    bare = OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dense-linear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    refused = proc.returncode != 0 and not proc.stdout.strip()
    if not refused:
        errors.append(f"without the package: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"{'ok ' if refused else 'BAD'} without the package: exit {proc.returncode}, "
          f"{proc.stderr.strip()}")


def main() -> int:
    errors: list[str] = []
    check_printed_metrics(errors)
    check_reference_gate(errors)
    check_refuses_without_package(errors)
    shutil.rmtree(OUT / "selftest", ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
