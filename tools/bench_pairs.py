"""Alternating parent/change pairs of one benchmark workload, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME [--pairs 10]
        [--seed 1] [--seconds 30] [--save FILE]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0``
once in each checkout, the parent first on odd pairs and the change first on
even ones, so a drift in machine speed falls on both sides alike.  Every
run's last stdout line (the harness's JSON result) is saved to FILE as
``{"workload", "seed", "seconds", "checkouts", "parent": [...], "change": [...]}``,
where ``checkouts`` gives each side's ``{"commit", "clean"}``: the output of
``git -C CHECKOUT rev-parse HEAD`` and whether ``git status --porcelain`` printed
nothing, both ``null`` outside a git work tree.

Then, for each end-to-end metric named in BENCHMARK.json (read from this
file's checkout), it prints

    name: parent median [q1..q3] → change median [q1..q3] unit (+x.x%, k/n lower,
        gap +g.g parent IQR, within the b% bound)

where k counts the pairs in which the change read better ("lower" or
"higher", as BENCHMARK.json says), g is the change median minus the parent
median in units of the parent's interquartile range, and the last figure says
whether the change median is worse than the parent median by no more than
the metric's BENCHMARK.json bound, a fraction of the parent median ("within")
or by more ("OUTSIDE").  Then one line names the metrics on which a gain may
be claimed, or says ``none``: those where the change read better in at least
9 of 10 pairs and its median lies more than one parent IQR beyond the parent
median, on the better side.  Then the summed ``failed`` and ``attempted`` counts
of each side, and each checkout's ``src/aisgd/*.py`` line count with the
difference, as ``cat src/aisgd/*.py | wc -l`` counts them.  Last, the cost
counts per sample of the hot loop, from ``python3 tests/cost/update.py
--print`` run once in each checkout before the pairs: a line
``cost counts per sample: k of n entries moved``, then one line per moved
entry, ``entry: count old → new, ...``.  A checkout without that script is
named instead.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run in ``checkout``; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_state(checkout: Path) -> dict:
    """``checkout``'s HEAD commit and whether its work tree is clean; None outside git."""
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        except OSError:  # no git at all
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"commit": commit or None, "clean": None if status is None else status == ""}


def cost_counts(checkout: Path) -> dict | None:
    """The entries ``tests/cost/update.py --print`` gives in ``checkout``; None without it."""
    script = Path("tests", "cost", "update.py")
    if not (checkout / script).exists():
        return None
    cmd = [sys.executable, str(script), "--print"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)["entries"]


def count_deltas(parent: dict | None, change: dict | None) -> list[str]:
    """A headline, then each cost-count entry whose counts moved from parent to change."""
    missing = [side for side, counts in (("parent", parent), ("change", change)) if counts is None]
    if missing:
        return [f"cost counts per sample: no tests/cost/update.py in the {' or '.join(missing)}"]
    names = sorted(parent.keys() | change.keys())
    lines = []
    for name in names:
        old, new = parent.get(name), change.get(name)
        if old is None or new is None:
            lines.append(f"{name}: only in the {'parent' if new is None else 'change'}")
            continue
        moved = [f"{count} {old[count]:g} → {new[count]:g}"
                 for count in old if count in new and new[count] != old[count]]
        if moved:
            lines.append(f"{name}: {', '.join(moved)}")
    return [f"cost counts per sample: {len(lines)} of {len(names)} entries moved", *lines]


def source_lines(checkout: Path) -> int:
    """Newlines in ``checkout``'s ``src/aisgd/*.py``: what ``wc -l`` reports for them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "aisgd").glob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_won_and_gap(better: str, parent: list[float], change: list[float]) -> tuple[int, float]:
    """Pairs in which the change read better, and its median gap in parent IQRs."""
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    spread = p3 - p1
    gap = (cm - pm) / spread if spread else math.copysign(math.inf, cm - pm) if cm != pm else 0.0
    return won, gap


def gain_claimable(better: str, parent: list[float], change: list[float]) -> bool:
    """Better in at least 9 of 10 pairs, with a median gap beyond one parent IQR that way."""
    won, gap = pairs_won_and_gap(better, parent, change)
    return 10 * won >= 9 * len(parent) and (gap < -1.0 if better == "lower" else gap > 1.0)


def summary_line(name: str, unit: str, better: str, bound: float,
                 parent: list[float], change: list[float]) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won, gap = pairs_won_and_gap(better, parent, change)
    rel = (cm - pm) / pm if pm else float("nan")
    worse = rel if better == "lower" else -rel
    within = "within" if worse <= bound else "OUTSIDE"
    return (f"{name}: {pm:.4g} [{p1:.4g}..{p3:.4g}] → {cm:.4g} [{c1:.4g}..{c3:.4g}] {unit} "
            f"({rel * 100.0:+.1f}%, {won}/{len(parent)} {better}, gap {gap:+.1f} parent IQR, "
            f"{within} the {bound * 100.0:g}% bound)")


def report(spec: dict, runs: dict) -> list[str]:
    lines, claimable = [], []
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            lines.append(f"{name}: not measured")
            continue
        parent, change = map(list, zip(*pairs))
        lines.append(summary_line(name, m["unit"], m["better"], m["bound"], parent, change))
        if gain_claimable(m["better"], parent, change):
            claimable.append(name)
    lines.append("gain claimable (better in >= 9/10 pairs, median beyond 1 parent IQR): "
                 + (", ".join(claimable) or "none"))
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        lines.append(f"{side}: {failed} of {attempted} runs failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--save", type=Path, help="default: bench-pairs-NAME-seedS.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    save = args.save or Path(f"bench-pairs-{args.workload}-seed{args.seed}.json")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    runs = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "checkouts": {"parent": git_state(args.parent), "change": git_state(args.change)},
            "parent": [], "change": []}
    counts = count_deltas(cost_counts(args.parent), cost_counts(args.change))
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed, args.seconds))
            save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
        print(f"pair {i}/{args.pairs} done", file=sys.stderr, flush=True)
    print("\n".join(report(spec, runs)))
    parent, change = source_lines(args.parent), source_lines(args.change)
    print(f"src/aisgd/*.py: {parent} → {change} lines ({change - parent:+d})")
    print("\n".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
