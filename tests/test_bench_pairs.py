"""tools/bench_pairs.py: the run order, the summary of alternating pairs, the claimable gains,
the line counts."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in END_TO_END}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def _checkout(root, files):
    """A fake checkout holding ``files``, relative path -> text."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_pairs_alternate_and_are_summarised(tmp_path, monkeypatch, capsys):
    _checkout(tmp_path / "parent", {"src/aisgd/a.py": "1\n2\n3\n", "src/aisgd/b.py": "1\n2\n"})
    _checkout(tmp_path / "change", {"src/aisgd/a.py": "1\n2\n"})
    calls = []
    values = {"parent": iter([4.0, 4.1, 3.9, 4.2]), "change": iter([3.8, 3.7, 4.0, 3.6])}

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        return _result(next(values[side]), failed=int(side == "change"))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    save = tmp_path / "runs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "dense-linear",
            "--pairs", "4", "--seed", "3", "--seconds", "5", "--save", str(save)]
    assert bench_pairs.main(argv) == 0
    # odd pairs parent first, even pairs change first
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert {c[1:] for c in calls} == {("dense-linear", 3, 5.0)}
    runs = json.loads(save.read_text())
    assert len(runs["parent"]) == len(runs["change"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(END_TO_END) + 4
    # parent 3.9, 4.0, 4.1, 4.2 against change 3.6, 3.7, 3.8, 4.0; the change
    # is lower in pairs 1, 2 and 4
    # the median gap is -0.3 against a parent IQR of 0.25; 7.4% lower is within any bound
    assert out[0] == ("setup_s: 4.05 [3.925..4.175] → 3.75 [3.625..3.95] s "
                      "(-7.4%, 3/4 lower, gap -1.2 parent IQR, within the 25% bound)")
    # lower in 3 of 4 pairs falls short of 9 in 10
    assert out[-4:] == [CLAIM + "none", "parent: 0 of 40 runs failed",
                        "change: 4 of 40 runs failed", "src/aisgd/*.py: 5 → 2 lines (-3)"]


CLAIM = "gain claimable (better in >= 9/10 pairs, median beyond 1 parent IQR): "


def test_gain_claimable_needs_nine_of_ten_pairs_and_one_parent_iqr():
    parent = [10.0 + 0.1 * k for k in range(10)]  # quartiles 10.175..10.725: an IQR of 0.55
    claimable = bench_pairs.gain_claimable
    lower = [p - 1.0 for p in parent]
    assert claimable("lower", parent, lower)
    assert not claimable("higher", parent, lower)
    assert claimable("higher", parent, [p + 1.0 for p in parent])
    # 9 of 10 pairs still qualify; 8 do not
    assert claimable("lower", parent, lower[:9] + [parent[9] + 1.0])
    assert not claimable("lower", parent, lower[:8] + [p + 1.0 for p in parent[8:]])
    # better in every pair, but the median moves 0.5 parent IQR
    assert not claimable("lower", parent, [p - 0.275 for p in parent])


def test_report_names_each_claimable_metric():
    runs = {"parent": [_result(4.0 + 0.01 * k) for k in range(10)],
            "change": [_result(3.0 + 0.01 * k) for k in range(10)]}
    spec = {"end_to_end": END_TO_END}
    lines = bench_pairs.report(spec, runs)
    assert lines[len(END_TO_END)] == CLAIM + ", ".join(m["name"] for m in END_TO_END)
    runs["change"] = runs["parent"]
    assert bench_pairs.report(spec, runs)[len(END_TO_END)] == CLAIM + "none"


def test_source_lines_count_as_wc_does(tmp_path):
    root = _checkout(tmp_path, {
        "src/aisgd/a.py": "x = 1\n\ny = 2\n",
        "src/aisgd/b.py": "z = 3",  # no final newline: wc -l counts none
        "src/aisgd/notes.txt": "not\ncounted\n",
        "src/aisgd/sub/c.py": "not counted\n",
        "tests/test_a.py": "not counted\n",
    })
    assert bench_pairs.source_lines(root) == 3
    assert bench_pairs.source_lines(tmp_path / "missing") == 0


def test_bound_and_gap_follow_the_metrics_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 2.5, 3.5, 4.5]
    # median 3.0 → 2.5 against quartiles [1.5..4.5]: a gap of -0.5/3
    lower = bench_pairs.summary_line("t", "s", "lower", 0.1, parent, change)
    assert lower.endswith("(-16.7%, 5/5 lower, gap -0.2 parent IQR, within the 10% bound)")
    # the same figures where higher is better: 16.7% worse, outside a 10% bound, not a 20% one
    higher = bench_pairs.summary_line("t", "s", "higher", 0.1, parent, change)
    assert higher.endswith("(-16.7%, 0/5 higher, gap -0.2 parent IQR, OUTSIDE the 10% bound)")
    assert bench_pairs.summary_line("t", "s", "higher", 0.2, parent, change).endswith(
        "within the 20% bound)")
    # a parent without spread: any move is an infinite gap
    flat = bench_pairs.summary_line("t", "MB", "lower", 0.1, [2.0] * 4, [2.1] * 4)
    assert flat.endswith("(+5.0%, 0/4 lower, gap +inf parent IQR, within the 10% bound)")


def _git(root, *args) -> str:
    cmd = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()


def test_save_names_each_sides_commit_and_whether_its_tree_was_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no repository above
    parent = _checkout(tmp_path / "parent", {"src/aisgd/a.py": "1\n"})
    _git(parent, "init", "-q")
    _git(parent, "add", "-A")
    _git(parent, "commit", "-q", "-m", "one")
    head = _git(parent, "rev-parse", "HEAD")
    change = _checkout(tmp_path / "change", {"src/aisgd/a.py": "1\n"})
    assert bench_pairs.git_state(parent) == {"commit": head, "clean": True}
    assert bench_pairs.git_state(change) == {"commit": None, "clean": None}
    (parent / "notes.txt").write_text("untracked\n")
    assert bench_pairs.git_state(parent) == {"commit": head, "clean": False}

    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: _result(1.0))
    save = tmp_path / "runs.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "1", "--save", str(save)]
    assert bench_pairs.main(argv) == 0
    capsys.readouterr()
    assert json.loads(save.read_text())["checkouts"] == {
        "parent": {"commit": head, "clean": False},
        "change": {"commit": None, "clean": None},
    }
