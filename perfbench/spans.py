"""In-memory span recording around calls into the package, and per-layer summaries.

A span is (name, start, end, parent).  Spans live in flat arrays while the
workload runs and are written out once at the end.  A wrapper replaces a
module or class attribute, so the package itself is never edited.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# p50 and p99 are reported only when at least this many calls lie beyond them.
MIN_BEYOND = 10


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, fn, name: str):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its timed version."""
        setattr(owner, attr, self.timed(getattr(owner, attr), name))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def spans_named(self, name: str) -> np.ndarray:
        """Indices of the spans with this name (empty if it never ran)."""
        if name not in self._ids:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.arrays()["name_id"] == self._ids[name])

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, and per-call µs statistics.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            d = dur[sel]
            stats = {
                "calls": int(d.size),
                "total_s": float(d.sum()),
                "mean_us": float(d.mean() * 1e6) if d.size else 0.0,
                "self_mean_us": float(self_time[sel].mean() * 1e6) if d.size else 0.0,
            }
            for q in (50, 99):
                if d.size * (100 - q) / 100 >= MIN_BEYOND:
                    stats[f"p{q}_us"] = float(np.percentile(d, q) * 1e6)
            out[name] = stats
        return out

    def self_seconds(self, idx: np.ndarray) -> float:
        """Summed self time of the given spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        sel = np.isin(a["parent"], idx)
        return float(dur[idx].sum() - dur[sel].sum())
