"""Seeded fuzz: the bulk libsvm reader against its checked line-by-line scan.

``read_libsvm`` converts and checks each chunk of lines as whole arrays and
re-scans a failing chunk line by line through the ``SparseVector`` and
``Sample`` constructors.  Reading with the bulk step switched off sends every
chunk through that checked scan.  Both reads must accept the same files with
bit-identical rows and ``dim``, and reject the same files with the same
message, which names ``path:line`` of the first bad line.
"""

import random
import re

import pytest

from aisgd import LibsvmFormatError, datagen, read_libsvm

N_FILES = 2000

LABELS = ["+1", "-1", "0", "1", "2.5", "-3e-2", "1_0", "+0", "-0"]
BAD_LABELS = ["nan", "inf", "-inf", "1e400", "x", "1:1", "0x1p3"]
VALUES = ["0.5", "-2", "1e-3", "3", "1e-400", "+7", "-0.0", "1_5"]
BAD_VALUES = ["nan", "inf", "-inf", "1e400", "x", ""]
BAD_TOKENS = [
    "3:", ":3", "1:2:3", "#", "abc", "0:1", "-1:1",
    "9223372036854775808:1",  # 2**63: beyond int64
    "99999999999999999999:1",
    "-9223372036854775808:1",  # -2**63 wraps when made 0-based
    "x:1", "1.0:1",
]
SEPARATORS = [" ", " ", " ", "\t", "  "]


def _pairs(rng: random.Random) -> list[str]:
    k = rng.randrange(0, 5)
    idx = sorted(rng.sample(range(1, 40), k))
    if rng.random() < 0.02:
        idx.append(9223372036854775807)  # 2**63 - 1, the largest valid index
    return [f"{i}:{rng.choice(VALUES)}" for i in idx]


def _line(rng: random.Random, bad: bool) -> str:
    if not bad:
        roll = rng.random()
        if roll < 0.08:
            return rng.choice(["", "   ", "# comment 1:x", "#", "\t# 2:2"])
        label = rng.choice(LABELS)
        pairs = _pairs(rng) if roll > 0.15 else []  # some label-only lines
        return rng.choice(SEPARATORS).join([label] + pairs)
    label, pairs = rng.choice(LABELS), _pairs(rng) or ["1:1"]
    kind = rng.randrange(5)
    if kind == 4:
        # One token short of a ":" beside one with two: "3 0.5:4:1" or
        # "3:0.5:4 1" splits into the valid-looking numbers 3 0.5 4 1.
        i, v, w = rng.randrange(1, 30), rng.choice(VALUES), rng.choice(VALUES)
        pairs = [str(i), f"{v}:{i + 1}:{w}"] if rng.random() < 0.5 else [f"{i}:{v}:{i + 1}", w]
    elif kind == 0:
        label = rng.choice(BAD_LABELS)
    elif kind == 1:
        pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(BAD_TOKENS))
    elif kind == 2:
        pairs[-1] = pairs[-1].split(":")[0] + ":" + rng.choice(BAD_VALUES)
    else:
        pairs = pairs + [pairs[0]]  # not strictly increasing
    return " ".join([label] + pairs)


def _text(rng: random.Random) -> str:
    n = rng.randrange(1, 12)
    bad_at = {rng.randrange(n) for _ in range(rng.choice([0, 0, 1, 2]))}
    lines = [_line(rng, i in bad_at) for i in range(n)]
    end = rng.choice(["\n", "\r\n"])
    text = end.join(lines)
    return text if rng.random() < 0.2 else text + end


def _read(path, binary, dim):
    try:
        data = read_libsvm(path, binary=binary, dim=dim)
    except LibsvmFormatError as exc:
        return ("error", str(exc))
    rows = [
        (s.x.indices.dtype.str, s.x.indices.tobytes(), s.x.values.dtype.str,
         s.x.values.tobytes(), s.x.dim, type(s.y), s.y.hex())
        for s in data
    ]
    return ("ok", data.dim, rows)


def test_bulk_reader_matches_checked_scan(tmp_path, monkeypatch):
    rng = random.Random(8)
    path = tmp_path / "fuzz.svm"
    bulk = datagen._bulk_rows
    used_bulk = []

    def counting_bulk(rows, binary):
        out = bulk(rows, binary)
        used_bulk.append(out is not None)
        return out

    outcomes = {"ok": 0, "error": 0}
    bad_line_at = set()  # (is first line of a chunk, is last line of a chunk)
    for _ in range(N_FILES):
        path.write_bytes(_text(rng).encode())
        binary = rng.random() < 0.7
        dim = rng.choice([None, None, 1, 50])
        chunk = rng.choice([1, 2, 3, 5, 64])
        monkeypatch.setattr(datagen, "_CHUNK_LINES", chunk)
        monkeypatch.setattr(datagen, "_bulk_rows", counting_bulk)
        got = _read(path, binary, dim)
        monkeypatch.setattr(datagen, "_bulk_rows", lambda rows, binary: None)
        want = _read(path, binary, dim)
        assert got == want, path.read_bytes()
        outcomes[got[0]] += 1
        named = re.match(rf"{re.escape(str(path))}:(\d+): ", got[1]) if got[0] == "error" else None
        if named and chunk > 1:
            line = int(named.group(1))
            bad_line_at.add((line % chunk == 1, line % chunk == 0))
    assert min(outcomes.values()) > N_FILES // 5, outcomes
    assert sum(used_bulk) > N_FILES // 2
    assert {(True, False), (False, True)} <= bad_line_at


@pytest.mark.parametrize("chunk", [2, 64])
def test_bad_line_on_a_chunk_edge_is_named(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(datagen, "_CHUNK_LINES", chunk)
    path = tmp_path / "edge.svm"
    good = "+1 1:0.5 4:1\n"
    for bad_line in (chunk, chunk + 1, 2 * chunk):
        lines = [good] * (2 * chunk + 1)
        lines[bad_line - 1] = "-1 3:1 2:1\n"
        path.write_text("".join(lines))
        with pytest.raises(LibsvmFormatError, match=f"edge.svm:{bad_line}: .*increasing"):
            read_libsvm(path)
