"""Seeded fuzz: the bulk libsvm reader against its checked line-by-line scan.

``read_libsvm`` converts and checks each chunk of lines as whole arrays and
re-scans a failing chunk line by line through the ``SparseVector`` and
``Sample`` constructors.  Reading with the bulk step switched off sends every
chunk through that checked scan.  Both reads must accept the same files with
bit-identical rows, ``c`` and ``dim`` and C-contiguous row arrays alike, and
reject the same files with the same message, which names ``path:line`` of
the first bad line.  A well-formed file must not reach the checked scan.
"""

import random
import re

import pytest

from aisgd import LibsvmFormatError, datagen, read_libsvm

N_FILES = 2000

LABELS = ["+1", "-1", "0", "1", "2.5", "-3e-2", "1_0", "+0", "-0"]
BAD_LABELS = ["nan", "inf", "-inf", "1e400", "x", "1:1", "0x1p3"]
VALUES = [
    "0.5", "-2", "1e-3", "3", "1e-400", "+7", "-0.0", "1_5",
    "0.10000000000000001", "-1.2345678901234567e-89",  # 17 significant digits
    "4.9406564584124654e-324", "2.2250738585072009e-308",  # subnormal
    "1e154",  # its square is finite, but two in a row overflow ||x||^2
]
BAD_VALUES = ["nan", "inf", "-inf", "1e400", "x", "", "1e200"]  # 1e200: ||x||^2 overflows
BAD_TOKENS = [
    "3:", ":3", "1:2:3", "#", "abc", "0:1", "-1:1",
    "9223372036854775808:1",  # 2**63: beyond int64
    "99999999999999999999:1",
    "-9223372036854775808:1",  # -2**63 wraps when made 0-based
    "x:1", "1.0:1",
    "2:1#x", "#2:1",  # a "#" inside a line is no comment
]
SEPARATORS = [" ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]


def _pairs(rng: random.Random) -> list[str]:
    k = rng.randrange(0, 5)
    idx = sorted(rng.sample(range(1, 40), k))
    if rng.random() < 0.02:
        idx.append(9223372036854775807)  # 2**63 - 1, the largest valid index
    return [f"{rng.choice(['', '', '+'])}{i}:{rng.choice(VALUES)}" for i in idx]


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
         s.x.values.tobytes(), s.x.dim, type(s.y), s.y.hex(), s.c.hex(),
         s.x.indices.flags.c_contiguous, s.x.values.flags.c_contiguous)
        for s in data
    ]
    return ("ok", data.dim, rows)


@pytest.mark.parametrize("row", ["-1 2:1e200", "-1 1:1e154 3:-2e154"])
def test_row_whose_squared_norm_overflows_is_named(tmp_path, monkeypatch, row):
    path = tmp_path / "huge.svm"
    path.write_text(f"+1 1:0.5\n{row}\n+1 2:1\n")
    for bulk in (datagen._bulk_rows, lambda rows, binary: None):
        monkeypatch.setattr(datagen, "_bulk_rows", bulk)
        with pytest.raises(LibsvmFormatError, match="huge.svm:2: squared feature norm overflows"):
            read_libsvm(path)


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


@pytest.fixture
def bulk_only(monkeypatch):
    """Make any fall back to the checked scan fail the test."""

    def checked_rows(rows, binary, path, first):
        raise AssertionError(f"the chunk from line {first} fell back to the checked scan")

    monkeypatch.setattr(datagen, "_checked_rows", checked_rows)


def test_well_formed_file_stays_on_the_bulk_path(tmp_path, monkeypatch, bulk_only):
    # Heavy-tailed indices over p = 1e5 with 6-digit values, as the sparse
    # benchmark writes them, but with tab separators and CRLF line ends.
    rng = random.Random(3)
    lines = []
    for _ in range(300):
        idx = sorted({min(int(rng.paretovariate(0.3)), 100_000) for _ in range(30)})
        pairs = [f"{i}:{rng.uniform(0.5, 1.5) / 30 ** 0.5:.6g}" for i in idx]
        lines.append("\t".join([rng.choice(["1", "-1"])] + pairs))
    path = tmp_path / "wide.svm"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    got = _read(path, True, None)
    monkeypatch.undo()
    monkeypatch.setattr(datagen, "_bulk_rows", lambda rows, binary: None)
    assert got == _read(path, True, None)
    assert got[0] == "ok" and len(got[2]) == 300


@pytest.mark.filterwarnings("error")
def test_label_only_chunk_stays_on_the_bulk_path(tmp_path, monkeypatch, bulk_only):
    monkeypatch.setattr(datagen, "_CHUNK_LINES", 2)
    path = tmp_path / "labels.svm"
    path.write_text("+1\n-1\n+1 2:0.5\n# only a comment\n")
    data = read_libsvm(path)
    assert [s.y for s in data] == [1.0, -1.0, 1.0] and data.dim == 2
    assert [s.x.indices.tolist() for s in data] == [[], [], [1]]
