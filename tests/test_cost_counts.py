"""Cost counts per sample of the hot loop: no count rises, and a sparse step costs O(nnz).

The entries and how each is counted are in ``tests/cost/update.py``;
``tests/cost/counts.json`` pins them for the Python and NumPy versions and
the counted samples it records.  A change that lowers counts regenerates the
file with ``python3 tests/cost/update.py`` and names the moved entries.
"""

import json

import pytest

from cost import update

PINNED = json.loads(update.COUNTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def entries():
    pins = {name: PINNED[name] for name in update.header()}
    if pins != update.header():
        pytest.fail(f"the cost counts are pinned to {pins}; this is {update.header()}")
    return update.compute()


def test_no_count_rises(entries):
    rose = update.moved(PINNED["entries"], entries, rose_only=True)
    assert not rose, f"{len(rose)} entries rose: " + "; ".join(
        f"{name}: {', '.join(counts)}" for name, counts in rose.items())


def test_sparse_step_counts_do_not_grow_with_p(entries):
    # the same nonzeros over p = 1e5 rather than 1e3
    wide = update.compute(wide=True)
    assert len(wide) == 27
    grew = update.moved({name: entries[name] for name in wide}, wide)
    assert not grew, f"{len(grew)} sparse entries differ at p = {update.WIDE_P}: " + "; ".join(
        f"{name}: {', '.join(counts)}" for name, counts in grew.items())
