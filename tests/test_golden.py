"""Golden bit digests: an unchanged seed keeps every output byte-identical.

The cases (``tests/golden/update.py``) run the workload configs at two
seeds and two with more passes, the shipped configs at n = 20000, a lambda
sweep and five ``fit`` runs in-process, and digest their traces without ``wall_ms``, final
iterates, calibrated eta0 values and estimate files.  The digests in
``tests/golden/digests.json`` hold for the NumPy version and BLAS recorded
there.  A change that means to move bits regenerates them with
``python3 tests/golden/update.py`` and names each moved case.
"""

import json

import pytest

from golden import update


def test_outputs_keep_their_bits(tmp_path):
    pinned = json.loads(update.DIGESTS.read_text(encoding="utf-8"))
    env = update.environment()
    if env["numpy"] != pinned["numpy"]:
        pytest.fail(f"the golden digests are pinned to NumPy {pinned['numpy']} "
                    f"({pinned['blas']}); this is NumPy {env['numpy']} ({env['blas']})")
    moved = update.moved(pinned["cases"], update.compute(tmp_path))
    assert not moved, (
        f"{len(moved)} golden case(s) moved (pinned on {pinned['blas']}, running {env['blas']}): "
        + "; ".join(f"{case}: {', '.join(keys)}" for case, keys in moved.items())
    )
