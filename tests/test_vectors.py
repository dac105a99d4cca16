"""The row validators: every check that SparseVector and Sample make.

``read_libsvm`` relies on these constructors for its row checks, so each
rejected input is pinned here.  The 1-d products of ``dot``, ``sq_norm`` and
``is_diverged`` are pinned to the ``@`` operator, bit for bit, and on strided
views to ``np.dot``; ``np.vecdot`` over stacked rows is pinned to ``dot``,
and over a stack of rows with itself to each row's ``dot`` with itself.
A ufunc with a 0-d float64 operand, in place or into a buffer, is pinned to
the same ufunc with a Python float, and each in-place operator to its ufunc
called with the output array passed, as the dense kernels count on.
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from aisgd import Sample, SparseVector, add_scaled, dot, sq_norm
from aisgd.vectors import _unchecked
from aisgd.solvers import DIVERGENCE_NORM, is_diverged


class TestSparseVector:
    def test_valid_vector_is_normalized(self):
        v = SparseVector([0, 2, 4], [1, 2.5, -3], 5)
        assert v.indices.dtype == np.int64
        assert v.values.dtype == np.float64
        np.testing.assert_array_equal(v.toarray(), [1.0, 0.0, 2.5, 0.0, -3.0])

    def test_empty_vector_allowed(self):
        v = SparseVector([], [], 3)
        assert v.indices.size == 0
        np.testing.assert_array_equal(v.toarray(), np.zeros(3))

    @pytest.mark.parametrize(
        "indices",
        [[2, 1], [0, 3, 2], [1, 1], [0, 2, 2]],
        ids=["unsorted", "unsorted-tail", "duplicate", "duplicate-tail"],
    )
    def test_non_increasing_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="increasing"):
            SparseVector(indices, np.ones(len(indices)), 5)

    @pytest.mark.parametrize("indices", [[-1], [-1, 2], [5], [0, 5], [0, 7]])
    def test_out_of_range_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="range"):
            SparseVector(indices, np.ones(len(indices)), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SparseVector([0, 3], [1.0, bad], 5)

    @pytest.mark.parametrize(
        "indices, values",
        [([0, 1], [1.0]), ([0], [1.0, 2.0]), ([[0, 1]], [[1.0, 2.0]]), (0, 1.0)],
        ids=["short-values", "short-indices", "2-d", "0-d"],
    )
    def test_bad_shapes_rejected(self, indices, values):
        with pytest.raises(ValueError, match="1-d"):
            SparseVector(indices, values, 5)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dimension"):
            SparseVector([], [], dim)


class TestSample:
    def test_dense_sample_is_normalized(self):
        s = Sample([1, 2], 3)
        assert s.x.dtype == np.float64
        assert s.y == 3.0 and isinstance(s.y, float)
        assert s.dim == 2

    def test_squared_norm_is_stored_and_ignored_by_eq_and_repr(self):
        dense = Sample(np.array([0.1, -2.0, 3.0]), 1.0)
        sparse = Sample(SparseVector([1, 4], [0.3, -7.0], 9), -1.0)
        for s in (dense, sparse):
            assert s.c.hex() == sq_norm(s.x).hex()
        x = dense.x
        assert dense.c.hex() == float(np.dot(x, x)).hex()
        moved = dataclasses.replace(dense, x=np.array([3.0, 4.0]))
        assert moved.c == 25.0 and moved.y == 1.0
        assert dataclasses.replace(sparse, y=2.0).c == sparse.c
        tampered = Sample(x, 1.0)
        object.__setattr__(tampered, "c", -1.0)
        assert tampered == dense
        assert repr(tampered) == repr(dense) and "c=" not in repr(dense)
        with pytest.raises(TypeError):
            Sample(x, 1.0, 14.0)

    def test_sparse_sample_dimension(self):
        assert Sample(SparseVector([1], [2.0], 7), -1).dim == 7


def _fields(row):
    """Every slot of a row, arrays as (dtype, bytes) and floats by ``float.hex``."""
    if isinstance(row, SparseVector):
        return ("sparse", row.indices.dtype.str, row.indices.tobytes(), row.values.dtype.str,
                row.values.tobytes(), row.dim)
    x = _fields(row.x) if isinstance(row.x, SparseVector) else (row.x.dtype.str, row.x.tobytes())
    return x, type(row.y), row.y.hex(), row.c.hex()


class TestUncheckedBuilder:
    """``vectors._unchecked``, the one builder of rows already checked in bulk."""

    def test_rows_match_the_checked_constructors(self):
        rng = np.random.default_rng(31)
        design = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-150, 150, (6, 1))
        ys = rng.standard_normal(6).tolist()
        dense = _unchecked(Sample, 6, x=design, y=ys, c=[sq_norm(x) for x in design])
        want = [Sample(x, y) for x, y in zip(design, ys)]
        assert [_fields(s) for s in dense] == [_fields(s) for s in want]

        indices = [np.array([0, 2, 9]), np.array([], dtype=np.int64), np.array([4])]
        values = [rng.standard_normal(i.size) for i in indices]
        xs = _unchecked(SparseVector, 3, indices=indices, values=values, dim=repeat(10, 3))
        cs = [sq_norm(x) for x in xs]
        sparse = _unchecked(Sample, 3, x=xs, y=ys[:3], c=cs)
        want = [Sample(SparseVector(i, v, 10), y) for i, v, y in zip(indices, values, ys)]
        assert [_fields(x) for x in xs] == [_fields(s.x) for s in want]
        assert [_fields(s) for s in sparse] == [_fields(s) for s in want]
        for row in dense + xs + sparse:
            assert not hasattr(row, "__dict__")

    def test_replace_recomputes_c(self):
        (row,) = _unchecked(Sample, 1, x=[np.array([1.0, 2.0])], y=[0.5], c=[5.0])
        moved = dataclasses.replace(row, x=np.array([3.0, 4.0]))
        assert moved.c == 25.0 and moved.y == 0.5
        with pytest.raises(ValueError, match="outcome y must be finite"):
            dataclasses.replace(row, y=math.nan)

    def test_no_rows(self):
        assert _unchecked(Sample, 0, x=[], y=[], c=[]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sample(np.array([1.0, bad]), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sample(np.array([1.0, 2.0]), bad)
        with pytest.raises(ValueError, match="finite"):
            Sample(SparseVector([0], [1.0], 2), bad)

    @pytest.mark.parametrize(
        "x", [np.array([1e200, 0.0]), SparseVector([1, 3], [1e154, -2e154], 5)],
        ids=["dense", "sparse"],
    )
    def test_overflowing_squared_norm_rejected_without_a_warning(self, x):
        # every entry is finite, but ||x||^2 is not: no step could use the row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^squared feature norm overflows float64$"):
                Sample(x, 1.0)

    @pytest.mark.parametrize(
        "x", [np.ones((2, 2)), np.array([]), np.float64(1.0)], ids=["2-d", "empty", "0-d"]
    )
    def test_bad_shape_x_rejected(self, x):
        with pytest.raises(ValueError, match="1-d"):
            Sample(x, 1.0)


class TestProductsMatchMatmul:
    """``ndarray.dot`` on 1-d float64 operands runs the kernel of ``@``."""

    def test_dot_and_sq_norm(self):
        rng = np.random.default_rng(31)
        for p in [*range(1, 101), 1000, 100_000]:
            theta = rng.standard_normal(p)
            x = rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3)
            assert dot(x, theta).hex() == float(x @ theta).hex()
            assert sq_norm(x).hex() == float(x @ x).hex()
            idx = np.sort(rng.choice(p, size=min(p, 30), replace=False))
            v = SparseVector(idx, x[idx], p)
            assert dot(v, theta).hex() == float(theta[idx] @ x[idx]).hex()
            assert sq_norm(v).hex() == float(x[idx] @ x[idx]).hex()

    def test_dot_on_strided_views(self):
        # A row or column of a matrix, or every k-th entry: ``dot`` runs the
        # kernel of np.dot on any view, and of ``@`` on positive strides.
        rng = np.random.default_rng(33)
        for p in [*range(1, 101), 1000]:
            m = rng.standard_normal((4, 3 * p))
            theta = rng.standard_normal(3 * p)
            views = [(m[1, ::3], theta[:p]), (m[0, :p], theta[2::3]), (m[:3, 0], theta[:3]),
                     (m[2, 1::2][:p], theta[::2][:p])]
            for x, th in views:
                assert dot(x, th).hex() == float(np.dot(x, th)).hex() == float(x @ th).hex()
            x, th = m[3, ::-3], theta[1::3]
            assert dot(x, th).hex() == float(np.dot(x, th)).hex()

    def test_is_diverged(self):
        rng = np.random.default_rng(32)
        above = math.nextafter(DIVERGENCE_NORM, math.inf)
        cases = [np.array([DIVERGENCE_NORM]), np.array([above]), np.array([6e11, 8e11]),
                 np.array([math.nan, 1.0]), np.array([math.inf])]
        for p in [*range(1, 101), 1000]:
            v = rng.standard_normal(p)
            v *= DIVERGENCE_NORM / np.linalg.norm(v)
            cases += [v, v * (1.0 + 1e-15), v * (1.0 - 1e-15)]
        limit = DIVERGENCE_NORM * DIVERGENCE_NORM
        for theta in cases:
            assert float(theta.dot(theta)).hex() == float(theta @ theta).hex()
            assert is_diverged(theta) == (not theta @ theta <= limit)
        assert not is_diverged(np.array([DIVERGENCE_NORM]))
        assert is_diverged(np.array([above]))


class TestEmptySparseRow:
    """A sparse vector without nonzeros goes through the general code path."""

    def test_dot_is_positive_zero(self):
        empty = SparseVector([], [], 3)
        for theta in (np.zeros(3), np.array([-1.0, math.nan, math.inf])):
            assert dot(empty, theta).hex() == (0.0).hex()
        assert sq_norm(empty).hex() == (0.0).hex()

    def test_add_scaled_leaves_theta_as_it_is(self):
        empty = SparseVector([], [], 3)
        theta = np.array([-0.0, math.nan, -math.inf])
        for a in (0.0, -2.5, math.nan, math.inf, -math.inf):
            before = theta.tobytes()
            assert add_scaled(theta, a, empty) is theta
            assert theta.tobytes() == before


class TestVecdotMatchesDot:
    """``np.vecdot`` over stacked rows makes each row's ``ndarray.dot``, bit for bit.

    The xu:auto pilots take each step's predictors and squared norms from
    one ``np.vecdot`` each over their K x p iterate rows, and the loss
    evaluator takes its predictors from one over the stacked dense rows.
    Both count on this to keep the traces.
    """

    P = [1, 2, 3, 20, 257]

    @pytest.mark.parametrize("p", P)
    def test_stacked_subset_against_theta(self, p):
        rng = np.random.default_rng(34 + p)
        samples = [Sample(rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3), 1.0)
                   for _ in range(300)]
        design = np.stack([s.x for s in samples])
        for _ in range(20):
            theta = rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3)
            got = np.vecdot(design, theta).tolist()
            assert [u.hex() for u in got] == [dot(s.x, theta).hex() for s in samples]

    @pytest.mark.parametrize("p", P)
    def test_iterate_rows_against_a_sample(self, p):
        rng = np.random.default_rng(35 + p)
        rows = rng.standard_normal((11, p)) * 10.0 ** rng.uniform(-3, 3, size=(11, 1))
        for _ in range(100):
            x = rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3)
            got = np.vecdot(rows, x).tolist()
            assert [u.hex() for u in got] == [dot(x, row).hex() for row in rows]

    @pytest.mark.parametrize("p", P)
    def test_iterate_rows_against_themselves(self, p):
        # the pilots' divergence test: each row's theta.theta, as is_diverged forms it
        rng = np.random.default_rng(36 + p)
        for _ in range(100):
            rows = rng.standard_normal((11, p)) * np.exp(rng.uniform(-40, 40, size=(11, 1)))
            got = np.vecdot(rows, rows).tolist()
            assert [q.hex() for q in got] == [float(row.dot(row)).hex() for row in rows]


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
           math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 3.0]


def _special_vector(p, seed):
    """Length p: the SPECIAL values first, then draws of magnitude up to e**700."""
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(p) * np.exp(rng.uniform(-700.0, 700.0, size=p))
    vec[: len(SPECIAL)] = SPECIAL[:p]
    return vec


class TestZeroDimOperandMatchesPythonFloat:
    """A ufunc with a 0-d float64 operand makes the bytes it makes with the same Python float.

    The dense kernels write each scalar operand into a 0-d slot and update in
    place, or into a buffer passed as the ufunc's output, rather than pass a
    Python float and allocate.  The traces keep their bits only while this
    holds, for every operand: signed zeros, subnormals, the largest finite
    values, infinities, nan, and a step count ``n`` up to 2**52 stored into
    the slot.
    """

    UFUNCS = [np.multiply, np.divide, np.add, np.subtract]

    @pytest.mark.parametrize("ufunc", UFUNCS, ids=lambda u: u.__name__)
    @pytest.mark.parametrize("p", [1, 3, 20, 257])
    def test_in_place_and_out_forms(self, ufunc, p):
        vec = _special_vector(p, 37 + p)
        rng = np.random.default_rng(38 + p)
        drawn = rng.standard_normal(20) * np.exp(rng.uniform(-700.0, 700.0, size=20))
        scalars = SPECIAL + drawn.tolist()
        slot, buf = np.empty(()), np.empty(p)
        with np.errstate(all="ignore"):
            for a in scalars:
                slot[()] = a
                assert slot.tobytes() == np.float64(a).tobytes()
                # in place, as theta *= slot
                want, got = vec.copy(), vec.copy()
                ufunc(want, a, out=want)
                ufunc(got, slot, out=got)
                assert got.tobytes() == want.tobytes(), a
                # into a buffer, with the scalar on either side
                for args, plain in (((vec, slot), (vec, a)), ((slot, vec), (a, vec))):
                    ufunc(*args, buf)
                    assert buf.tobytes() == ufunc(*plain).tobytes(), a

    @pytest.mark.parametrize("ufunc", UFUNCS, ids=lambda u: u.__name__)
    def test_step_count_stored_into_the_slot(self, ufunc):
        vec = _special_vector(257, 39)
        slot, buf = np.empty(()), np.empty(257)
        with np.errstate(all="ignore"):
            for n in [1, 2, 3, 7, 1000, 2**31 - 1, 2**31 + 1, 2**52 - 1, 2**52]:
                slot[()] = n
                assert slot.tobytes() == np.float64(float(n)).tobytes(), n
                ufunc(vec, slot, buf)
                assert buf.tobytes() == ufunc(vec, float(n)).tobytes(), n


class TestOperatorMatchesDirectCall:
    """``vec op= operand`` makes the bytes of ``ufunc(vec, operand, vec)``.

    The dense kernels call each ufunc through a module-level name with its
    output array passed, in place of the in-place operators, because the
    direct call skips the operator's dispatch.  The traces keep their bits
    only while the two forms agree, with a 0-d operand and with a length-p
    one, and while ``np.sqrt(a, out)`` makes the bytes of ``np.sqrt(a)``.
    """

    OPERATORS = [(np.add, "__iadd__"), (np.subtract, "__isub__"),
                 (np.multiply, "__imul__"), (np.divide, "__itruediv__")]

    @pytest.mark.parametrize("ufunc, operator", OPERATORS, ids=lambda u: getattr(u, "__name__", u))
    @pytest.mark.parametrize("p", [1, 3, 20, 257])
    def test_in_place_operator_and_direct_call(self, ufunc, operator, p):
        vec = _special_vector(p, 40 + p)
        rng = np.random.default_rng(41 + p)
        drawn = rng.standard_normal(20) * np.exp(rng.uniform(-700.0, 700.0, size=20))
        slot = np.empty(())
        operands = []
        for a in SPECIAL + drawn.tolist():
            slot[()] = a
            operands.append(slot.copy())
        operands += [_special_vector(p, 42 + p + k) for k in range(8)]
        operands += [np.roll(vec, k) for k in range(1, min(p, 8))]
        with np.errstate(all="ignore"):
            for operand in operands:
                want, got = vec.copy(), vec.copy()
                getattr(want, operator)(operand)
                ufunc(got, operand, got)
                assert got.tobytes() == want.tobytes(), operand

    @pytest.mark.parametrize("p", [1, 3, 20, 257])
    def test_sqrt_into_an_output(self, p):
        rng = np.random.default_rng(43 + p)
        out = np.empty(p)
        with np.errstate(all="ignore"):
            for k in range(8):
                a = _special_vector(p, 44 + p + k)
                if k % 2:
                    a = np.abs(a)  # the kernel's operand, an accumulator of squares
                np.sqrt(a, out)
                assert out.tobytes() == np.sqrt(a).tobytes()
                a = rng.standard_normal(p) ** 2 * np.exp(rng.uniform(-700.0, 700.0, size=p))
                np.sqrt(a, out)
                assert out.tobytes() == np.sqrt(a).tobytes()


def test_older_numpy_is_refused_at_import():
    # read_libsvm's bulk path needs NumPy 2.4's loadtxt: an older one, 2.x
    # included, must fail at import, naming the version
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for version in ("1.26.4", "2.3.5"):
        code = f"import numpy; numpy.__version__ = '{version}'; import aisgd"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode != 0
        assert f"ImportError: aisgd needs NumPy >= 2.4; found NumPy {version}" in proc.stderr
