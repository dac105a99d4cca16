"""The row validators: every check that SparseVector and Sample make.

``read_libsvm`` relies on these constructors for its row checks, so each
rejected input is pinned here.  The 1-d products of ``dot``, ``sq_norm`` and
``is_diverged`` are pinned to the ``@`` operator, bit for bit, and on strided
views to ``np.dot``; ``np.vecdot`` over stacked rows is pinned to ``dot``,
and over a stack of rows with itself to each row's ``dot`` with itself.
A ufunc with a 0-d float64 operand, in place or into a buffer, is pinned to
the same ufunc with a Python float, as the dense kernels count on.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aisgd import Sample, SparseVector, add_scaled, dot, sq_norm
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


class TestZeroDimOperandMatchesPythonFloat:
    """A ufunc with a 0-d float64 operand makes the bytes it makes with the same Python float.

    The dense kernels write each scalar operand into a 0-d slot and update in
    place, or into a buffer passed as the ufunc's output, rather than pass a
    Python float and allocate.  The traces keep their bits only while this
    holds, for every operand: signed zeros, subnormals, the largest finite
    values, infinities, nan, and a step count ``n`` up to 2**52 stored into
    the slot.
    """

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
               math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 3.0]
    UFUNCS = [np.multiply, np.divide, np.add, np.subtract]

    def _vector(self, p, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(p) * np.exp(rng.uniform(-700.0, 700.0, size=p))
        vec[: len(self.SPECIAL)] = self.SPECIAL[:p]
        return vec

    @pytest.mark.parametrize("ufunc", UFUNCS, ids=lambda u: u.__name__)
    @pytest.mark.parametrize("p", [1, 3, 20, 257])
    def test_in_place_and_out_forms(self, ufunc, p):
        vec = self._vector(p, 37 + p)
        rng = np.random.default_rng(38 + p)
        drawn = rng.standard_normal(20) * np.exp(rng.uniform(-700.0, 700.0, size=20))
        scalars = self.SPECIAL + drawn.tolist()
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
        vec = self._vector(257, 39)
        slot, buf = np.empty(()), np.empty(257)
        with np.errstate(all="ignore"):
            for n in [1, 2, 3, 7, 1000, 2**31 - 1, 2**31 + 1, 2**52 - 1, 2**52]:
                slot[()] = n
                assert slot.tobytes() == np.float64(float(n)).tobytes(), n
                ufunc(vec, slot, buf)
                assert buf.tobytes() == ufunc(vec, float(n)).tobytes(), n


def test_older_numpy_is_refused_at_import():
    # read_libsvm's bulk path needs NumPy 2.4's loadtxt: an older one, 2.x
    # included, must fail at import, naming the version
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for version in ("1.26.4", "2.3.5"):
        code = f"import numpy; numpy.__version__ = '{version}'; import aisgd"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode != 0
        assert f"ImportError: aisgd needs NumPy >= 2.4; found NumPy {version}" in proc.stderr
