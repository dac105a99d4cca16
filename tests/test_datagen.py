import tracemalloc

import numpy as np
import pytest

from aisgd import (
    Dataset,
    LibsvmFormatError,
    Sample,
    SparseVector,
    SyntheticSpec,
    covariance,
    excess_risk,
    make_normal_design,
    orthogonal_factor,
    read_libsvm,
    shuffle_dataset,
    split_dataset,
    trace_radius,
    write_libsvm,
)
from aisgd.datagen import _STREAM_NOISE, _STREAM_X


class TestSpecValidation:
    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, dim=0)

    def test_rejects_non_positive_noise(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, dim=2, noise_sd=0.0)

    def test_rejects_bad_task(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, dim=2, task="ranking")

    def test_defaults_are_harmonic_and_centered(self):
        spec = SyntheticSpec(n_samples=5, dim=4)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 0.5, 1 / 3, 0.25])
        np.testing.assert_array_equal(spec.theta_star, np.zeros(4))


class TestTraceRadius:
    def test_small_dimensions(self):
        assert trace_radius(SyntheticSpec(n_samples=1, dim=1)) == 1.0
        assert trace_radius(SyntheticSpec(n_samples=1, dim=2)) == 1.5

    def test_harmonic_twenty(self):
        # sum of 1/k for k = 1..20
        expected = sum(1.0 / k for k in range(1, 21))
        got = trace_radius(SyntheticSpec(n_samples=1, dim=20))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(3.597739657143682, rel=1e-12)


class TestCovarianceFactor:
    def test_orthogonality(self):
        spec = SyntheticSpec(n_samples=1, dim=20, seed=3)
        q = orthogonal_factor(spec)
        np.testing.assert_allclose(q.T @ q, np.eye(20), atol=1e-10)

    def test_reconstructed_matrix_is_psd_with_known_floor(self):
        spec = SyntheticSpec(n_samples=1, dim=12, seed=3)
        h = covariance(spec)
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= 1.0 / 12 - 1e-8

    def test_same_seed_same_factor(self):
        a = orthogonal_factor(SyntheticSpec(n_samples=1, dim=6, seed=9))
        b = orthogonal_factor(SyntheticSpec(n_samples=9, dim=6, seed=9))
        np.testing.assert_array_equal(a, b)


class TestExcessRisk:
    def test_zero_at_truth(self):
        spec = SyntheticSpec(n_samples=1, dim=3, theta_star=np.array([1.0, -2.0, 0.5]))
        assert excess_risk(spec.theta_star, spec) == 0.0

    def test_hand_quadratic_form(self):
        # diagonal H = diag(1, 1/2) when Q = I is not guaranteed, so check
        # through the spectrum directly: rotate the offset into eigenbasis.
        spec = SyntheticSpec(n_samples=1, dim=2, seed=0)
        q = orthogonal_factor(spec)
        offset = q @ np.ones(2)  # eigen-coordinates (1, 1)
        assert excess_risk(offset, spec) == pytest.approx(1.5, rel=1e-12)

    def test_matches_dense_quadratic(self):
        rng = np.random.default_rng(31)
        spec = SyntheticSpec(n_samples=1, dim=7, seed=5)
        h = covariance(spec)
        for _ in range(50):
            theta = rng.standard_normal(7)
            direct = float(theta @ h @ theta)
            assert excess_risk(theta, spec) == pytest.approx(direct, rel=1e-10)

    def test_dimension_mismatch(self):
        spec = SyntheticSpec(n_samples=1, dim=3)
        with pytest.raises(ValueError):
            excess_risk(np.zeros(4), spec)

    def test_factor_is_cached_read_only_and_unchanged(self):
        spec = SyntheticSpec(n_samples=1, dim=7, seed=12)
        q = orthogonal_factor(spec)
        assert orthogonal_factor(SyntheticSpec(n_samples=5, dim=7, seed=12)) is q
        assert not q.flags.writeable
        rng = np.random.default_rng([12, 0])
        fresh, r = np.linalg.qr(rng.standard_normal((7, 7)))
        fresh = fresh * np.where(np.diag(r) < 0, -1.0, 1.0)
        assert q.tobytes() == fresh.tobytes()
        theta = np.linspace(-1.0, 2.0, 7)
        v = fresh.T @ (theta - spec.theta_star)
        assert excess_risk(theta, spec) == float(np.sum(spec.eigenvalues * v * v))

    def test_eigenvalue_floor(self):
        rng = np.random.default_rng(32)
        spec = SyntheticSpec(n_samples=1, dim=9, seed=2)
        for _ in range(200):
            theta = rng.standard_normal(9) * 3
            assert excess_risk(theta, spec) >= (1.0 / 9) * float(theta @ theta) - 1e-9


class TestNormalDesign:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_samples=50, dim=4, seed=77)
        a = make_normal_design(spec)
        b = make_normal_design(spec)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x, sb.x)
            assert sa.y == sb.y

    def test_marginal_outcome_variance(self):
        # theta_star = 0 so y is pure unit noise
        spec = SyntheticSpec(n_samples=100_000, dim=1, seed=8)
        data = make_normal_design(spec)
        var = np.var([s.y for s in data])
        assert 0.98 <= var <= 1.02

    def test_empirical_covariance(self):
        spec = SyntheticSpec(n_samples=100_000, dim=5, seed=13)
        data = make_normal_design(spec)
        x = np.stack([s.x for s in data])
        emp = x.T @ x / len(data)
        np.testing.assert_allclose(emp, covariance(spec), atol=0.02)

    def test_excess_risk_matches_prediction_error(self):
        # E[(y - x.theta)^2] - noise^2 equals the quadratic form
        rng = np.random.default_rng(33)
        spec = SyntheticSpec(n_samples=100_000, dim=4, seed=21)
        data = make_normal_design(spec)
        x = np.stack([s.x for s in data])
        y = np.array([s.y for s in data])
        theta = rng.standard_normal(4) * 0.5
        sq = (y - x @ theta) ** 2
        mc = sq.mean() - spec.noise_sd**2
        se = sq.std() / np.sqrt(len(data))
        assert abs(excess_risk(theta, spec) - mc) <= 3 * se

    def test_logistic_labels(self):
        spec = SyntheticSpec(
            n_samples=5000, dim=3, seed=4, task="logistic",
            theta_star=np.array([2.0, 0.0, 0.0]),
        )
        data = make_normal_design(spec)
        labels = {s.y for s in data}
        assert labels == {-1.0, 1.0}
        assert len({id(s.y) for s in data}) == 2  # two shared floats, not one per row

    def test_building_peaks_below_half_a_design_above_what_it_keeps(self):
        # The draws are scaled in place and dropped before the rows are built.
        spec = SyntheticSpec(n_samples=20_000, dim=20, seed=6)
        tracemalloc.start()
        try:
            data = make_normal_design(spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 0.5 * data[0].x.base.nbytes

    def test_shuffle_is_seeded_permutation(self):
        spec = SyntheticSpec(n_samples=30, dim=2, seed=1)
        data = make_normal_design(spec)
        a = shuffle_dataset(data, 5)
        b = shuffle_dataset(data, 5)
        c = shuffle_dataset(data, 6)
        ya = [s.y for s in a]
        assert ya == [s.y for s in b]
        assert ya != [s.y for s in c]
        assert sorted(ya) == sorted(s.y for s in data)

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_rows_are_views_identical_to_checked_samples(self, task):
        # Rebuild the design from the documented child streams; every row must
        # equal Sample(x[i], y[i]) bit for bit and be a view of one matrix.
        n, p = 64, 5
        spec = SyntheticSpec(n_samples=n, dim=p, seed=3, task=task, theta_star=np.ones(p))
        data = make_normal_design(spec)
        z = np.random.default_rng([3, _STREAM_X]).standard_normal((n, p))
        x = (z * np.sqrt(spec.eigenvalues)) @ orthogonal_factor(spec).T
        noise = np.random.default_rng([3, _STREAM_NOISE])
        if task == "linear":
            y = x @ spec.theta_star + noise.standard_normal(n)
        else:
            prob = 1.0 / (1.0 + np.exp(-(x @ spec.theta_star)))
            y = np.where(noise.uniform(size=n) < prob, 1.0, -1.0)
        assert len(data) == n and data.dim == p and data.spec is spec
        base = data[0].x.base
        assert base.shape == (n, p) and base.flags.c_contiguous
        for i, s in enumerate(data):
            ref = Sample(x[i], y[i])
            assert s.x.base is base and s.x.shape == (p,) and s.x.dtype == np.float64
            assert s.x.tobytes() == ref.x.tobytes()
            assert type(s.y) is float and s.y.hex() == ref.y.hex()
            assert s.dim == p

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 20, 33, 100])
    def test_row_norms_match_the_checked_norm_bit_for_bit(self, p):
        data = make_normal_design(SyntheticSpec(n_samples=200, dim=p, seed=p))
        for s in data:
            assert s.c.hex() == float(np.dot(s.x, s.x)).hex()

    def test_non_finite_design_raises_the_sample_error(self):
        overflow = SyntheticSpec(n_samples=10, dim=3, theta_star=np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^outcome y must be finite$"):
            make_normal_design(overflow)
        wide = SyntheticSpec(n_samples=10, dim=2, eigenvalues=np.array([1.0, np.inf]))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^feature vector must be finite$"):
            make_normal_design(wide)

    def test_split_preserves_order_and_sizes(self):
        spec = SyntheticSpec(n_samples=40, dim=2, seed=1)
        data = make_normal_design(spec)
        train, test = split_dataset(data, 0.25)
        assert len(train) == 30 and len(test) == 10
        assert test[0].y == data[30].y


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.svm"
        path.write_text("+1 1:0.5 3:2.0\n")
        data = read_libsvm(path)
        assert data.dim == 3
        s = data[0]
        assert s.y == 1.0
        np.testing.assert_array_equal(s.x.indices, [0, 2])
        np.testing.assert_array_equal(s.x.values, [0.5, 2.0])

    def test_zero_one_label_mapping(self, tmp_path):
        path = tmp_path / "b.svm"
        path.write_text("0 2:1\n1 1:1\n-1 1:2\n3 2:1\n")
        data = read_libsvm(path)
        assert data[0].y == -1.0
        assert data[1].y == 1.0
        assert [s.y for s in data[2:]] == [-1.0, 1.0]
        assert len({id(s.y) for s in data}) == 2  # two shared floats, not one per row

    def test_raw_labels_kept_when_not_binary(self, tmp_path):
        path = tmp_path / "c.svm"
        path.write_text("3 1:1\n")
        assert read_libsvm(path, binary=False)[0].y == 3.0

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.svm"
        bad_lines = [
            "+1 nonsense", "+1 1:nan", "+1 1:inf", "+1 1:-inf",  # feature tokens
            "x 1:1", "nan 1:1", "inf 1:1", "-inf 1:1",  # labels
            "+1 99999999999999999999:1",  # index beyond int64
        ]
        for bad in bad_lines:
            path.write_text(f"+1 1:0.5\n{bad}\n")
            with pytest.raises(LibsvmFormatError, match="d.svm:2"):
                read_libsvm(path)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "g.svm"
        cases = [
            "+1 1:0.5\n+1 2:1 1:1\n+1 x:1\n",  # ordering on line 2, token on line 3
            "# no features\nnan\n+1\n",  # bad label where no index sets the dimension
        ]
        for text in cases:
            path.write_text(text)
            with pytest.raises(LibsvmFormatError, match="g.svm:2"):
                read_libsvm(path)

    def test_row_norms_match_the_checked_norm_bit_for_bit(self, tmp_path):
        path = tmp_path / "n.svm"
        rng = np.random.default_rng(5)
        lines = ["-1", "+1 3:0"]  # a label-only line and an explicit zero
        for _ in range(200):
            idx = np.sort(rng.choice(50, size=int(rng.integers(1, 12)), replace=False)) + 1
            val = rng.standard_normal(idx.size) * 10.0 ** rng.integers(-3, 4)
            lines.append("+1 " + " ".join(f"{i}:{v:.17g}" for i, v in zip(idx, val)))
        path.write_text("\n".join(lines) + "\n")
        data = read_libsvm(path)
        assert len(data) == 202 and data[0].x.values.size == 0 and data[0].c == 0.0
        for s in data:
            assert s.c.hex() == float(s.x.values @ s.x.values).hex()
            assert s.c.hex() == Sample(s.x, s.y).c.hex()

    def test_undecodable_line_is_named(self, tmp_path):
        path = tmp_path / "u.svm"
        # one bad byte, on a line in the reader's second 64-line chunk
        path.write_bytes(b"+1 1:0.5\n" * 70 + b"-1 2:0.\xff5\n+1 1:1\n")
        with pytest.raises(LibsvmFormatError, match=r"^.*u\.svm:71: not valid UTF-8"):
            read_libsvm(path)
        path.write_bytes(b"# caf\xe9\n+1 1:1\n")  # a Latin-1 comment
        with pytest.raises(LibsvmFormatError, match=r"u\.svm:1: "):
            read_libsvm(path)

    def test_non_increasing_indices_rejected(self, tmp_path):
        path = tmp_path / "e.svm"
        path.write_text("+1 2:1 2:1\n")
        with pytest.raises(LibsvmFormatError, match=":1"):
            read_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.svm"
        path.write_text("")
        with pytest.raises(LibsvmFormatError):
            read_libsvm(path)

    def test_round_trip_keeps_every_float_bit(self, tmp_path):
        rng = np.random.default_rng(43)
        p = 40
        special = [5e-324, -2.2250738585072009e-308, 1e-310, 1e308, -1e308, -0.0, 0.1]
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        pool = np.concatenate([special, bits[np.isfinite(bits)]])
        # The reader rejects a row whose ||x||^2 overflows, so each value past
        # 2**500 travels as the label of a row without pairs.
        huge = np.abs(pool) > 2.0**500
        samples = [Sample(SparseVector([], [], p), y) for y in pool[huge]]
        values = pool[~huge]
        path = tmp_path / "bits.svm"
        for start in range(0, values.size, 30):
            val = values[start:start + 30]
            idx = np.sort(rng.choice(p, size=val.size, replace=False))
            samples.append(Sample(SparseVector(idx, val, p), rng.standard_normal()))
        write_libsvm(Dataset(samples, dim=p), path)
        back = read_libsvm(path, binary=False, dim=p)
        assert len(back) == len(samples)
        for sa, sb in zip(samples, back):
            assert sa.y.hex() == sb.y.hex()
            assert sa.x.indices.tobytes() == sb.x.indices.tobytes()
            assert sa.x.values.tobytes() == sb.x.values.tobytes()

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        p = 25
        samples = []
        for _ in range(100):
            k = int(rng.integers(1, 6))
            idx = np.sort(rng.choice(p, size=k, replace=False))
            val = rng.standard_normal(k)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            samples.append(Sample(SparseVector(idx, val, p), y))
        data = Dataset(samples, dim=p)
        path = tmp_path / "rt.svm"
        write_libsvm(data, path)
        back = read_libsvm(path, dim=p)
        assert len(back) == len(data)
        for sa, sb in zip(data, back):
            assert sa.y == sb.y
            np.testing.assert_array_equal(sa.x.indices, sb.x.indices)
            np.testing.assert_array_equal(sa.x.values, sb.x.values)
