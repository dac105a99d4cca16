import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from aisgd import (
    ConfigError,
    ConstantRate,
    Dataset,
    ExperimentConfig,
    Sample,
    SyntheticSpec,
    TracePoint,
    build_config,
    calibrate_eta0,
    classification_error,
    fit_loglog_slope,
    loss_from_name,
    make_normal_design,
    parse_config_text,
    read_libsvm,
    run_benchmark,
    sensitivity_sweep,
)
from aisgd.experiments import materialize
from aisgd.vectors import SparseVector, dot

BASE_TEXT = """
# minimal linear benchmark
task = linear
algorithms = aisgd, isgd
loss = squared
schedule.kind = constant
schedule.gamma = 0.1
n = 200
p = 3
seed = 5
eval_every = 50
out = {out}
"""


def _config(tmp_path, **kw):
    raw = parse_config_text(BASE_TEXT.format(out=tmp_path / "results"))
    raw.update({k: str(v) for k, v in kw.items()})
    return build_config(raw)


class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        config = _config(tmp_path)
        assert config.algorithms == ["aisgd", "isgd"]
        assert config.schedules == [ConstantRate(0.1)]
        assert config.n_samples == 200 and config.dim == 3

    def test_comment_and_blank_lines_skipped(self):
        raw = parse_config_text("# note\n\na = 1\n")
        assert raw == {"a": "1"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("task linear")

    def test_missing_required_key(self, tmp_path):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        del raw["task"]
        with pytest.raises(ConfigError, match="task"):
            build_config(raw)

    def test_empty_algorithms_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="algorithm"):
            _config(tmp_path, algorithms="")

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="newton"):
            _config(tmp_path, algorithms="newton")

    def test_schedule_lists_expand(self, tmp_path):
        config = _config(tmp_path, **{"schedule.gamma": "0.1, 0.2, 0.4"})
        assert len(config.schedules) == 3

    def test_xu_auto_sentinel(self, tmp_path):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        raw["schedule.kind"] = "xu"
        raw["schedule.eta0"] = "auto"
        del raw["schedule.gamma"]
        config = build_config(raw)
        assert config.schedules == ["xu:auto"]


class TestRunBenchmark:
    def test_single_sample_single_row(self, tmp_path):
        config = _config(tmp_path, n=1, eval_every=1, algorithms="sgd")
        results = run_benchmark(config)
        assert len(results) == 1
        csv = (config.out_dir / "sgd-const0.1.csv").read_text().splitlines()
        assert csv[0] == "run_id,n,metric,diverged,wall_ms"
        assert len(csv) == 2

    def test_row_count_is_ceiling_per_pass(self, tmp_path):
        config = _config(tmp_path, n=105, eval_every=25, passes=2, algorithms="sgd")
        results = run_benchmark(config)
        rows = [pt.n for pt in results[0].trace]
        # ceil(105/25) = 5 rows per pass
        assert rows == [25, 50, 75, 100, 105, 130, 155, 180, 205, 210]

    def test_one_trace_per_algorithm_schedule_pair(self, tmp_path):
        config = _config(
            tmp_path, algorithms="sgd, isgd", **{"schedule.gamma": "0.1, 0.2"}
        )
        results = run_benchmark(config)
        assert len(results) == 4
        assert len({r.run_id for r in results}) == 4
        for r in results:
            assert (config.out_dir / f"{r.run_id}.csv").exists()

    def test_same_iterates_for_implicit_pair(self, tmp_path):
        config = _config(tmp_path, algorithms="isgd, aisgd", init_norm=1.0)
        results = {r.algorithm: r for r in run_benchmark(config, write_csv=False)}
        np.testing.assert_array_equal(
            results["isgd"].state.theta, results["aisgd"].state.theta
        )

    def test_deterministic_csv_modulo_wall_ms(self, tmp_path):
        def strip_wall(path):
            lines = path.read_text().splitlines()
            return ["," .join(l.split(",")[:-1]) for l in lines]

        config_a = _config(tmp_path, out=tmp_path / "a")
        config_b = _config(tmp_path, out=tmp_path / "b")
        run_benchmark(config_a)
        run_benchmark(config_b)
        for name in ("aisgd-const0.1.csv", "isgd-const0.1.csv"):
            assert strip_wall(config_a.out_dir / name) == strip_wall(
                config_b.out_dir / name
            )

    def test_eval_every_larger_than_data_rejected(self, tmp_path):
        config = _config(tmp_path, eval_every=500)
        with pytest.raises(ConfigError, match="eval_every"):
            run_benchmark(config, write_csv=False)

    def test_output_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        config = _config(tmp_path, out=out, algorithms="sgd")
        run_benchmark(config)
        assert out.is_dir()

    def test_synthetic_logistic_reports_test_error(self, tmp_path):
        config = _config(
            tmp_path,
            task="logistic",
            loss="logistic",
            theta_star_norm=3.0,
            test_fraction=0.25,
            algorithms="aisgd",
            n=400,
        )
        result = run_benchmark(config, write_csv=False)[0]
        assert 0.0 <= result.final_metric <= 1.0


class TestClassificationError:
    def test_perfect_separator(self):
        samples = [Sample(np.array([1.0, 0.0]), 1.0), Sample(np.array([-1.0, 0.0]), -1.0)]
        data = Dataset(samples, dim=2)
        assert classification_error(np.array([1.0, 0.0]), data) == 0.0

    def test_zero_vector_predicts_positive(self):
        samples = [
            Sample(np.array([1.0]), 1.0),
            Sample(np.array([2.0]), -1.0),
            Sample(np.array([3.0]), -1.0),
            Sample(np.array([4.0]), 1.0),
        ]
        data = Dataset(samples, dim=1)
        # sign(0) counts as +1, so the error is the fraction of -1 labels
        assert classification_error(np.zeros(1), data) == 0.5

    def test_brute_force_recount(self):
        rng = np.random.default_rng(51)
        samples = [
            Sample(rng.standard_normal(3), 1.0 if rng.uniform() < 0.5 else -1.0)
            for _ in range(100)
        ]
        data = Dataset(samples, dim=3)
        theta = rng.standard_normal(3)
        wrong = 0
        for s in samples:
            u = sum(float(a * b) for a, b in zip(s.x, theta))
            pred = 1.0 if u >= 0 else -1.0
            wrong += pred != s.y
        assert classification_error(theta, data) == wrong / 100

    def test_sparse_rows_match_brute_force(self):
        rng = np.random.default_rng(52)
        p = 30
        samples = [Sample(SparseVector([], [], p), -1.0)]  # an empty row: margin 0
        for _ in range(200):
            idx = np.sort(rng.choice(p, size=int(rng.integers(1, 6)), replace=False))
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            samples.append(Sample(SparseVector(idx, rng.standard_normal(idx.size), p), y))
        theta = rng.standard_normal(p)
        theta[p // 2:] = 0.0  # rows on these coordinates alone have margin exactly 0
        data = Dataset(samples, dim=p)
        wrong = sum((1.0 if dot(s.x, theta) >= 0.0 else -1.0) != s.y for s in samples)
        assert any(dot(s.x, theta) == 0.0 and s.y == -1.0 for s in samples)
        assert classification_error(theta, data) == wrong / len(samples)
        dense = Dataset([Sample(s.x.toarray(), s.y) for s in samples], dim=p)
        assert classification_error(theta, dense) == wrong / len(samples)


class TestSlopeFit:
    @staticmethod
    def _trace(metric_fn, count=100):
        return [
            TracePoint("t", n, metric_fn(n), False, 0.0)
            for n in range(1, count + 1)
        ]

    def test_exact_one_over_n(self):
        slope = fit_loglog_slope(self._trace(lambda n: 1.0 / n))
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_exact_power_two_thirds(self):
        slope = fit_loglog_slope(self._trace(lambda n: n ** (-2.0 / 3.0)))
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_window_fraction_selects_tail(self):
        # decays as 1/n for the first half, flat afterwards
        pts = self._trace(lambda n: 1.0 / n if n <= 50 else 0.02)
        assert fit_loglog_slope(pts, 0.4) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_finite_points(self):
        pts = self._trace(lambda n: 1.0 / n, count=30)
        pts = [
            TracePoint("t", p.n, math.inf if p.n > 18 else p.metric, p.n > 18, 0.0)
            for p in pts
        ]
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slope(pts, 0.5)

    def test_non_positive_metric(self):
        pts = self._trace(lambda n: 1.0 / n - 0.02)
        with pytest.raises(ValueError, match="non-positive"):
            fit_loglog_slope(pts, 0.5)

    def test_bad_window_fraction(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(self._trace(lambda n: 1.0 / n), 1.0)


class TestSensitivitySweep:
    def test_single_value_matches_benchmark(self, tmp_path):
        config = _config(tmp_path, algorithms="aisgd, isgd")
        sweep = sensitivity_sweep(config, "gamma_constant", [0.1], write_csv=False)
        bench = run_benchmark(config, write_csv=False)
        for j, algo in enumerate(sweep.algorithms):
            match = [r for r in bench if r.algorithm == algo][0]
            assert sweep.finals[0, j] == match.final_metric

    def test_unknown_axis(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(ConfigError, match="axis"):
            sensitivity_sweep(config, "momentum", [0.1], write_csv=False)

    def test_lambda_axis_wide_csv(self, tmp_path):
        config = _config(tmp_path, algorithms="sgd", n=100, eval_every=50)
        sweep = sensitivity_sweep(config, "lambda", [1e-3, 1e-2])
        lines = sweep.csv_path.read_text().splitlines()
        assert lines[0] == "value,sgd"
        assert len(lines) == 3
        assert sweep.finals.shape == (2, 1)

    def test_requires_single_schedule(self, tmp_path):
        config = _config(tmp_path, **{"schedule.gamma": "0.1, 0.2"})
        with pytest.raises(ConfigError, match="schedule"):
            sensitivity_sweep(config, "lambda", [1e-3], write_csv=False)

    @pytest.mark.parametrize("values", [[-1.0], [math.nan], [math.inf], [1e-3, -1.0]])
    def test_invalid_lambda_raises_before_any_run(self, tmp_path, values):
        config = _config(tmp_path)
        with pytest.raises(ValueError, match="lam"):
            sensitivity_sweep(config, "lambda", values)
        assert not config.out_dir.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_lambda_in_config(self, tmp_path, value):
        with pytest.raises(ConfigError, match="lam"):
            _config(tmp_path, **{"lambda": value})


class TestEta0Calibration:
    def test_returns_candidate_and_is_deterministic(self):
        spec = SyntheticSpec(n_samples=2000, dim=5, seed=3, task="logistic",
                             theta_star=np.array([2.0, 1.0, 0.0, 0.0, 0.0]))
        data = make_normal_design(spec)
        loss = loss_from_name("logistic")
        a = calibrate_eta0(data, loss, "aisgd", seed=3)
        b = calibrate_eta0(data, loss, "aisgd", seed=3)
        assert a == b
        r2 = np.mean([float(s.x @ s.x) for s in data])
        # candidate grid is 2**k / r2hat with r2hat from a subset, so the
        # product against the full-data mean is only roughly a power of 2
        ratio = math.log2(a * r2)
        assert abs(ratio - round(ratio)) < 0.35

    def test_auto_resolution_in_benchmark(self, tmp_path):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path / "x"))
        raw.update(
            {
                "schedule.kind": "xu",
                "schedule.eta0": "auto",
                "task": "logistic",
                "loss": "logistic",
                "algorithms": "aisgd",
                "theta_star_norm": "2.0",
                "n": "500",
                "eval_every": "100",
            }
        )
        del raw["schedule.gamma"]
        config = build_config(raw)
        results = run_benchmark(config, write_csv=False)
        assert results[0].run_id.startswith("aisgd-xu")


class TestConfigValidation:
    def test_construction_validates(self):
        with pytest.raises(ConfigError, match="data.path or both n and p"):
            ExperimentConfig(
                task="linear",
                algorithms=["aisgd"],
                loss=loss_from_name("squared"),
                schedules=[ConstantRate(0.1)],
                seed=0,
            )

    def test_replace_revalidates(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(ConfigError, match="passes"):
            dc_replace(config, passes=0)


class TestTrainTestDimension:
    """A libsvm train/test pair of different widths shares one dimension."""

    TRAIN = "+1 1:0.5 3:1\n-1 2:-1\n+1 3:2\n-1 1:-0.5 2:1\n"

    def _pair(self, tmp_path, train_text, test_text):
        train_path, test_path = tmp_path / "train.svm", tmp_path / "test.svm"
        train_path.write_text(train_text)
        test_path.write_text(test_text)
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path / "results"))
        for key in ("n", "p"):
            del raw[key]
        raw.update(
            {
                "task": "logistic",
                "loss": "logistic",
                "data.path": str(train_path),
                "test.path": str(test_path),
                "eval_every": "2",
            }
        )
        return build_config(raw), train_path, test_path

    @staticmethod
    def _assert_rows_equal(got, want):
        assert got.dim == want.dim and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.y == b.y and a.x.dim == b.x.dim
            np.testing.assert_array_equal(a.x.indices, b.x.indices)
            np.testing.assert_array_equal(a.x.values, b.x.values)

    @pytest.mark.parametrize(
        "test_text, dim",
        [("+1 2:1 7:0.25\n-1 1:1\n", 7), ("+1 2:1\n-1 1:1\n", 3)],
        ids=["test-wider", "train-wider"],
    )
    def test_materialize_and_run(self, tmp_path, test_text, dim):
        config, train_path, test_path = self._pair(tmp_path, self.TRAIN, test_text)
        spec, train, test = materialize(config)
        assert spec is None
        assert train.dim == test.dim == dim
        self._assert_rows_equal(train, read_libsvm(train_path, dim=dim))
        self._assert_rows_equal(test, read_libsvm(test_path, dim=dim))
        results = run_benchmark(config)
        assert len(results) == 2
        assert all(r.state.theta.shape == (dim,) for r in results)
        assert all(len(r.trace) == 2 for r in results)
