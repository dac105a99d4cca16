import importlib.util
import math
import sys
import warnings
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from aisgd import (
    ConfigError,
    ConstantRate,
    Dataset,
    ExperimentConfig,
    PolynomialRate,
    RunResult,
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
from aisgd.cli import main as cli_main
from aisgd import datagen, experiments
from aisgd.experiments import CONFIG_KEYS, _override_for_axis, load_config, materialize
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

ROOT = Path(__file__).resolve().parents[1]


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


class TestConfigKeys:
    """Every key outside the documented set is rejected, so no typo runs on a default."""

    def test_shipped_and_benchmark_configs_load(self, tmp_path, monkeypatch):
        paths = sorted((ROOT / "configs").glob("*.cfg"))
        assert len(paths) >= 2
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        path = ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        for name, workload in workloads.WORKLOADS.items():
            configs = workload.write_inputs(1, tmp_path / name, scale=0.02)
            paths += [c.path for c in configs]
        assert len(paths) >= 6
        for path in paths:
            assert set(parse_config_text(path.read_text())) <= CONFIG_KEYS, path
            load_config(path)

    def test_typo_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'eval_evry'"):
            _config(tmp_path, eval_evry=10)

    def test_typo_override_rejected(self, tmp_path, capsys):
        path = tmp_path / "base.cfg"
        path.write_text(BASE_TEXT.format(out=tmp_path / "results"))
        with pytest.raises(ConfigError, match="'seeed'.*'thetastar_norm'"):
            load_config(path, {"seeed": "3", "thetastar_norm": "2"})
        assert cli_main(["bench", str(path), "--set", "eval_evry=10"]) == 1
        assert "eval_evry" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


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
        results = {r.algorithm: r for r in run_benchmark(config)}
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
            run_benchmark(config)

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
        result = run_benchmark(config)[0]
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

    def test_run_result_is_read_through_its_trace(self):
        pts = self._trace(lambda n: n ** (-2.0 / 3.0))
        assert fit_loglog_slope(RunResult("t", "sgd", pts)) == fit_loglog_slope(pts)


class TestSensitivitySweep:
    def test_no_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="^sweep needs at least one value$"):
            sensitivity_sweep(_config(tmp_path), "lambda", [])

    def test_single_value_matches_benchmark(self, tmp_path):
        config = _config(tmp_path, algorithms="aisgd, isgd")
        sweep = sensitivity_sweep(config, "gamma_constant", [0.1])
        bench = run_benchmark(config)
        for j, algo in enumerate(sweep.algorithms):
            match = [r for r in bench if r.algorithm == algo][0]
            assert sweep.finals[0, j] == match.final_metric

    def test_unknown_axis(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(ConfigError, match="axis"):
            sensitivity_sweep(config, "momentum", [0.1])

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
            sensitivity_sweep(config, "lambda", [1e-3])

    @pytest.mark.parametrize("values", [[-1.0], [math.nan], [math.inf], [1e-3, -1.0]])
    def test_invalid_lambda_raises_before_any_run(self, tmp_path, values):
        config = _config(tmp_path)
        with pytest.raises(ValueError, match="lam"):
            sensitivity_sweep(config, "lambda", values)
        assert not config.out_dir.exists()

    @pytest.mark.parametrize("values", [[1e-5, 1.000001e-5], [1e-3, 1e-2, 1e-3]])
    def test_colliding_subdirectories_raise_before_any_run(self, tmp_path, values):
        config = _config(tmp_path)
        with pytest.raises(ConfigError, match="lambda_"):
            sensitivity_sweep(config, "lambda", values)
        assert not config.out_dir.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_lambda_in_config(self, tmp_path, value):
        with pytest.raises(ConfigError, match="lam"):
            _config(tmp_path, **{"lambda": value})

    @pytest.mark.parametrize(
        "axis, values, keys",
        [
            ("lambda", [1e-3, 1e-1], {}),
            ("gamma1", [0.05, 0.2], {"schedule.kind": "poly", "schedule.gamma1": "0.1",
                                     "schedule.exponent": "0.7"}),
            ("eta0", [0.5, 2.0], {"task": "logistic", "loss": "logistic", "test_fraction": "0.25"}),
        ],
    )
    def test_data_built_once_with_unchanged_results(self, tmp_path, monkeypatch, axis, values, keys):
        config = _config(tmp_path, algorithms="sgd, aisgd", **keys)
        calls = []
        monkeypatch.setattr(experiments, "materialize",
                            lambda c: calls.append(c) or materialize(c))
        sweep = sensitivity_sweep(config, axis, values)
        assert len(calls) == 1

        def rows(path):  # every column but wall_ms
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        for i, value in enumerate(values):
            ref = tmp_path / "ref" / str(i)
            sub = dc_replace(_override_for_axis(config, axis, value), out_dir=ref)
            results = {r.algorithm: r for r in run_benchmark(sub)}
            assert list(sweep.finals[i]) == [results[a].final_metric for a in sweep.algorithms]
            assert list(sweep.diverged[i]) == [results[a].diverged for a in sweep.algorithms]
            swept = config.out_dir / f"{axis}_{value:g}"
            assert sorted(f.name for f in swept.iterdir()) == sorted(f.name for f in ref.iterdir())
            for f in swept.iterdir():
                assert rows(f) == rows(ref / f.name)

    def test_gamma1_axis_keeps_the_polynomial_exponent(self, tmp_path):
        config = _config(tmp_path, **{"schedule.kind": "poly", "schedule.gamma1": "0.1",
                                      "schedule.exponent": "0.7"})
        assert _override_for_axis(config, "gamma1", 0.3).schedules == [PolynomialRate(0.3, 0.7)]

    @pytest.mark.parametrize(
        "keys, kind",
        [({}, "const/constant"), ({"schedule.kind": "xu", "schedule.eta0": "0.5"}, "xu"),
         ({"schedule.kind": "xu", "schedule.eta0": "auto"}, "xu:auto")],
    )
    def test_gamma1_axis_needs_a_polynomial_base(self, tmp_path, capsys, keys, kind):
        config = _config(tmp_path, **keys)
        with pytest.raises(ConfigError, match=f"polynomial base schedule, not {kind}$"):
            sensitivity_sweep(config, "gamma1", [0.5])
        assert not config.out_dir.exists()
        cfg = tmp_path / "base.cfg"
        cfg.write_text(BASE_TEXT.format(out=tmp_path / "cli")
                       + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli_main(["sweep", str(cfg), "--axis", "gamma1", "--values", "0.5"]) == 1
        assert f"not {kind}\n" in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()


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

    def test_all_zero_features_cannot_calibrate(self):
        data = Dataset([Sample(np.zeros(3), 1.0) for _ in range(20)], dim=3)
        with pytest.raises(ConfigError, match="^cannot calibrate eta0: all-zero features$"):
            calibrate_eta0(data, loss_from_name("logistic"), "aisgd", seed=1)

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
        results = run_benchmark(config)
        assert results[0].run_id.startswith("aisgd-xu")


class TestEta0Choice:
    """The pilot with the lowest finite final wins; ties go to the smaller eta0."""

    @staticmethod
    def _pick(monkeypatch, finals):
        etas = []

        def stub(algorithm, loss, schedules, samples, evaluator):
            etas.extend(s.eta0 for s in schedules)
            return finals

        monkeypatch.setattr(experiments, "_lockstep_finals", stub)
        return calibrate_eta0(_count_rows(None), loss_from_name("squared"), "sgd", seed=1), etas

    def test_tie_picks_the_smaller_eta0(self, monkeypatch):
        finals = [5.0] * 11
        finals[3] = finals[7] = 1.0
        eta0, etas = self._pick(monkeypatch, finals)
        assert etas == sorted(etas) and eta0 == etas[3]

    def test_nan_and_inf_never_win(self, monkeypatch):
        nan, inf = math.nan, math.inf
        finals = [nan, inf, 2.0, nan, 1.5, inf, 3.0, nan, 4.0, 1.75, inf]
        eta0, etas = self._pick(monkeypatch, finals)
        assert eta0 == etas[4]

    def test_no_finite_final_raises(self, monkeypatch):
        finals = [math.nan, math.inf, -math.inf] * 3 + [math.nan, math.inf]
        with pytest.raises(ConfigError, match="every pilot run diverged"):
            self._pick(monkeypatch, finals)


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

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"task": "ranking"}, "^task must be 'linear' or 'logistic'$"),
            ({"schedules": []}, "^at least one learning-rate schedule is required$"),
            ({"eval_every": 0}, "^eval_every must be >= 1$"),
            ({"test_fraction": 0.0}, r"^test_fraction must lie in \(0, 1\)$"),
            ({"test_fraction": 1.0}, r"^test_fraction must lie in \(0, 1\)$"),
        ],
        ids=["task", "no-schedules", "eval-every", "test-fraction-0", "test-fraction-1"],
    )
    def test_each_invalid_field_is_named(self, tmp_path, field, message):
        with pytest.raises(ConfigError, match=message):
            dc_replace(_config(tmp_path), **field)


class TestConfigsThatCannotRunAsWritten:
    """Each is refused when built, before any data, with a message that names the fix."""

    @pytest.mark.parametrize("keys", [("n",), ("p",), ("n", "p")])
    def test_n_or_p_beside_data_path(self, tmp_path, keys):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        for key in {"n", "p"} - set(keys):
            del raw[key]
        raw["data.path"] = str(tmp_path / "never-read.svm")
        with pytest.raises(ConfigError, match="go unread beside data.path; drop them"):
            build_config(raw)

    @pytest.mark.parametrize(
        "keys",
        [("noise_sd",), ("theta_star_norm",), ("n", "noise_sd", "theta_star_norm")],
        ids=["noise_sd", "theta_star_norm", "three"],
    )
    def test_synthetic_only_keys_beside_data_path(self, tmp_path, keys):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        for key in ("n", "p"):
            del raw[key]
        raw["data.path"] = str(tmp_path / "never-read.svm")
        named = rf"^synthetic-data key\(s\) {', '.join(keys)} go unread beside data.path; drop them$"
        with pytest.raises(ConfigError, match=named):
            build_config({**raw, **{key: "3" for key in keys}})
        # task stays accepted beside data.path, unread: aisgd fit always sets it
        assert build_config(raw).task == "linear"

    @pytest.mark.parametrize("loss", ["squared", "logistic", "hinge:0.5"])
    def test_noise_sd_on_logistic_synthetic_data(self, tmp_path, loss):
        with pytest.raises(ConfigError,
                           match="^noise_sd goes unread on logistic synthetic data; drop it$"):
            _config(tmp_path, task="logistic", loss=loss, noise_sd=1.0)
        assert _config(tmp_path, task="logistic", loss=loss).noise_sd is None
        assert _config(tmp_path, noise_sd=2.0).noise_sd == 2.0

    @pytest.mark.parametrize("loss", ["logistic", "hinge:0.5"])
    def test_sign_label_loss_on_linear_synthetic_data(self, tmp_path, loss):
        with pytest.raises(ConfigError, match=r"needs \+1/-1 labels; set task = logistic"):
            _config(tmp_path, loss=loss)
        assert _config(tmp_path, loss=loss, task="logistic").loss.name == loss.split(":")[0]

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_poisson_on_synthetic_data(self, tmp_path, task):
        with pytest.raises(ConfigError, match="poisson loss; give data.path"):
            _config(tmp_path, loss="poisson", task=task)


class TestSyntheticValuesRefusedWhenBuilt:
    """build_config refuses values the synthetic data cannot take, naming the key;
    n, p and noise_sd through SyntheticSpec's own checks, with the spec's text."""

    @pytest.mark.parametrize("key", ["theta_star_norm", "init_norm"])
    def test_negative_norm_names_the_key(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"^{key} must be finite and >= 0$"):
            _config(tmp_path, **{key: "-5"})
        assert getattr(_config(tmp_path, **{key: "0"}), key) == 0.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", "0", "sample count must be >= 1"),
            ("p", "-1", "dimension p must be >= 1"),
            ("noise_sd", "0", "noise_sd must be positive"),
        ],
        ids=["n", "p", "noise_sd"],
    )
    def test_spec_check_runs_when_the_config_is_built(self, tmp_path, key, value, message):
        name = {"n": "n_samples", "p": "dim", "noise_sd": "noise_sd"}[key]
        with pytest.raises(ValueError, match=f"^{message}$"):  # the spec's own text
            SyntheticSpec(**{"n_samples": 10, "dim": 2, name: float(value)})
        with pytest.raises(ConfigError, match=f"^{message}$"):
            _config(tmp_path, **{key: value})


class TestOneTraceFilePerRun:
    """Two runs whose run ids coincide would write one CSV; the config is refused."""

    @pytest.mark.parametrize(
        "keys, shared",
        [
            ({"algorithms": "aisgd, isgd, aisgd"}, "aisgd-const0.1"),
            # labels keep 6 significant digits
            ({"schedule.gamma": "0.1234567, 0.1234568"},
             "aisgd-const0.123457, isgd-const0.123457"),
            ({"schedule.kind": "xu", "schedule.eta0": "auto, auto"},
             "aisgd-xu:auto, isgd-xu:auto"),
        ],
        ids=["algorithm", "label", "xu-auto"],
    )
    def test_shared_run_id_is_named(self, tmp_path, capsys, keys, shared):
        with pytest.raises(ConfigError, match=f"share a trace file: {shared}$"):
            _config(tmp_path, **keys)
        path = tmp_path / "dup.cfg"
        path.write_text(BASE_TEXT.format(out=tmp_path / "results"))
        assert cli_main(["bench", str(path), *(f"--set={k}={v}" for k, v in keys.items())]) == 1
        assert shared in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_replaced_configs_are_checked(self, tmp_path):
        # as a sweep builds its configs, one per axis value
        config = _config(tmp_path, algorithms="aisgd")
        with pytest.raises(ConfigError, match="aisgd-const0.1$"):
            dc_replace(config, algorithms=["aisgd", "aisgd"])
        with pytest.raises(ConfigError, match="aisgd-const0.5$"):
            dc_replace(config, schedules=[ConstantRate(0.5), ConstantRate(0.5000001)])

    def test_calibrated_eta0_that_prints_as_a_listed_one(self, tmp_path):
        keys = {"task": "logistic", "loss": "logistic", "algorithms": "aisgd", "n": "400",
                "theta_star_norm": "2", "schedule.kind": "xu", "schedule.eta0": "auto"}
        config = _config(tmp_path, **keys)
        data = materialize(config)
        eta0 = calibrate_eta0(data[1], config.loss, "aisgd", config.seed)
        config = _config(tmp_path, **{**keys, "schedule.eta0": f"auto, {eta0 * (1 + 1e-9)!r}"})
        with pytest.raises(ConfigError, match=f"aisgd-xu{eta0:g}$"):
            experiments.run_pairs(config, *data)


class TestTestSet:
    """test.path is a libsvm file beside data.path, and the only source of the test set."""

    def test_test_path_needs_data_path(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="test.path needs data.path"):
            _config(tmp_path, **{"test.path": tmp_path / "nonexistent.svm"})
        path = tmp_path / "synthetic.cfg"
        path.write_text(BASE_TEXT.format(out=tmp_path / "results"))
        assert cli_main(["bench", str(path), "--set", "test.path=/nonexistent/file.svm"]) == 1
        assert "test.path needs data.path" in capsys.readouterr().err

    def test_test_path_and_test_fraction_exclude_each_other(self, tmp_path):
        svm = tmp_path / "train.svm"
        svm.write_text("+1 1:0.5\n-1 2:1\n+1 1:1\n-1 2:0.5\n")
        keys = {"task": "logistic", "loss": "logistic", "data.path": svm, "test.path": svm,
                "eval_every": 1}
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        for key in ("n", "p"):
            del raw[key]
        raw.update({k: str(v) for k, v in keys.items()})
        assert build_config(raw).test_path == svm
        with pytest.raises(ConfigError, match="test.path and test_fraction"):
            build_config({**raw, "test_fraction": "0.25"})


class TestOneConfigGrammar:
    """build_config alone turns keys into a run; defaults live on ExperimentConfig,
    those of the synthetic data on SyntheticSpec."""

    def test_unset_synthetic_keys_take_the_spec_defaults(self, tmp_path):
        config = _config(tmp_path)
        assert (config.noise_sd, config.theta_star_norm) == (None, None)
        spec, train, _ = materialize(config)
        assert spec.noise_sd == SyntheticSpec(n_samples=1, dim=1).noise_sd
        np.testing.assert_array_equal(spec.theta_star, np.zeros(3))
        # setting each key to that default draws the same data, bit for bit
        same, same_train, _ = materialize(_config(tmp_path, noise_sd=1.0, theta_star_norm=0.0))
        np.testing.assert_array_equal(same.theta_star, spec.theta_star)
        assert [(s.x.tobytes(), s.y) for s in same_train] == [(s.x.tobytes(), s.y) for s in train]

    @pytest.mark.parametrize("key", ["noise_sd", "theta_star_norm", "init_norm"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_key(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            _config(tmp_path, **{key: value})

    @pytest.mark.parametrize("key", ["task", "algorithms", "loss", "schedule.kind", "seed"])
    def test_each_required_key_is_named(self, tmp_path, key):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        del raw[key]
        with pytest.raises(ConfigError, match=f"missing required config key '{key}'"):
            build_config(raw)

    def test_out_alone_decides_whether_traces_are_written(self, tmp_path, monkeypatch):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path / "results"))
        written = build_config(raw)
        del raw["out"]
        bare = build_config(raw)
        assert bare.out_dir is None

        def runs(results):
            return [(r.run_id, [(pt.n, pt.metric, pt.diverged) for pt in r.trace]) for r in results]

        monkeypatch.chdir(tmp_path)  # a file written without a directory would land here
        bench, sweep = run_benchmark(bare), sensitivity_sweep(bare, "lambda", [1e-3])
        assert list(tmp_path.iterdir()) == [] and sweep.csv_path is None
        assert runs(run_benchmark(written)) == runs(bench)
        swept = sensitivity_sweep(written, "lambda", [1e-3])
        assert swept.csv_path == written.out_dir / "sweep_lambda.csv"
        assert (swept.finals == sweep.finals).all() and (swept.diverged == sweep.diverged).all()
        traces = ["aisgd-const0.1.csv", "isgd-const0.1.csv"]
        assert sorted(str(p.relative_to(written.out_dir)) for p in written.out_dir.rglob("*")) == [
            *traces, "lambda_0.001", *(f"lambda_0.001/{t}" for t in traces), "sweep_lambda.csv"
        ]

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        for key in ("eval_every", "out"):
            del raw[key]
        config = build_config(raw)
        bare = ExperimentConfig(
            task="linear", algorithms=["aisgd", "isgd"], loss=loss_from_name("squared"),
            schedules=[ConstantRate(0.1)], seed=5, n_samples=200, dim=3,
        )
        assert config == bare

    def test_parameter_lists_run_every_combination(self, tmp_path):
        raw = parse_config_text(BASE_TEXT.format(out=tmp_path))
        del raw["schedule.gamma"]
        raw.update({"schedule.kind": "poly", "schedule.gamma1": "1, 2",
                    "schedule.exponent": "0.6, 0.75"})
        assert [s.label() for s in build_config(raw).schedules] == [
            "poly1x0.6", "poly1x0.75", "poly2x0.6", "poly2x0.75"
        ]

    @pytest.mark.parametrize(
        "kind, missing",
        [("poly", "schedule.gamma1 and schedule.exponent"), ("xu", "schedule.eta0")],
    )
    def test_missing_schedule_parameters_named(self, tmp_path, kind, missing):
        with pytest.raises(ConfigError, match=missing):
            _config(tmp_path, **{"schedule.kind": kind})


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

    @pytest.mark.parametrize(
        "test_text, dim",
        [("+1 2:1 7:0.25\n-1 1:1\n", 7), ("+1 2:1\n-1 1:1\n", 3)],
        ids=["test-wider", "train-wider"],
    )
    def test_each_file_parsed_once(self, tmp_path, monkeypatch, test_text, dim):
        config, train_path, _ = self._pair(tmp_path, self.TRAIN, test_text)
        reads = []

        def counting_read(path, **kwargs):
            reads.append(path)
            return read_libsvm(path, **kwargs)

        monkeypatch.setattr(experiments, "read_libsvm", counting_read)
        _, train, _ = materialize(config)
        assert len(reads) == 2
        again = read_libsvm(train_path, dim=dim)
        assert train.dim == again.dim == dim
        for a, b in zip(train, again, strict=True):
            assert (a.y.hex(), a.c.hex(), a.x.dim) == (b.y.hex(), b.c.hex(), b.x.dim)
            assert a.x.indices.tobytes() == b.x.indices.tobytes()
            assert a.x.values.tobytes() == b.x.values.tobytes()

    def test_squared_loss_keeps_raw_targets(self, tmp_path):
        train_text = "3.5 1:0.5 3:1\n0 2:-1\n7 3:2\n-2 1:-0.5 2:1\n"
        config, _, _ = self._pair(tmp_path, train_text, "2.25 2:1 7:0.25\n0 1:1\n")
        config = dc_replace(config, task="linear", loss=loss_from_name("squared"))
        _, train, test = materialize(config)
        assert train.dim == test.dim == 7
        assert [s.y for s in train] == [3.5, 0.0, 7.0, -2.0]
        assert [s.y for s in test] == [2.25, 0.0]


def _plain_mean_loss(theta, data, loss):
    """The mean loss as a plain loop of one ``dot`` per sample."""
    total = 0.0
    for s in data:
        total += loss.value(dot(s.x, theta), s.y)
    return total / len(data)


def _labelled(rng, family, xs):
    """Valid outcomes for ``family``, one per feature vector."""
    n = len(xs)
    if family == "squared":
        ys = 3.0 * rng.standard_normal(n)
    elif family == "poisson":
        ys = rng.poisson(1.0, n).astype(float)
    else:
        ys = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    return [Sample(x, y) for x, y in zip(xs, ys)]


class TestLossFunction:
    """``_loss_function`` gives the plain loop's mean to the bit, and inf where it cannot."""

    @pytest.mark.parametrize("family", ["squared", "logistic", "poisson", "hinge"])
    @pytest.mark.parametrize("rows", ["dense", "sparse", "mixed"])
    def test_bits_of_the_plain_loop(self, family, rows):
        rng = np.random.default_rng(41)
        p = 20
        loss = loss_from_name("hinge:0.5" if family == "hinge" else family)
        xs = list(rng.standard_normal((300, p)) * 0.3)
        if rows != "dense":
            for i in range(0 if rows == "sparse" else 150, 300):
                idx = np.sort(rng.choice(p, size=4, replace=False))
                xs[i] = SparseVector(idx, xs[i][idx], p)
        data = Dataset(_labelled(rng, family, xs), p)
        mean = datagen._loss_function(data, loss)
        for _ in range(30):
            theta = rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 1)
            assert mean(theta).hex() == _plain_mean_loss(theta, data, loss).hex()
            assert datagen.mean_loss(theta, data, loss) == mean(theta)

    @pytest.mark.parametrize("rows", ["dense", "sparse"])
    def test_non_finite_predictor_gives_inf(self, rows):
        rng = np.random.default_rng(42)
        xs = list(rng.standard_normal((50, 3)))
        if rows == "sparse":
            xs = [SparseVector([0, 2], x[[0, 2]], 3) for x in xs]
        data = Dataset(_labelled(rng, "poisson", xs), 3)
        mean = datagen._loss_function(data, loss_from_name("poisson"))
        with np.errstate(all="ignore"):
            for theta in ([math.inf, 0.0, 0.0], [math.nan, 1.0, 1.0], [1e308, 1e308, 1e308]):
                assert mean(np.array(theta)) == math.inf
        # a finite predictor whose exp overflows is a finite input: its value is inf
        assert mean(np.array([800.0, 0.0, 800.0])) == math.inf


def _one_run_each(algorithm, loss, schedules, samples, evaluator):
    """The pilots as one run_stream per candidate rate."""
    from aisgd import run_stream

    return [
        run_stream(algorithm, loss, s, samples, len(samples), evaluator).final_metric
        for s in schedules
    ]


def _count_rows(counts, n=400, p=5, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, p))
    ys = rng.poisson(1.0, n) if counts is None else np.full(n, counts)
    return Dataset([Sample(x, float(y)) for x, y in zip(xs, ys)], p)


class TestOverflowingPilots:
    """A pilot whose estimate overflows counts as diverged, on either pilot path."""

    @pytest.mark.parametrize("algorithm", ["sgd", "asgd"])
    def test_overflowed_pilots_score_inf(self, algorithm, monkeypatch):
        data = _count_rows(None)
        finals, picks = {}, {}
        lockstep = experiments._lockstep_finals
        for name, pilots in (("lockstep", lockstep), ("one run each", _one_run_each)):
            monkeypatch.setattr(
                experiments, "_lockstep_finals",
                lambda *args, pilots=pilots, name=name: finals.setdefault(name, pilots(*args)),
            )
            with np.errstate(all="ignore"):
                picks[name] = calibrate_eta0(data, loss_from_name("poisson"), algorithm, seed=1)
        assert [f.hex() for f in finals["lockstep"]] == [f.hex() for f in finals["one run each"]]
        assert picks["lockstep"] == picks["one run each"]
        # the largest rate overflows (it raised at first), and a smaller one is picked
        assert finals["lockstep"][-1] == math.inf
        assert any(math.isfinite(f) for f in finals["lockstep"]) and picks["lockstep"] > 0

    @pytest.mark.parametrize("algorithm", ["sgd", "asgd"])
    @pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "one run each"])
    def test_no_eta0_when_every_pilot_diverges(self, algorithm, lockstep, monkeypatch):
        # counts of 1e6 push the first explicit step far past exp's range
        if not lockstep:
            monkeypatch.setattr(experiments, "_lockstep_finals", _one_run_each)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="every pilot"):
            calibrate_eta0(_count_rows(1e6), loss_from_name("poisson"), algorithm, seed=1)

    @pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "one run each"])
    def test_overflowing_pilots_warn_nothing(self, lockstep, monkeypatch):
        if not lockstep:
            monkeypatch.setattr(experiments, "_lockstep_finals", _one_run_each)
        data, picks = _count_rows(None), []
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                picks.append(calibrate_eta0(data, loss_from_name("poisson"), "sgd", seed=1))
        assert picks[0] == picks[1]


def test_overflowed_main_run_finishes_with_flagged_rows(tmp_path):
    # gamma = 1e308 makes the first sgd step's coefficient inf: the estimate's
    # predictors are not finite, and the train_loss rows read inf
    from aisgd import write_libsvm

    rng = np.random.default_rng(0)
    rows = [Sample(rng.standard_normal(4), float(rng.standard_normal())) for _ in range(200)]
    write_libsvm(Dataset(rows, 4), tmp_path / "train.svm")
    raw = parse_config_text(BASE_TEXT.format(out=tmp_path / "results"))
    for key in ("n", "p"):
        del raw[key]
    raw.update({"algorithms": "sgd", "schedule.gamma": "1e308",
                "data.path": str(tmp_path / "train.svm")})
    config = build_config(raw)
    with np.errstate(all="ignore"):
        (result,) = run_benchmark(config)
    assert result.metric_name == "train_loss"
    assert [(pt.n, pt.metric, pt.diverged) for pt in result.trace] == [
        (n, math.inf, True) for n in (50, 100, 150, 200)
    ]
