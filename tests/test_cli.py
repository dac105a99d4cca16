import functools
from pathlib import Path

import pytest

from aisgd import checks
from aisgd.cli import main

STABILITY_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "stability.cfg")
SENSITIVITY_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "sensitivity.cfg")


def _read_vector(path):
    return [float(line) for line in path.read_text().splitlines()]


class TestFit:
    def test_smoke_single_dimension(self, tmp_path, capsys):
        out = tmp_path / "estimate.txt"
        code = main(
            [
                "fit", "--synthetic", "p=1", "n=1000",
                "--algo", "aisgd", "--loss", "squared",
                "--rate", "const:0.1", "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        vec = _read_vector(out)
        assert len(vec) == 1
        assert "final excess_risk" in capsys.readouterr().out

    def test_repeat_invocation_identical(self, tmp_path):
        args = [
            "fit", "--synthetic", "p=4", "n=500", "theta-star-norm=1.5",
            "--algo", "aisgd", "--loss", "squared",
            "--rate", "poly:0.5:0.667", "--seed", "3", "--init-norm", "1.0",
        ]
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_final_metric_matches_bench(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--synthetic", "p=4", "n=500", "theta-star-norm=1.5",
                "--init-norm", "1", "--seed", "3", "--algo", "aisgd",
                "--loss", "squared", "--rate", "poly:0.5:0.667",
                "--out", str(tmp_path / "est.txt"),
            ]
        )
        assert code == 0
        fit_metric = capsys.readouterr().out.split("final excess_risk=")[1].strip()
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            "task = linear\nalgorithms = aisgd\nloss = squared\n"
            "schedule.kind = poly\nschedule.gamma1 = 0.5\nschedule.exponent = 0.667\n"
            "n = 500\np = 4\ntheta_star_norm = 1.5\ninit_norm = 1\nseed = 3\n"
            f"eval_every = 500\nout = {tmp_path / 'traces'}\n"
        )
        assert main(["bench", str(cfg)]) == 0
        (trace,) = (tmp_path / "traces").glob("*.csv")
        bench_metric = trace.read_text().splitlines()[-1].split(",")[2]
        assert fit_metric == bench_metric

    def test_classification_metric_matches_bench(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--synthetic", "task=logistic", "p=5", "n=600", "theta-star-norm=3",
                "--seed", "4", "--algo", "isgd", "--loss", "logistic", "--lambda", "1e-3",
                "--rate", "xu:0.5", "--out", str(tmp_path / "est.txt"),
            ]
        )
        assert code == 0
        fit_metric = capsys.readouterr().out.split("final train_error=")[1].strip()
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            "task = logistic\nalgorithms = isgd\nloss = logistic\nlambda = 1e-3\n"
            "schedule.kind = xu\nschedule.eta0 = 0.5\n"
            "n = 600\np = 5\ntheta_star_norm = 3\nseed = 4\n"
            f"eval_every = 600\nout = {tmp_path / 'traces'}\n"
        )
        assert main(["bench", str(cfg)]) == 0
        (trace,) = (tmp_path / "traces").glob("*.csv")
        bench_metric = trace.read_text().splitlines()[-1].split(",")[2]
        assert fit_metric == bench_metric

    def test_averaged_run_writes_both_vectors(self, tmp_path):
        out = tmp_path / "est.txt"
        main(
            [
                "fit", "--synthetic", "p=2", "n=200",
                "--algo", "asgd", "--loss", "squared",
                "--rate", "const:0.05", "--seed", "1", "--out", str(out),
            ]
        )
        last = tmp_path / "est_last.txt"
        assert out.exists() and last.exists()
        assert _read_vector(out) != _read_vector(last)

    def test_unknown_algorithm_names_valid_ones(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--synthetic", "p=1", "n=10",
                "--algo", "newton", "--loss", "squared",
                "--rate", "const:0.1", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        for name in ("sgd", "isgd", "asgd", "aisgd", "adagrad"):
            assert name in err

    def test_diverged_fit_exits_three(self, tmp_path):
        code = main(
            [
                "fit", "--synthetic", "p=10", "n=3000", "theta-star-norm=1.0",
                "--algo", "sgd", "--loss", "squared",
                "--rate", "const:5.0", "--seed", "4",
                "--init-norm", "1.0", "--out", str(tmp_path / "d.txt"),
            ]
        )
        assert code == 3

    def test_missing_data_file_exits_two(self, tmp_path):
        code = main(
            [
                "fit", "--data", str(tmp_path / "absent.svm"),
                "--algo", "sgd", "--loss", "logistic",
                "--rate", "const:0.1", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 2

    def test_undecodable_data_file_exits_one_naming_the_line(self, tmp_path, capsys):
        data = tmp_path / "bad.svm"
        data.write_bytes(b"+1 1:0.5\n-1 2:0.\xff5\n")
        code = main(
            [
                "fit", "--data", str(data),
                "--algo", "sgd", "--loss", "logistic",
                "--rate", "const:0.1", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 1
        assert "bad.svm:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algo", ["isgd", "sgd"])
    def test_row_whose_squared_norm_overflows_exits_one_before_any_run(self, tmp_path, capsys, algo):
        data, out = tmp_path / "huge.svm", tmp_path / "x.txt"
        data.write_text("+1 1:1e200\n-1 2:1\n")  # ||x||^2 = 1e400 on line 1
        code = main(
            [
                "fit", "--data", str(data),
                "--algo", algo, "--loss", "logistic",
                "--rate", "const:0.1", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "huge.svm:1: squared feature norm overflows float64" in captured.err
        assert captured.out == "" and not out.exists()


class TestFitLibsvmLabels:
    """``fit --data`` maps labels to +1/-1 for logistic and hinge losses only."""

    def test_poisson_fit_reads_counts(self, tmp_path):
        data = tmp_path / "counts.svm"
        data.write_text("3 1:0.5 2:-0.25\n0 2:1\n7 1:0.25\n2 1:-0.5 2:0.5\n" * 25)
        args = ["fit", "--data", str(data), "--algo", "sgd", "--loss", "poisson",
                "--rate", "const:0.1", "--out", str(tmp_path / "est.txt")]
        assert main(args) == 0

    def test_logistic_fit_maps_zero_labels_to_minus_one(self, tmp_path):
        rows = ["{} 1:0.5 2:-0.25", "{} 2:1", "{} 1:0.25 3:1", "{} 1:-0.5 2:0.5"] * 50
        labels = [1, 0, 1, 0, 0] * 40
        estimates = []
        for name, signs in (("zero_one", ("0", "1")), ("signed", ("-1", "+1"))):
            data, out = tmp_path / f"{name}.svm", tmp_path / f"{name}.txt"
            data.write_text("".join(row.format(signs[y]) + "\n" for row, y in zip(rows, labels)))
            args = ["fit", "--data", str(data), "--algo", "aisgd", "--loss", "logistic",
                    "--rate", "xu:auto", "--out", str(out)]
            assert main(args) == 0
            estimates.append(out.read_bytes())
        assert estimates[0] == estimates[1]


class TestFitConfigKeys:
    """fit builds its run from config keys, so bad keys and values fail as in bench."""

    BASE = ["--algo", "sgd", "--loss", "squared", "--seed", "1"]

    def _fit(self, tmp_path, *args):
        return main(["fit", *args, *self.BASE, "--out", str(tmp_path / "e.txt")])

    def test_unknown_synthetic_key_exits_one_naming_it(self, tmp_path, capsys):
        code = self._fit(tmp_path, "--synthetic", "p=2", "n=10", "nosie=3", "--rate", "const:0.1")
        assert code == 1
        assert "'nosie'" in capsys.readouterr().err
        assert not (tmp_path / "e.txt").exists()

    @pytest.mark.parametrize(
        "args, fix",
        [
            (["--synthetic", "n=5", "p=3", "--loss", "squared"], "go unread beside data.path"),
            (["--synthetic", "p=2", "n=10", "--loss", "logistic"], "set task = logistic"),
            (["--synthetic", "p=2", "n=10", "--loss", "hinge:0.5"], "set task = logistic"),
            (["--synthetic", "task=logistic", "p=2", "n=10", "--loss", "poisson"],
             "give data.path"),
            (["--synthetic", "noise=3", "--loss", "squared"],
             "key(s) noise_sd go unread beside data.path; drop them"),
            (["--synthetic", "theta-star-norm=5", "--loss", "squared"],
             "key(s) theta_star_norm go unread beside data.path; drop them"),
            (["--synthetic", "task=logistic", "p=5", "n=400", "noise=7", "--loss", "logistic"],
             "noise_sd goes unread on logistic synthetic data; drop it"),
            (["--synthetic", "p=3", "n=200", "theta-star-norm=-5", "--loss", "squared"],
             "theta_star_norm must be finite and >= 0"),
            (["--synthetic", "p=3", "n=200", "--init-norm", "-2", "--loss", "squared"],
             "init_norm must be finite and >= 0"),
            (["--synthetic", "p=3", "n=0", "--loss", "squared"], "sample count must be >= 1"),
            (["--synthetic", "p=0", "n=200", "--loss", "squared"], "dimension p must be >= 1"),
            (["--synthetic", "p=3", "n=200", "noise=-1", "--loss", "squared"],
             "noise_sd must be positive"),
        ],
        ids=["n-p-beside-data", "logistic-linear", "hinge-linear", "poisson-synthetic",
             "noise-beside-data", "theta-star-norm-beside-data", "noise-logistic",
             "negative-theta-star-norm", "negative-init-norm", "no-samples", "no-dimension",
             "negative-noise"],
    )
    def test_config_that_cannot_run_exits_one_naming_the_fix(self, tmp_path, capsys, args, fix):
        data = tmp_path / "t.svm"
        data.write_text("1.5 1:0.5 2:1\n-0.5 1:1 3:0.25\n")
        data_args = ["--data", str(data)] if "beside data.path" in fix else []
        out = tmp_path / "e.txt"
        code = main(["fit", *data_args, *args, "--algo", "sgd", "--rate", "const:0.1",
                     "--out", str(out)])
        assert code == 1
        assert fix in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("rate", ["const:inf", "poly:inf:0.75", "xu:inf", "const:nan"])
    def test_non_finite_rate_exits_one(self, tmp_path, rate):
        assert self._fit(tmp_path, "--synthetic", "p=2", "n=10", "--rate", rate) == 1

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--synthetic", "p=2", "n=10", "--init-norm", "nan"], "init_norm"),
            (["--synthetic", "p=2", "n=10", "theta-star-norm=nan"], "theta_star_norm"),
            (["--synthetic", "p=2", "n=10", "theta-star-norm=inf"], "theta_star_norm"),
            (["--synthetic", "task=logistic", "p=2", "n=10", "noise=inf"], "noise_sd"),
        ],
    )
    def test_non_finite_value_exits_one_naming_the_key(self, tmp_path, capsys, args, key):
        assert self._fit(tmp_path, *args, "--rate", "const:0.1") == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["const:0.1,0.2", "poly:0.5:0.6,0.7"])
    def test_several_rates_exit_one(self, tmp_path, rate):
        assert self._fit(tmp_path, "--synthetic", "p=2", "n=10", "--rate", rate) == 1

    def test_xu_auto_metric_matches_bench(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--synthetic", "task=logistic", "p=5", "n=600", "theta-star-norm=3",
                "--seed", "4", "--algo", "aisgd", "--loss", "logistic",
                "--rate", "xu:auto", "--out", str(tmp_path / "est.txt"),
            ]
        )
        assert code == 0
        fit_metric = capsys.readouterr().out.split("final train_error=")[1].strip()
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            "task = logistic\nalgorithms = aisgd\nloss = logistic\n"
            "schedule.kind = xu\nschedule.eta0 = auto\n"
            "n = 600\np = 5\ntheta_star_norm = 3\nseed = 4\n"
            f"eval_every = 600\nout = {tmp_path / 'traces'}\n"
        )
        assert main(["bench", str(cfg)]) == 0
        (trace,) = (tmp_path / "traces").glob("*.csv")
        bench_metric = trace.read_text().splitlines()[-1].split(",")[2]
        assert fit_metric == bench_metric


class TestBench:
    @pytest.mark.parametrize("verb", [["bench"], ["sweep", "--axis", "lambda", "--values", "1e-3"]],
                             ids=["bench", "sweep"])
    def test_config_without_out_exits_one_and_writes_nothing(self, tmp_path, monkeypatch,
                                                             capsys, verb):
        text = Path(SENSITIVITY_CFG).read_text()
        cfg = tmp_path / "no_out.cfg"
        cfg.write_text("".join(l for l in text.splitlines(True) if not l.startswith("out")))
        monkeypatch.chdir(tmp_path)
        assert main([verb[0], str(cfg), *verb[1:], "--set", "n=400", "--set", "eval_every=100"]) == 1
        assert "an output directory is required to write CSV traces" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_shipped_stability_preset_yields_nine_traces(self, tmp_path):
        out = tmp_path / "traces"
        code = main(
            [
                "bench", STABILITY_CFG,
                "--set", "n=1500", "--set", "eval_every=500",
                "--set", f"out={out}",
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 9  # 3 algorithms x 3 rates

    def test_empty_algorithms_exit_one(self, tmp_path, capsys):
        code = main(
            [
                "bench", STABILITY_CFG,
                "--set", "algorithms=", "--set", f"out={tmp_path / 'o'}",
            ]
        )
        assert code == 1

    def test_missing_output_dir_created(self, tmp_path):
        out = tmp_path / "not" / "yet" / "there"
        code = main(
            [
                "bench", STABILITY_CFG,
                "--set", "n=200", "--set", "eval_every=100",
                "--set", "algorithms=sgd", "--set", f"out={out}",
            ]
        )
        assert code == 0
        assert out.is_dir()

    def test_per_run_line_names_the_metric(self, tmp_path, capsys):
        cfg = tmp_path / "classify.cfg"
        cfg.write_text(
            "task = logistic\nalgorithms = sgd, aisgd\nloss = logistic\n"
            "schedule.kind = xu\nschedule.eta0 = 0.5\n"
            "n = 400\np = 3\ntheta_star_norm = 2\ntest_fraction = 0.25\nseed = 2\n"
            f"eval_every = 100\nout = {tmp_path / 'c'}\n"
        )
        assert main(["bench", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == ["sgd-xu0.5:", "aisgd-xu0.5:"]
        for line, trace in zip(lines[:2], ("sgd-xu0.5.csv", "aisgd-xu0.5.csv")):
            final = (tmp_path / "c" / trace).read_text().splitlines()[-1].split(",")[2]
            assert line.endswith(f"final test_error={float(final):.6g}")
        main(
            [
                "bench", STABILITY_CFG, "--set", "n=200", "--set", "eval_every=100",
                "--set", "algorithms=sgd", "--set", f"out={tmp_path / 'l'}",
            ]
        )
        assert " final excess_risk=" in capsys.readouterr().out

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(STABILITY_CFG).read_bytes())
        runs = []
        for name, cfg in (("plain", STABILITY_CFG), ("bom", str(bom))):
            out = tmp_path / name
            assert main(["bench", cfg, "--set", "n=2000", "--set", f"out={out}"]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            traces = {p.name: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
                      for p in out.glob("*.csv")}  # each row without its wall_ms
            runs.append((printed, traces))
        assert len(runs[0][1]) == 9
        assert runs[1] == runs[0]

    def test_set_token_without_equals_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bench", STABILITY_CFG, "--set", "n2000", "--set", f"out={out}"]) == 1
        assert "--set expects key=value tokens, got 'n2000'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["bench", str(tmp_path / "none.cfg")]) == 2

    @pytest.mark.parametrize("key", ["schedule.gamma", "noise_sd", "init_norm", "theta_star_norm"])
    def test_non_finite_value_exits_one(self, tmp_path, key):
        out = tmp_path / "o"
        assert main(["bench", STABILITY_CFG, "--set", f"{key}=inf", "--set", f"out={out}"]) == 1
        assert not out.exists()

    def test_divergence_still_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "bench", STABILITY_CFG,
                "--set", "n=2000", "--set", "eval_every=500",
                "--set", "algorithms=asgd", "--set", "schedule.gamma=5.0",
                "--set", "init_norm=1.0", "--set", f"out={tmp_path / 'd'}",
            ]
        )
        assert code == 0
        assert "DIVERGED" in capsys.readouterr().out


class TestSweep:
    def test_lambda_sweep_writes_wide_csv(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", STABILITY_CFG,
                "--axis", "lambda", "--values", "1e-3,1e-4",
                "--set", "n=400", "--set", "eval_every=200",
                "--set", "algorithms=aisgd,asgd", "--set", "schedule.gamma=0.2",
                "--set", f"out={out}",
            ]
        )
        assert code == 0
        lines = (out / "sweep_lambda.csv").read_text().splitlines()
        assert lines[0] == "value,aisgd,asgd"
        assert len(lines) == 3

    def test_invalid_lambda_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        for value in ("-1", "inf", "nan"):
            code = main(
                [
                    "sweep", STABILITY_CFG, "--axis", "lambda", f"--values={value}",
                    "--set", "n=400", "--set", "schedule.gamma=0.2", "--set", f"out={out}",
                ]
            )
            assert code == 1
            assert "lam" in capsys.readouterr().err
        assert not (out / "sweep_lambda.csv").exists()

    def test_unknown_axis_exits_one(self, tmp_path):
        code = main(
            [
                "sweep", STABILITY_CFG,
                "--axis", "momentum", "--values", "1",
                "--set", f"out={tmp_path / 'x'}",
            ]
        )
        assert code == 1


class TestCheck:
    def test_default_all_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "5/5 checks passed" in out
        assert "FAIL" not in out

    def test_fault_injection_fails(self, capsys):
        assert main(["check", "--fault-tol", "1.0"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_filter_runs_single_check(self, capsys):
        assert main(["check", "--filter", "contraction"]) == 0
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out
        assert "fixed-point" not in out

    def test_filter_without_match_exits_one(self):
        assert main(["check", "--filter", "nonesuch"]) == 1

    def test_filter_calls_only_the_matching_check(self, monkeypatch, capsys):
        called = []

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(tol):
                called.append(fn.__name__)
                return fn(tol)
            return wrapper

        monkeypatch.setattr(checks, "_CHECKS", tuple(map(recording, checks._CHECKS)))
        assert main(["check", "--filter", "step"]) == 0
        assert called == ["_check_step_bound"]
        assert "PASS step-bound:" in capsys.readouterr().out
        called.clear()
        assert main(["check", "--filter", "nonesuch"]) == 1
        assert called == []
