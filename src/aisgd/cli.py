"""Command-line front end: fit a model, run benchmarks, sweeps, self-checks.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 fit run diverged,
4 self-check failure.  Divergence inside a benchmark is a recorded result,
not a failure, so ``bench`` still exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .experiments import (
    ConfigError,
    ExperimentConfig,
    initial_point,
    load_config,
    make_evaluator,
    materialize,
    run_benchmark,
    sensitivity_sweep,
)
from .losses import loss_from_name
from .rates import rate_from_spec
from .solvers import ALGORITHMS, AVERAGED, reported_estimate, run_stream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4


def _parse_kv(tokens: list[str], what: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"{what} expects key=value tokens, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _write_vector(path: Path, theta: np.ndarray) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for v in theta:
            fh.write(f"{v:.17g}\n")


def cmd_fit(args) -> int:
    kv = _parse_kv(args.synthetic or [], "--synthetic")
    config = ExperimentConfig(
        task=kv.get("task", "linear"),
        algorithms=[args.algo],
        loss=loss_from_name(args.loss, lam=args.reg),
        schedules=[rate_from_spec(args.rate)],
        seed=args.seed,
        n_samples=int(kv["n"]) if "n" in kv else None,
        dim=int(kv["p"]) if "p" in kv else None,
        data_path=Path(args.data) if args.data else None,
        passes=args.passes,
        noise_sd=float(kv.get("noise", "1.0")),
        theta_star_norm=float(kv.get("theta-star-norm", "0")),
        init_norm=args.init_norm,
    )
    spec, train, _ = materialize(config)
    metric_name, evaluator = make_evaluator(config, spec, train, None)

    stream = (s for _ in range(config.passes) for s in train)
    result = run_stream(
        args.algo,
        config.loss,
        config.schedules[0],
        stream,
        eval_every=len(train) * config.passes,
        evaluator=evaluator,
        theta0=initial_point(config, train.dim),
        run_id=args.algo,
    )

    out = Path(args.out)
    _write_vector(out, reported_estimate(result.state))
    if args.algo in AVERAGED:
        last = out.with_name(out.stem + "_last" + out.suffix)
        _write_vector(last, result.state.theta)
        print(f"wrote averaged estimate to {out} and last iterate to {last}")
    else:
        print(f"wrote estimate to {out}")
    print(f"n={result.state.n} final {metric_name}={result.final_metric:.17g}")
    if result.diverged:
        print("run diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_bench(args) -> int:
    overrides = _parse_kv(args.set or [], "--set")
    config = load_config(args.config, overrides)
    results = run_benchmark(config)
    for r in results:
        flag = " DIVERGED" if r.diverged else ""
        print(f"{r.run_id}: n={r.state.n} final {r.metric_name}={r.final_metric:.6g}{flag}")
    print(f"wrote {len(results)} trace files to {config.out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    overrides = _parse_kv(args.set or [], "--set")
    config = load_config(args.config, overrides)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    sweep = sensitivity_sweep(config, args.axis, values)
    header = "value".ljust(12) + "".join(a.rjust(14) for a in sweep.algorithms)
    print(header)
    for i, value in enumerate(sweep.values):
        cells = "".join(f"{sweep.finals[i, j]:14.6g}" for j in range(len(sweep.algorithms)))
        print(f"{value:<12g}{cells}")
    if sweep.csv_path is not None:
        print(f"wrote {sweep.csv_path}")
    return EXIT_OK


def cmd_check(args) -> int:
    tol = args.fault_tol if args.fault_tol is not None else 1e-15
    outcomes = run_checks(solver_tol=tol, name_filter=args.filter)
    failed = 0
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(f"{status} {o.name}: {o.detail}")
        failed += 0 if o.passed else 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisgd",
        description="Streaming stochastic optimization with implicit updates "
        "and iterate averaging.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    fit = sub.add_parser("fit", help="fit one model and write the estimate vector")
    fit.add_argument("--synthetic", nargs="+", metavar="K=V",
                     help="synthetic data: p=.. n=.. [task=linear|logistic] "
                          "[noise=..] [theta-star-norm=..]")
    fit.add_argument("--data", help="libsvm-format training file")
    fit.add_argument("--algo", required=True, help="|".join(ALGORITHMS))
    fit.add_argument("--loss", required=True,
                     help="squared|logistic|poisson|hinge:<delta>")
    fit.add_argument("--rate", required=True, help="const:G | poly:G1:EXP | xu:ETA0")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--lambda", dest="reg", type=float, default=0.0,
                     help="L2 coefficient")
    fit.add_argument("--init-norm", type=float, default=0.0,
                     help="norm of the seeded random starting point (0 = zeros)")
    fit.add_argument("--passes", type=int, default=1)
    fit.add_argument("--out", default="estimate.txt", help="estimate file path")
    fit.set_defaults(func=cmd_fit)

    bench = sub.add_parser("bench", help="run a benchmark config, write CSV traces")
    bench.add_argument("config", help="flat key=value config file")
    bench.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    bench.set_defaults(func=cmd_bench)

    sweep = sub.add_parser("sweep", help="rerun a config across one hyperparameter")
    sweep.add_argument("config")
    sweep.add_argument("--axis", required=True,
                       help="lambda | gamma_constant | gamma1 | eta0")
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("check", help="run the numeric self-check suite")
    check.add_argument("--filter", help="run only checks whose name contains this")
    check.add_argument("--fault-tol", type=float, default=None, help=argparse.SUPPRESS)
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
