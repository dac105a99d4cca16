"""Command-line front end: fit a model, run benchmarks, sweeps, self-checks.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 fit run diverged,
4 self-check failure.  Divergence inside a benchmark is a recorded result,
not a failure, so ``bench`` still exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from .checks import run_checks
from .experiments import (
    ConfigError,
    build_config,
    load_config,
    materialize,
    run_benchmark,
    run_pairs,
    sensitivity_sweep,
)
from .rates import spec_params
from .solvers import ALGORITHMS, AVERAGED, reported_estimate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4

# The config keys that fit's flags set: each flag's argparse dest is its key.
FIT_KEYS = ("task", "algorithms", "loss", "seed", "data.path", "lambda", "init_norm", "passes")
# fit's --synthetic keys -> config keys.
SYNTHETIC_KEYS = {
    "task": "task", "p": "p", "n": "n", "noise": "noise_sd", "theta-star-norm": "theta_star_norm",
}


def _parse_kv(tokens: list[str], what: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"{what} expects key=value tokens, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def cmd_fit(args) -> int:
    if not args.out.strip():  # Path("") would be the working directory
        raise ConfigError("--out is empty; give a path")
    out = Path(args.out)
    if not out.parent.is_dir():  # before any data are built or run
        raise ConfigError(f"--out {args.out!r}: no directory {str(out.parent)!r}; create it first")
    synthetic = _parse_kv(args.synthetic or [], "--synthetic")
    unknown = sorted(synthetic.keys() - SYNTHETIC_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown --synthetic key(s): {', '.join(map(repr, unknown))}; "
                          f"valid: {', '.join(SYNTHETIC_KEYS)}")
    raw = {key: str(getattr(args, key)) for key in FIT_KEYS if getattr(args, key) is not None}
    kind, params = spec_params(args.rate)
    raw["schedule.kind"] = kind
    raw.update((f"schedule.{name}", text) for name, text in params.items())
    raw.update((SYNTHETIC_KEYS[key], value) for key, value in synthetic.items())
    config = build_config(raw)
    if len(config.algorithms) != 1 or len(config.schedules) != 1:
        raise ConfigError("fit runs one algorithm at one rate")
    last = out.with_name(out.stem + "_last" + out.suffix)  # asgd/aisgd's last iterate
    for path in (out, last) if config.algorithms[0] in AVERAGED else (out,):
        if path.is_dir():  # before any data are built or run
            raise ConfigError(f"--out {args.out!r}: {str(path)!r} is a directory; name a file")
    spec, train, test = materialize(config)
    # One evaluation per pass: the final metric is read at the end of the last.
    config = dc_replace(config, eval_every=len(train))
    (result,) = run_pairs(config, spec, train, test)

    np.savetxt(out, reported_estimate(result.state), fmt="%.17g")
    if result.algorithm in AVERAGED:
        np.savetxt(last, result.state.theta, fmt="%.17g")
        print(f"wrote averaged estimate to {out} and last iterate to {last}")
    else:
        print(f"wrote estimate to {out}")
    print(f"n={result.state.n} final {result.metric_name}={result.final_metric:.17g}")
    if result.diverged:
        print("run diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _config_with_out(args):
    """The ``bench``/``sweep`` config with its ``--set`` overrides: it must name ``out``."""
    config = load_config(args.config, _parse_kv(args.set or [], "--set"))
    if config.out_dir is None:
        raise ConfigError("an output directory is required to write CSV traces")
    return config


def cmd_bench(args) -> int:
    config = _config_with_out(args)
    results = run_benchmark(config)
    for r in results:
        flag = " DIVERGED" if r.diverged else ""
        print(f"{r.run_id}: n={r.state.n} final {r.metric_name}={r.final_metric:.6g}{flag}")
    print(f"wrote {len(results)} trace files to {config.out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _config_with_out(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    sweep = sensitivity_sweep(config, args.axis, values)
    header = "value".ljust(12) + "".join(a.rjust(14) for a in sweep.algorithms)
    print(header)
    for i, value in enumerate(sweep.values):
        cells = "".join(f"{sweep.finals[i, j]:14.6g}" for j in range(len(sweep.algorithms)))
        print(f"{value:<12g}{cells}")
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
                          "[noise=..] [theta-star-norm=..]; any other key is an error")
    fit.add_argument("--data", dest="data.path", help="libsvm-format training file")
    fit.add_argument("--algo", dest="algorithms", metavar="ALGO", required=True,
                     help="|".join(ALGORITHMS))
    fit.add_argument("--loss", required=True,
                     help="squared|logistic|poisson|hinge:<delta>")
    fit.add_argument("--rate", required=True, help="const:G | poly:G1:EXP | xu:ETA0 | xu:auto")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--lambda", dest="lambda", type=float, help="L2 coefficient")
    fit.add_argument("--init-norm", type=float,
                     help="norm of the seeded random starting point (0 = zeros)")
    fit.add_argument("--passes", type=int)
    fit.add_argument("--out", default="estimate.txt", help="estimate file path")
    # The task of --synthetic data that names none.
    fit.set_defaults(func=cmd_fit, task="linear")

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
