"""Golden bit digests: the cases behind ``tests/test_golden.py``, and their regeneration.

Each case runs a config, a sweep or a ``fit`` in-process and maps each of
its outputs to a SHA-256 digest: every CSV trace cut to
``run_id,n,metric,diverged`` (``wall_ms`` is a timing), every bench run's
final theta and theta_bar bytes, each ``xu:auto`` eta0 as ``float.hex``,
the sweep's wide CSV, and the ``fit`` estimate files with the printed
summary.  ``digests.json`` holds the digests with the NumPy version and
BLAS they were made with; a NumPy or BLAS change may move a last bit.

Run ``python3 tests/golden/update.py`` from the repository root to rewrite
``digests.json``.  It prints each case whose digests moved, with the moved
outputs; a change that means to move bits says which and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from aisgd import cli, experiments  # noqa: E402

SEEDS = (1, 13)
SWEEP_LAMBDAS = (1e-2, 1e-3, 1e-4)


def environment() -> dict[str, str]:
    """The NumPy version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _workloads():
    """``perfbench/workloads.py``, imported read-only for its input writers."""
    spec = importlib.util.spec_from_file_location(
        "golden_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _trace_digest(path: Path) -> str:
    """The CSV without its last column, wall_ms."""
    return _sha("".join(line.rsplit(",", 1)[0] + "\n"
                        for line in path.read_text(encoding="utf-8").splitlines()))


@contextlib.contextmanager
def _eta0_log(out: dict[str, str]):
    """Record each eta0 ``calibrate_eta0`` returns, as ``float.hex``."""
    calibrate, found = experiments.calibrate_eta0, []

    def logged(*args, **kwargs):
        eta0 = calibrate(*args, **kwargs)
        out[f"eta0.{len(found)}"] = _sha(eta0.hex())
        found.append(eta0)
        return eta0

    experiments.calibrate_eta0 = logged
    try:
        yield
    finally:
        experiments.calibrate_eta0 = calibrate


def _bench(config_path: Path, out: Path, **overrides) -> dict[str, str]:
    digests: dict[str, str] = {}
    raw = {"out": str(out), **{k: str(v) for k, v in overrides.items()}}
    with _eta0_log(digests):
        results = experiments.run_benchmark(experiments.load_config(config_path, raw))
    for r in results:
        digests[f"{r.run_id}.csv"] = _trace_digest(out / f"{r.run_id}.csv")
        digests[f"{r.run_id}.theta"] = _sha(r.state.theta.tobytes())
        digests[f"{r.run_id}.theta_bar"] = _sha(r.state.theta_bar.tobytes())
    return digests


def _sweep(config_path: Path, out: Path) -> dict[str, str]:
    config = experiments.load_config(config_path, {"out": str(out)})
    sweep = experiments.sensitivity_sweep(config, "lambda", SWEEP_LAMBDAS)
    digests = {sweep.csv_path.name: _sha(sweep.csv_path.read_bytes())}
    for path in sorted(out.glob("*/*.csv")):
        digests[f"{path.parent.name}/{path.name}"] = _trace_digest(path)
    return digests


def _fit(argv: list[str], out: Path) -> dict[str, str]:
    digests: dict[str, str] = {}
    stdout = io.StringIO()
    estimate = out / "estimate.txt"
    with _eta0_log(digests), contextlib.redirect_stdout(stdout):
        code = cli.main(["fit", *argv, "--out", str(estimate)])
    digests["exit"] = str(code)
    digests["stdout"] = _sha(stdout.getvalue().replace(str(out), "<out>"))
    for path in sorted(out.glob("estimate*.txt")):
        digests[path.name] = _sha(path.read_bytes())
    return digests


def _separable_libsvm(path: Path) -> Path:
    """200 rows whose label is the sign of feature 1.  On them the two largest
    ``xu:auto`` candidates of sgd with the smoothed hinge both reach a training
    loss of exactly 0, so calibration takes its tie-break."""
    rng = np.random.default_rng(3)
    lines = []
    for i in range(200):
        sign = 1 if i % 2 else -1
        lines.append(f"{sign:+d} 1:{sign * rng.uniform(0.5, 1.5):.3f} 2:{rng.uniform(-1, 1):.3f}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def compute(tmp: Path) -> dict[str, dict[str, str]]:
    """Every case's digests, with scratch files under ``tmp``."""
    workloads = _workloads()
    cases: dict[str, dict[str, str]] = {}

    def scratch(name: str) -> Path:
        path = tmp / name.replace("/", "_")
        path.mkdir(parents=True)
        return path

    configs = {}
    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            for cfg in workload.write_inputs(seed, tmp / f"inputs-{name}-{seed}"):
                case = f"bench/{name}/{cfg.name}/seed{seed}"
                cases[case] = _bench(cfg.path, scratch(case))
                configs[case] = cfg.path
    # More than one pass streams the training list again.
    for case, passes in (("bench/dense-linear/linear/seed1", 2),
                         ("bench/sparse-libsvm/sparse/seed1", 3)):
        cases[f"{case}/passes{passes}"] = _bench(configs[case], scratch(f"{case}/passes{passes}"),
                                                 passes=passes)
    for cfg in ("stability", "sensitivity"):
        case = f"bench/configs/{cfg}"
        cases[case] = _bench(ROOT / "configs" / f"{cfg}.cfg", scratch(case), n=20000)
    cases["sweep/sensitivity/lambda"] = _sweep(ROOT / "configs" / "sensitivity.cfg",
                                               scratch("sweep"))
    sparse_train = str(configs["bench/sparse-libsvm/sparse/seed1"].with_name("train.svm"))
    fits = {
        "fit/dense-aisgd": ["--synthetic", "p=20", "n=5000", "--algo", "aisgd",
                            "--loss", "squared", "--rate", "poly:0.28:0.667"],
        "fit/sparse-aisgd-xu-auto": ["--data", sparse_train, "--algo", "aisgd",
                                     "--loss", "logistic", "--rate", "xu:auto"],
        "fit/sgd-hinge-tie-xu-auto": ["--data", str(_separable_libsvm(tmp / "separable.svm")),
                                      "--algo", "sgd", "--loss", "hinge:0.5", "--rate", "xu:auto"],
        "fit/sparse-sgd-passes2": ["--data", sparse_train, "--algo", "sgd", "--loss", "logistic",
                                   "--rate", "poly:16:0.667", "--passes", "2"],
        "fit/sgd-xu-auto": ["--synthetic", "task=logistic", "p=20", "n=5000",
                            "theta-star-norm=10", "--algo", "sgd", "--loss", "logistic",
                            "--rate", "xu:auto"],
    }
    for case, argv in fits.items():
        cases[case] = _fit(argv, scratch(case))
    return cases


def moved(pinned: dict[str, dict[str, str]],
          cases: dict[str, dict[str, str]]) -> dict[str, list[str]]:
    """Each case whose digests differ from ``pinned``, with the outputs that moved."""
    out = {}
    for case in sorted(pinned.keys() | cases.keys()):
        old, new = pinned.get(case, {}), cases.get(case, {})
        keys = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        if keys:
            out[case] = keys
    return out


def main() -> int:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["cases"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = compute(Path(tmp))
    DIGESTS.write_text(json.dumps({**environment(), "cases": cases}, indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
    changes = moved(pinned, cases)
    for case, keys in changes.items():
        print(f"moved: {case} ({len(keys)} outputs: {', '.join(keys)})")
    print(f"{len(changes)} of {len(cases)} cases moved; wrote {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
