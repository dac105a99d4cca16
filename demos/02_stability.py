"""Stability of the four update rules as the constant rate grows.

Linear regression stream: p = 20 Gaussian features with covariance spectrum
1/k (so trace R^2 = 3.598), truth at the origin, unit-norm start.  Constant
rates are multiples of 1/R^2.  Averaged explicit SGD is excellent below its
stability boundary and useless above it; the implicit variants never blow up,
and averaging the implicit iterates recovers the fast rate.

Runs in roughly 20 seconds.
"""

from aisgd import ConstantRate, ExperimentConfig, SquaredLoss, run_benchmark

R2 = sum(1.0 / k for k in range(1, 21))
multiples = (0.25, 0.5, 1.0, 2.0)

config = ExperimentConfig(
    task="linear",
    algorithms=["sgd", "asgd", "isgd", "aisgd"],
    loss=SquaredLoss(),
    schedules=[ConstantRate(m / R2) for m in multiples],
    seed=20,
    n_samples=30_000,
    dim=20,
    eval_every=3000,
    init_norm=1.0,
)
results = run_benchmark(config)

by_key = {(r.algorithm, r.run_id.split("const")[1]): r for r in results}
labels = [f"{m / R2:g}" for m in multiples]

print(f"final excess risk after {config.n_samples} samples (* = diverged)\n")
header = "rate gamma".ljust(14) + "".join(f"{m:g}/R^2".rjust(14) for m in multiples)
print(header)
for algo in config.algorithms:
    cells = []
    for label in labels:
        r = by_key[(algo, label)]
        flag = "*" if r.diverged else " "
        cells.append(f"{r.final_metric:13.3e}{flag}")
    print(algo.ljust(14) + "".join(cells))

print(
    "\nReading guide: sgd/asgd explode once gamma crosses the stability"
    "\nboundary (around 0.85/R^2 for this loss scaling), isgd sits at its"
    "\nconstant-rate noise floor, and aisgd stays both stable and accurate."
)
