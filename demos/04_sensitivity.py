"""How much does the L2 coefficient matter?  A hyperparameter sweep.

Synthetic logistic task with a strong signal, trained at a deliberately
aggressive constant rate.  Sweeping lambda across four decades, the
implicit averaged runs land at nearly the same test error everywhere; the
explicit averaged runs swing widely and fall over at the large-lambda end,
where gamma * lambda crosses the explicit update's own stability limit
(the shrinkage factor 1 - gamma*lambda leaves [-1, 1]).

Runs in roughly 15 seconds.
"""

from aisgd import ConstantRate, ExperimentConfig, loss_from_name, sensitivity_sweep

config = ExperimentConfig(
    task="logistic",
    algorithms=["aisgd", "asgd"],
    loss=loss_from_name("logistic"),
    schedules=[ConstantRate(300.0)],
    seed=11,
    n_samples=20_000,
    dim=20,
    eval_every=5000,
    theta_star_norm=10.0,
    test_fraction=0.25,
)
grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
sweep = sensitivity_sweep(config, "lambda", grid)

print("test error by L2 coefficient (constant rate 300), * = diverged\n")
print("lambda".ljust(10) + "".join(a.rjust(10) for a in sweep.algorithms))
for i, value in enumerate(sweep.values):
    row = "".join(
        f"{sweep.finals[i, j]:9.4f}" + ("*" if sweep.diverged[i, j] else " ")
        for j in range(len(sweep.algorithms))
    )
    print(f"{value:<10g}{row}")

for algo in sweep.algorithms:
    print(f"{algo} spread across the grid: {sweep.spread(algo):.4f}")
