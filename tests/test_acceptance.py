"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
The runs are deterministic: seeds, sizes and tolerances are pinned here.

Known red: the second stability clause (test 3b) asserts that averaged
explicit and averaged implicit runs land within a factor of 3 of each other
at the constant rate 1/R^2.  With the squared loss defined as (y - u)^2 (no
1/2 factor, which the closed-form and contraction checks below require), the
explicit update's stability boundary sits near 0.85/R^2, so the averaged
explicit run diverges at 1/R^2 for every seed and the clause cannot hold.
The test states the requirement faithfully and fails honestly.
"""

import math
import time

import numpy as np
import pytest

from aisgd import (
    ConstantRate,
    ExperimentConfig,
    PolynomialRate,
    SquaredLoss,
    SyntheticSpec,
    XuRate,
    excess_risk,
    explicit_step,
    implicit_step,
    init_state,
    loss_from_name,
    make_normal_design,
    rate_at,
    run_benchmark,
    run_stream,
    sensitivity_sweep,
    solve_fixed_point,
    update_average,
)
from aisgd.cli import main as cli_main
from aisgd.experiments import _unit_vector, fit_loglog_slope

from helpers import make_sample, prox_objective, random_case

R2 = 3.597739657143682  # trace of the p = 20 harmonic spectrum
ALL_FAMILIES = ["squared", "logistic", "poisson", "hinge"]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_fixed_point_oracle_equivalence():
    """Bisection scaling equals the closed-form 1/(1 + 2*gamma*||x||^2)."""
    rng = np.random.default_rng(1001)
    loss = SquaredLoss()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        x = rng.standard_normal(p)
        theta = rng.standard_normal(p) / math.sqrt(p)
        y = float(rng.standard_normal())
        gamma = float(10.0 ** rng.uniform(-4, 1))
        res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
        err = abs(res.s_n - 1.0 / (1.0 + 2.0 * gamma * res.c))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (fixed-point oracle equivalence)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max |s_n - closed form| = {worst:.2e} (limit 1e-10), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_02_proximal_optimality():
    """The implicit iterate minimizes the per-sample proximal objective.

    The <= comparisons carry a 1e-10 relative slack for float evaluation of
    two nearly equal objectives when the step is nearly zero.
    """
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst_resid = 0.0
    for i in range(1000):
        family = ALL_FAMILIES[i % 4]
        loss = loss_from_name("hinge:0.5" if family == "hinge" else family)
        x, y, theta_prev = random_case(rng, family, int(rng.integers(1, 11)))
        gamma = float(10.0 ** rng.uniform(-4, 1))
        sample = make_sample(x, y)
        state = init_state(theta_prev, "isgd")
        imp = implicit_step(state, sample, gamma, loss)
        exp = explicit_step(state, sample, gamma, loss)
        obj = lambda t: prox_objective(loss, x, y, theta_prev, gamma, t)
        at_impl = obj(imp.theta)
        slack = 1e-10 * (1.0 + abs(obj(theta_prev)))
        assert at_impl <= obj(theta_prev) + slack
        assert at_impl <= obj(exp.theta) + slack
        grad = loss.deriv(float(x @ imp.theta), y) * x
        resid = float(np.linalg.norm(imp.theta - theta_prev + gamma * grad))
        worst_resid = max(worst_resid, resid)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (proximal optimality)",
        worst_resid <= 1e-8 and elapsed < 5.0,
        f"max update residual = {worst_resid:.2e} (limit 1e-8), "
        f"{elapsed:.2f}s (limit 5s)",
    )


@pytest.fixture(scope="module")
def stability_runs():
    config = ExperimentConfig(
        task="linear",
        algorithms=["aisgd", "asgd"],
        loss=SquaredLoss(),
        schedules=[ConstantRate(2.0 / R2), ConstantRate(1.0 / R2)],
        seed=20,
        n_samples=200_000,
        dim=20,
        eval_every=2000,
        init_norm=1.0,
    )
    start = time.perf_counter()
    results = {r.run_id: r for r in run_benchmark(config)}
    elapsed = time.perf_counter() - start
    spec = SyntheticSpec(n_samples=200_000, dim=20, seed=20)
    theta0 = _unit_vector(20, 11, 20)
    return results, excess_risk(theta0, spec), elapsed


def test_criterion_03a_stability_divergence_and_implicit_recovery(stability_runs):
    """At 2/R^2 the averaged explicit run blows up, the implicit one recovers."""
    results, init_excess, elapsed = stability_runs
    high = f"const{2.0 / R2:g}"
    asgd = results[f"asgd-{high}"]
    aisgd = results[f"aisgd-{high}"]
    asgd_metrics = [pt.metric for pt in asgd.trace]
    asgd_blown = any(not math.isfinite(m) for m in asgd_metrics) or max(
        asgd_metrics
    ) >= 10.0 * init_excess
    aisgd_final = aisgd.trace[-1].metric
    _report(
        "criterion 3a (stability at 2/R^2)",
        asgd_blown and aisgd_final < init_excess and elapsed < 60.0,
        f"asgd max metric {max(asgd_metrics):.2e} vs 10x init {10 * init_excess:.2e}; "
        f"aisgd final {aisgd_final:.2e} < init {init_excess:.2e}; "
        f"runs took {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_03b_stability_agreement_at_threshold(stability_runs):
    """At 1/R^2 the two averaged runs should land within a factor of 3.

    Known red; see the module docstring: the (y - u)^2 convention doubles
    every gradient, so the averaged explicit run is divergent at this rate.
    """
    results, _, _ = stability_runs
    low = f"const{1.0 / R2:g}"
    a = results[f"aisgd-{low}"].trace[-1].metric
    b = results[f"asgd-{low}"].trace[-1].metric
    ok = math.isfinite(a) and math.isfinite(b) and a / 3.0 <= b <= 3.0 * a
    _report(
        "criterion 3b (agreement at 1/R^2)",
        ok,
        f"aisgd final {a:.2e}, asgd final {b:.2e} (required within factor 3)",
    )


def test_criterion_04_convergence_rate_slopes():
    """Trailing log-log slopes: near -1 averaged, near -2/3 unaveraged.

    Evaluation points are log-spaced so the trailing half of the trace spans
    a wide range of n, which is what a log-log slope needs.
    """
    start = time.perf_counter()
    n_total = 200_000
    spec = SyntheticSpec(n_samples=n_total, dim=20, seed=20)
    train = make_normal_design(spec)
    theta0 = _unit_vector(20, 11, 20)
    schedule = PolynomialRate(1.0 / R2, 2.0 / 3.0)
    positions = set(
        int(v) for v in np.unique(np.round(np.logspace(2, math.log10(n_total), 120)))
    )
    slopes = {}
    for algo in ("aisgd", "isgd"):
        result = run_stream(
            algo,
            SquaredLoss(),
            schedule,
            train,
            eval_every=1,
            evaluator=lambda th: excess_risk(th, spec),
            theta0=theta0,
            eval_at=positions,
            run_id=algo,
        )
        slopes[algo] = fit_loglog_slope(result.trace, 0.5)
    elapsed = time.perf_counter() - start
    ok = (
        -1.3 <= slopes["aisgd"] <= -0.7
        and -1.0 <= slopes["isgd"] <= -0.4
        and elapsed < 60.0
    )
    _report(
        "criterion 4 (convergence-rate slopes)",
        ok,
        f"aisgd slope {slopes['aisgd']:.3f} in [-1.3, -0.7]; "
        f"isgd slope {slopes['isgd']:.3f} in [-1.0, -0.4]; "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_05_step_norm_bound():
    """Implicit logistic steps obey ||step|| <= 2 * gamma_n * ||x_n||."""
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    loss = loss_from_name("logistic")
    schedule = XuRate(1.0)
    state = init_state(np.zeros(8), "isgd")
    worst = -math.inf
    for n in range(1, 10_001):
        x = rng.standard_normal(8)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        gamma = rate_at(schedule, n)
        new = implicit_step(state, make_sample(x, y), gamma, loss)
        gap = float(
            np.linalg.norm(new.theta - state.theta)
            - 2.0 * gamma * np.linalg.norm(x)
        )
        worst = max(worst, gap)
        state = new
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (step-norm bound)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max ||step|| - 2*gamma*||x|| = {worst:.2e} (limit 1e-12), "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_06_per_step_contraction():
    """Noiseless 1-d squared-loss stream contracts at rate 1/(1+2*gamma*x^2)."""
    rng = np.random.default_rng(1006)
    loss = SquaredLoss()
    theta_star = 3.0
    state = init_state(np.array([0.0]), "isgd")
    worst = -math.inf
    for n in range(1, 1001):
        x = float(rng.standard_normal())
        if x == 0.0:
            continue
        gamma = 0.7 * n ** (-2.0 / 3.0)
        new = implicit_step(state, make_sample([x], x * theta_star), gamma, loss)
        lhs = (new.theta[0] - theta_star) ** 2
        rhs = (state.theta[0] - theta_star) ** 2 / (1.0 + 2.0 * gamma * x * x)
        worst = max(worst, lhs - rhs)
        state = new
    _report(
        "criterion 6 (per-step contraction)",
        worst <= 1e-12,
        f"max contraction violation = {worst:.2e} (limit 1e-12)",
    )


def test_criterion_07_decay_product_inequality():
    """prod 1/(1+b_i) <= exp(-K sum b_i), K = log(1+b_1)/b_1, at every n."""
    worst = -math.inf
    for b1, beta in ((0.1, 0.5), (1.0, 0.7), (2.0, 1.0)):
        n = np.arange(1, 10_001)
        b = b1 * n ** (-beta)
        k = math.log1p(b1) / b1
        lhs = np.cumprod(1.0 / (1.0 + b))
        rhs = np.exp(-k * np.cumsum(b))
        worst = max(worst, float(np.max(lhs - rhs)))
    _report(
        "criterion 7 (decay-product inequality)",
        worst <= 0.0,
        f"max product minus bound = {worst:.2e} (limit 0)",
    )


def test_criterion_08_averaging_exactness():
    """Running-mean recurrence equals the batch mean to 1e-12 relative."""
    from dataclasses import replace

    rng = np.random.default_rng(1008)
    iterates = rng.standard_normal((1000, 6))
    state = init_state(np.zeros(6), "aisgd")
    worst = 0.0
    for i, theta in enumerate(iterates, start=1):
        state = update_average(replace(state, theta=theta, n=i))
        batch = iterates[:i].mean(axis=0)
        err = float(
            np.linalg.norm(state.theta_bar - batch) / max(np.linalg.norm(batch), 1e-30)
        )
        worst = max(worst, err)
    _report(
        "criterion 8 (averaging exactness)",
        worst <= 1e-12,
        f"max relative gap = {worst:.2e} (limit 1e-12)",
    )


def test_criterion_09_regularization_sensitivity():
    """Across the lambda grid the implicit averaged run moves less than the
    explicit averaged run and never diverges."""
    start = time.perf_counter()
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
    sweep = sensitivity_sweep(
        config, "lambda", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    )
    elapsed = time.perf_counter() - start
    aisgd_spread = sweep.spread("aisgd")
    asgd_spread = sweep.spread("asgd")
    aisgd_diverged = bool(sweep.diverged[:, sweep.algorithms.index("aisgd")].any())
    ok = aisgd_spread <= asgd_spread and not aisgd_diverged and elapsed < 120.0
    _report(
        "criterion 9 (regularization sensitivity)",
        ok,
        f"aisgd spread {aisgd_spread:.4f} <= asgd spread {asgd_spread:.4f}; "
        f"aisgd diverged: {aisgd_diverged}; {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_10_benchmark_determinism(tmp_path):
    """Repeated bench invocations agree byte-for-byte apart from wall_ms."""
    cfg = str(
        __import__("pathlib").Path(__file__).resolve().parent.parent
        / "configs"
        / "stability.cfg"
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            [
                "bench", cfg,
                "--set", "n=2000",
                "--set", "eval_every=500",
                "--set", f"out={out}",
            ]
        )
        assert code == 0
        outs.append(out)

    def stripped(directory):
        rows = {}
        for path in sorted(directory.glob("*.csv")):
            rows[path.name] = [
                ",".join(line.split(",")[:-1])
                for line in path.read_text().splitlines()
            ]
        return rows

    first, second = stripped(outs[0]), stripped(outs[1])
    ok = first == second and len(first) == 9
    _report(
        "criterion 10 (benchmark determinism)",
        ok,
        f"{len(first)} trace files identical modulo wall_ms",
    )
