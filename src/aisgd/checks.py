"""Numeric self-checks of the solver's core guarantees.

Each check exercises one property end to end with fresh seeded data and
reports pass/fail plus a one-line detail, under a name taken from its
function's: ``_check_step_bound`` reports ``step-bound``.  A name filter
picks the checks before any runs.  The solver tolerance is a
parameter so a deliberately broken tolerance makes the suite fail, which is
how the checker verifies itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .losses import LogisticLoss, SquaredLoss
from .rates import PolynomialRate, rate_at
from .solvers import implicit_step, init_state, solve_fixed_point, update_average
from .vectors import Sample


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _check_fixed_point(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    loss = SquaredLoss()
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 21))
        x = rng.standard_normal(p)
        theta = rng.standard_normal(p)
        y = float(rng.standard_normal())
        gamma = float(10.0 ** rng.uniform(-4, 1))
        res = solve_fixed_point(loss, Sample(x, y), theta, gamma, tol=tol)
        if res.c == 0.0 or abs(res.u0 - y) < 1e-12:
            continue
        exact = 1.0 / (1.0 + 2.0 * gamma * res.c)
        worst = max(worst, abs(res.s_n - exact))
    return worst <= 1e-10, f"max |s_n - closed form| = {worst:.3e} (limit 1e-10)"


def _check_step_bound(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(102)
    loss = LogisticLoss()
    schedule = PolynomialRate(1.0, 2.0 / 3.0)
    state = init_state(np.zeros(5), "isgd")
    worst = -math.inf
    for _ in range(2000):
        x = rng.standard_normal(5)
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        gamma = rate_at(schedule, state.n + 1)
        new = implicit_step(state, Sample(x, y), gamma, loss, tol=tol)
        step = float(np.linalg.norm(new.theta - state.theta))
        bound = 2.0 * gamma * float(np.linalg.norm(x))
        worst = max(worst, step - bound)
        state = new
    return worst <= 1e-12, f"max ||step|| - 2*gamma*||x|| = {worst:.3e} (limit 1e-12)"


def _check_contraction(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(103)
    loss = SquaredLoss()
    theta_star = 2.0
    state = init_state(np.array([0.0]), "isgd")
    schedule = PolynomialRate(1.0, 2.0 / 3.0)
    worst = -math.inf
    for _ in range(1000):
        x = float(rng.standard_normal())
        if x == 0.0:
            continue
        gamma = rate_at(schedule, state.n + 1)
        new = implicit_step(state, Sample(np.array([x]), x * theta_star), gamma, loss, tol=tol)
        lhs = (new.theta[0] - theta_star) ** 2
        rhs = (state.theta[0] - theta_star) ** 2 / (1.0 + 2.0 * gamma * x * x)
        worst = max(worst, lhs - rhs)
        state = new
    return worst <= 1e-12, f"max violation of the per-step contraction = {worst:.3e} (limit 1e-12)"


def _check_averaging(tol: float) -> tuple[bool, str]:
    rng = np.random.default_rng(104)
    iterates = rng.standard_normal((1000, 4))
    state = init_state(np.zeros(4), "aisgd")
    worst = 0.0
    for i, theta in enumerate(iterates, start=1):
        state = replace(state, theta=theta, n=i)
        state = update_average(state)
        batch = iterates[:i].mean(axis=0)
        err = np.linalg.norm(state.theta_bar - batch) / max(1e-30, np.linalg.norm(batch))
        worst = max(worst, float(err))
    detail = f"max relative gap running mean vs batch mean = {worst:.3e} (limit 1e-12)"
    return worst <= 1e-12, detail


def _check_decay_product(tol: float) -> tuple[bool, str]:
    worst = -math.inf
    for b1, beta in ((0.1, 0.5), (1.0, 0.7), (2.0, 1.0)):
        n = np.arange(1, 10_001)
        b = b1 * n ** (-beta)
        k = math.log1p(b1) / b1
        lhs = np.cumprod(1.0 / (1.0 + b))
        rhs = np.exp(-k * np.cumsum(b))
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst <= 0.0, f"max product - exp bound = {worst:.3e} (limit 0)"


_CHECKS = (
    _check_fixed_point,
    _check_step_bound,
    _check_contraction,
    _check_averaging,
    _check_decay_product,
)


def _name_of(fn) -> str:
    """A check's name from its function's: ``_check_step_bound`` is ``step-bound``."""
    return fn.__name__.removeprefix("_check_").replace("_", "-")


def run_checks(solver_tol: float = 1e-15, name_filter: str | None = None) -> list[CheckOutcome]:
    """Run the suite, or only the checks whose name contains the filter."""
    chosen = [fn for fn in _CHECKS if name_filter is None or name_filter in _name_of(fn)]
    if not chosen:
        raise ValueError(f"no check matches filter {name_filter!r}")
    return [CheckOutcome(_name_of(fn), *fn(solver_tol)) for fn in chosen]
