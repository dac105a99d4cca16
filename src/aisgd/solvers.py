"""Update rules and the stream-driving loop.

Supported algorithms:

* ``sgd``      - explicit stochastic gradient step.
* ``isgd``     - implicit step: the new iterate appears inside its own
                 gradient, solved per sample via a one-dimensional
                 fixed point (see :func:`solve_fixed_point`).
* ``asgd``     - explicit step + running average of the iterates.
* ``aisgd``    - implicit step + running average.
* ``adagrad``  - explicit step with diagonal adaptive scaling.

For linear-predictor losses the gradient at any theta is f'(x.theta, y) * x,
so the implicit iterate is theta_prev + u* x for a scalar u*, and u* solves

    u = gamma * g((u0 + u*c) / (1 + gamma*lam)),      g(v) = -f'(v, y),

with u0 = x.theta_prev and c = ||x||^2.  Because g is non-increasing for a
convex loss, so is the right-hand side T(u), the root is unique, and it lies
between any u and T(u): between 0 and b = gamma * g(u0 / (1 + gamma*lam)) to
start.  :func:`solve_fixed_point` runs Newton's method inside that bracket,
bisecting when a step leaves it or stalls, and stops on the residual
|u - T(u)|.  Squared loss, where T is linear, takes a single Newton step.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .losses import GlmLoss
from .rates import LearningRate, rate_at
from .vectors import Sample, add_scaled, dot, sq_norm

ALGORITHMS = ("sgd", "isgd", "asgd", "aisgd", "adagrad")
AVERAGED = frozenset({"asgd", "aisgd"})
IMPLICIT = frozenset({"isgd", "aisgd"})

# An iterate counts as diverged when non-finite or larger than this in norm.
DIVERGENCE_NORM = 1e12

ADAGRAD_EPS = 1e-8


class BracketError(RuntimeError):
    """The guaranteed search bracket failed; the loss is not convex in u."""


class ConvergenceError(RuntimeError):
    """The scalar root finder hit its iteration cap before its tolerance."""


@dataclass(frozen=True)
class OptimizerState:
    """Current iterate, its running average, and per-algorithm extras."""

    theta: np.ndarray
    theta_bar: np.ndarray
    n: int = 0
    adagrad_g: np.ndarray | None = None
    algorithm: str = "sgd"


def init_state(theta0: np.ndarray, algorithm: str = "sgd") -> OptimizerState:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    theta0 = np.asarray(theta0, dtype=np.float64).copy()
    g = np.zeros_like(theta0) if algorithm == "adagrad" else None
    return OptimizerState(
        theta=theta0, theta_bar=theta0.copy(), n=0, adagrad_g=g, algorithm=algorithm
    )


def reported_estimate(state: OptimizerState) -> np.ndarray:
    """The vector the algorithm reports: the average for asgd/aisgd."""
    return state.theta_bar if state.algorithm in AVERAGED else state.theta


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of the one-dimensional implicit-update equation.

    ``u_star`` is the scalar step along x, ``s_n`` the gradient scaling
    u_star / (gamma * g(u0)), ``u0`` the incoming predictor x.theta_prev,
    ``c`` the squared feature norm, and ``residual`` the absolute error
    |u_star - gamma * g(...)| at the returned point.
    """

    u_star: float
    s_n: float
    u0: float
    c: float
    iterations: int
    residual: float


def solve_fixed_point(
    loss: GlmLoss,
    sample: Sample,
    theta_prev: np.ndarray,
    gamma_n: float,
    tol: float = 1e-15,
    max_iter: int = 200,
) -> FixedPointResult:
    """Solve u = gamma * g((u0 + u*c)/(1 + gamma*lam)) by safeguarded Newton.

    ``tol`` is a residual tolerance: u is accepted once
    |u - gamma * g(...)| <= tol * max(1, |u|).  The far bracket end b is tried
    first; otherwise Newton runs from u = 0 and bisects whenever a step would
    leave the bracket or fails to halve the step before last.  Iteration also
    stops when the Newton correction is below one ulp of u or the bracket can
    no longer be split in float64.  ``iterations`` counts the points evaluated
    after b, so a zero gradient, a zero feature vector or an exact b gives 0.
    """
    if not gamma_n > 0:
        raise ValueError("gamma_n must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x, y = sample.x, sample.y
    u0 = dot(x, theta_prev)
    c = sq_norm(x)
    shrink = 1.0 + gamma_n * loss.lam
    slope_scale = gamma_n * c / shrink
    deriv, second_deriv = loss.deriv, loss.second_deriv

    g_anchor = -deriv(u0 / shrink, y)
    b = gamma_n * g_anchor  # the map T(u) = gamma * g(...) at u = 0

    # T is non-increasing, so the root lies between any u and T(u): between 0
    # and b to start, and each evaluation below narrows [lo, hi] the same way.
    lo, hi = (0.0, b) if b > 0 else (b, 0.0)
    # The predictor vanishes at u_zero, where every family's g is finite; it
    # is the first bisection point whenever it lies inside the bracket.
    u_zero = -u0 / c if c > 0.0 else math.nan
    u, r = 0.0, b
    step_before_last = step = math.inf
    iterations = 0
    v_far = (u0 + b * c) / shrink
    if math.isfinite(v_far):
        image_far = -gamma_n * deriv(v_far, y)
        r_far = image_far - b
        if (b > 0 and r_far > 0.0) or (b < 0 and r_far < 0.0):
            raise BracketError(
                "fixed-point bracket violated; loss second derivative is not >= 0"
            )
        if abs(r_far) <= tol * max(1.0, abs(b)):
            u, r = b, r_far
        elif b > 0:
            lo = max(lo, image_far)
        else:
            hi = min(hi, image_far)
    while abs(r) > tol * max(1.0, abs(u)):
        slope = 1.0 + slope_scale * second_deriv((u0 + u * c) / shrink, y)
        newton = r / slope  # nan, or 0 at an overflowed slope, in an exp tail
        if abs(newton) <= math.ulp(u) and slope < math.inf:
            break
        u_next = u + newton
        if (
            not lo <= u_next <= hi
            or u_next == u
            or abs(2.0 * newton) > abs(step_before_last)
        ):
            u_next = u_zero if lo < u_zero < hi else 0.5 * (lo + hi)
            if not lo < u_next < hi:
                break  # bracket no longer splittable in float64
        step_before_last, step = step, u_next - u
        if iterations == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; residual {abs(r):.3e}"
            )
        iterations += 1
        u = u_next
        image = -gamma_n * deriv((u0 + u * c) / shrink, y)
        r = image - u
        if r > 0.0:
            lo, hi = u, min(hi, image)
        elif r < 0.0:
            lo, hi = max(lo, image), u
    u_star, residual = u, abs(r)

    g_raw = g_anchor if shrink == 1.0 else -deriv(u0, y)
    s_n = u_star / (gamma_n * g_raw) if g_raw != 0.0 else 1.0
    return FixedPointResult(
        u_star=u_star, s_n=s_n, u0=u0, c=c, iterations=iterations, residual=residual
    )


# In-place update arithmetic, shared by run_stream and the copying step API below.
def _implicit_update(
    theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss, tol: float = 1e-15
) -> None:
    res = solve_fixed_point(loss, sample, theta, gamma_n, tol=tol)
    add_scaled(theta, res.u_star, sample.x)
    shrink = 1.0 + gamma_n * loss.lam
    if shrink != 1.0:
        theta /= shrink


def _explicit_update(theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
    d = loss.deriv(dot(sample.x, theta), sample.y)
    if loss.lam != 0.0:
        theta *= 1.0 - gamma_n * loss.lam
    add_scaled(theta, -gamma_n * d, sample.x)


def _adagrad_update(
    theta: np.ndarray, acc: np.ndarray, sample: Sample, eta: float, loss: GlmLoss
) -> None:
    d = loss.deriv(dot(sample.x, theta), sample.y)
    grad = add_scaled(np.zeros_like(theta), d, sample.x)
    if loss.lam != 0.0:
        grad += loss.lam * theta
    acc += grad * grad
    theta -= eta * grad / (np.sqrt(acc) + ADAGRAD_EPS)


def _average_update(theta_bar: np.ndarray, theta: np.ndarray, n: int) -> None:
    theta_bar += (theta - theta_bar) / n


def implicit_step(
    state: OptimizerState,
    sample: Sample,
    gamma_n: float,
    loss: GlmLoss,
    tol: float = 1e-15,
) -> OptimizerState:
    """One implicit update: theta_n = theta_prev - gamma * grad at theta_n."""
    theta = state.theta.copy()
    _implicit_update(theta, sample, gamma_n, loss, tol)
    return replace(state, theta=theta, n=state.n + 1)


def explicit_step(
    state: OptimizerState, sample: Sample, gamma_n: float, loss: GlmLoss
) -> OptimizerState:
    """One classic update: theta_n = theta_prev - gamma * grad at theta_prev."""
    if gamma_n < 0:
        raise ValueError("gamma_n must be non-negative")
    theta = state.theta.copy()
    _explicit_update(theta, sample, gamma_n, loss)
    return replace(state, theta=theta, n=state.n + 1)


def update_average(state: OptimizerState) -> OptimizerState:
    """Fold the current iterate into the running mean of theta_1..theta_n."""
    if state.n < 1:
        raise ValueError("update_average requires at least one completed step")
    bar = state.theta_bar.copy()
    _average_update(bar, state.theta, state.n)
    return replace(state, theta_bar=bar)


def adagrad_step(
    state: OptimizerState, sample: Sample, eta: float, loss: GlmLoss
) -> OptimizerState:
    """Diagonal adaptive update: G += g^2; theta -= eta * g / (sqrt(G) + eps)."""
    if state.adagrad_g is None:
        raise ValueError("state has no adagrad accumulator; init with algorithm='adagrad'")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    theta, acc = state.theta.copy(), state.adagrad_g.copy()
    _adagrad_update(theta, acc, sample, eta, loss)
    return replace(state, theta=theta, adagrad_g=acc, n=state.n + 1)


@dataclass(frozen=True)
class TracePoint:
    """One evaluation row of a run: the data behind every results plot."""

    run_id: str
    n: int
    metric: float
    diverged: bool
    wall_ms: float


@dataclass
class RunResult:
    """Trace plus final state of one streaming run."""

    run_id: str
    algorithm: str
    trace: list[TracePoint] = field(default_factory=list)
    state: OptimizerState | None = None

    @property
    def diverged(self) -> bool:
        return any(pt.diverged for pt in self.trace)

    @property
    def final_metric(self) -> float:
        return self.trace[-1].metric


def is_diverged(theta: np.ndarray) -> bool:
    # NaN and inf both fail the <= test.
    return not (theta @ theta <= DIVERGENCE_NORM * DIVERGENCE_NORM)


def run_stream(
    algorithm: str,
    loss: GlmLoss,
    schedule: LearningRate,
    data,
    eval_every: int,
    evaluator,
    *,
    theta0: np.ndarray | None = None,
    eval_at: set[int] | None = None,
    run_id: str | None = None,
) -> RunResult:
    """Drive one algorithm over a sample stream, evaluating periodically.

    The evaluator is called on a copy of the reported estimate (the running
    average for asgd/aisgd, the raw iterate otherwise) every ``eval_every``
    samples, or at the explicit positions ``eval_at`` when given; with
    ``eval_at=None`` the final sample is always evaluated.  A diverged iterate
    (non-finite or with norm above 1e12) freezes further updates but the
    stream keeps consuming samples and emitting rows flagged ``diverged=True``.

    Only asgd and aisgd keep the running average: for sgd, isgd and adagrad
    ``state.theta_bar`` is the starting point, untouched by the run.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    if eval_at is None and eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    label = run_id if run_id is not None else algorithm
    averaged = algorithm in AVERAGED
    implicit = algorithm in IMPLICIT

    samples = iter(data)
    first = next(samples, None)
    if first is None:
        raise ValueError("sample stream yielded no data")
    theta = np.array(theta0 if theta0 is not None else np.zeros(first.dim), dtype=np.float64)
    theta_bar = theta.copy()
    acc = np.zeros_like(theta) if algorithm == "adagrad" else None
    n = 0
    frozen = False
    trace: list[TracePoint] = []
    start = time.perf_counter()

    def record() -> None:
        flagged = frozen or is_diverged(theta)
        metric = float(evaluator((theta_bar if averaged else theta).copy()))
        wall_ms = (time.perf_counter() - start) * 1e3
        trace.append(TracePoint(label, n, metric, flagged, wall_ms))

    for sample in itertools.chain((first,), samples):
        n += 1
        gamma = rate_at(schedule, n)
        frozen = frozen or is_diverged(theta)
        if frozen:
            pass  # a diverged iterate stays put; the counter and average go on
        elif implicit:
            _implicit_update(theta, sample, gamma, loss)
        elif acc is not None:
            _adagrad_update(theta, acc, sample, gamma, loss)
        else:
            _explicit_update(theta, sample, gamma, loss)
        if averaged:
            _average_update(theta_bar, theta, n)

        if (n % eval_every == 0) if eval_at is None else (n in eval_at):
            record()

    if eval_at is None and (not trace or trace[-1].n != n):
        record()

    state = OptimizerState(theta, theta_bar, n, acc, algorithm)
    return RunResult(run_id=label, algorithm=algorithm, trace=trace, state=state)
