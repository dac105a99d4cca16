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

:func:`run_stream` keeps dense iterates as plain arrays.  On a sparse stream
it keeps sgd/isgd/asgd/aisgd in scaled form instead (W. Xu, arXiv:1107.2490,
section 4; Bottou, "Stochastic Gradient Descent Tricks", 2012): theta = a*w,
the running sum of the iterates is u + beta*w, and ||w||^2 is tracked, so
the L2 shrink, the average and the divergence test are scalar updates and a
step touches only the sample's nonzeros.  Only x.theta = a*(x.w) and ||x||^2
enter the implicit solve, so it stays the same scalar root.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .losses import GlmLoss
from .rates import LearningRate, rate_at
from .vectors import Sample, SparseVector, add_scaled, dot, sq_norm

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


@dataclass(slots=True)
class FixedPointResult:
    """Solution of the one-dimensional implicit-update equation.

    ``u_star`` is the scalar step along x, ``u0`` the incoming predictor
    x.theta_prev, ``c`` the squared feature norm, and ``residual`` the
    absolute error |u_star - gamma * g(...)| at the returned point.
    ``gamma_n``, ``y`` and ``loss`` are the solve's inputs, kept for ``s_n``.
    """

    u_star: float
    u0: float
    c: float
    iterations: int
    residual: float
    gamma_n: float
    y: float
    loss: GlmLoss

    @property
    def s_n(self) -> float:
        """The gradient scaling u_star / (gamma * g(u0)).

        Computed when read, since it costs a ``deriv`` call that the update
        itself never needs.
        """
        g_raw = -self.loss.deriv(self.u0, self.y)
        return self.u_star / (self.gamma_n * g_raw) if g_raw != 0.0 else 1.0


def solve_fixed_point(
    loss: GlmLoss,
    sample: Sample,
    theta_prev: np.ndarray,
    gamma_n: float,
    tol: float = 1e-15,
    max_iter: int = 200,
    scale: float = 1.0,
) -> FixedPointResult:
    """Solve u = gamma * g((u0 + u*c)/(1 + gamma*lam)) by safeguarded Newton.

    The predictor is u0 = scale * (x . theta_prev): a caller that stores the
    iterate as theta = scale * w passes w and its scale.

    ``tol`` is a residual tolerance: u is accepted once
    |u - gamma * g(...)| <= tol * max(1, |u|).  The far bracket end b is tried
    first; otherwise Newton runs from u = 0 and bisects whenever a step would
    leave the bracket or fails to halve the step before last.  Iteration also
    stops when the Newton correction is below one ulp of u or the bracket can
    no longer be split in float64.  ``iterations`` counts the points evaluated
    after b, so a zero gradient, a zero feature vector or an exact b gives 0.

    The inputs are checked once per solve, by one call to the public
    ``loss.deriv`` at u0/(1 + gamma*lam).  Each evaluated point then costs one
    unchecked ``loss._pair`` call, whose f' gives the residual and whose f''
    is kept for the next Newton slope.
    """
    if not gamma_n > 0:
        raise ValueError("gamma_n must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x, y = sample.x, sample.y
    u0 = scale * dot(x, theta_prev)
    c = sq_norm(x)
    if c == math.inf:  # every point but u = 0 would sit at an infinite predictor
        raise ValueError("squared feature norm overflows float64")
    shrink = 1.0 + gamma_n * loss.lam
    slope_scale = gamma_n * c / shrink
    pair = loss._pair

    v = u0 / shrink
    loss.deriv(v, y)  # the solve's one input check
    d, curv = pair(v, y)  # curv is f'' at the current point u, for the Newton slope
    b = -gamma_n * d  # the map T(u) = gamma * g(...) at u = 0

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
        image_far = -gamma_n * pair(v_far, y)[0]
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
        slope = 1.0 + slope_scale * curv
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
        d, curv = pair((u0 + u * c) / shrink, y)
        image = -gamma_n * d
        r = image - u
        if r > 0.0:
            lo, hi = u, min(hi, image)
        elif r < 0.0:
            lo, hi = max(lo, image), u
    return FixedPointResult(u, u0, c, iterations, abs(r), gamma_n, y, loss)


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
    """Trace plus final state of one streaming run, and what its metric measures."""

    run_id: str
    algorithm: str
    trace: list[TracePoint] = field(default_factory=list)
    state: OptimizerState | None = None
    metric_name: str = "metric"

    @property
    def diverged(self) -> bool:
        return any(pt.diverged for pt in self.trace)

    @property
    def final_metric(self) -> float:
        return self.trace[-1].metric


def is_diverged(theta: np.ndarray) -> bool:
    # NaN and inf both fail the <= test.
    return not (theta @ theta <= DIVERGENCE_NORM * DIVERGENCE_NORM)


class _DenseIterate:
    """theta and theta_bar as plain arrays, updated in place by the kernels above.

    ``update``, ``diverged`` and ``add_to_average`` are the kernels with
    their arrays bound once, so a step costs the kernel call alone.
    """

    def __init__(self, theta: np.ndarray, algorithm: str):
        self.theta, self.theta_bar = theta, theta.copy()
        self.acc = np.zeros_like(theta) if algorithm == "adagrad" else None
        self.reported = self.theta_bar if algorithm in AVERAGED else theta
        if algorithm in IMPLICIT:
            self.update = partial(_implicit_update, theta)
        elif self.acc is not None:
            self.update = partial(_adagrad_update, theta, self.acc)
        else:
            self.update = partial(_explicit_update, theta)
        self.diverged = partial(is_diverged, theta)
        self.add_to_average = partial(_average_update, self.theta_bar, theta)

    def estimate(self, n: int) -> np.ndarray:
        return self.reported.copy()

    def state(self, n: int, algorithm: str) -> OptimizerState:
        return OptimizerState(self.theta, self.theta_bar, n, self.acc, algorithm)


# Renormalize the scaled form once |a| leaves [SCALE_MIN, 1/SCALE_MIN].  The
# average's two parts u and beta*w grow like 1/|a| while their sum does not,
# so the cancellation in u + beta*w loses about eps/|a| relative: about 1e-13
# at 1e-3, while letting |a| drift to 1e-100 would leave no correct digit.
SCALE_MIN = 1e-3


class _ScaledIterate:
    """theta = a*w and theta_1 + ... + theta_n = u + beta*w, for sparse samples.

    A step moves w (and u) only at the sample's nonzeros: with delta the
    change to w, it sets w += delta, u -= beta*delta, beta += a, and folds
    the L2 factor into the scalar a.  ``q`` tracks ||w||^2, so the
    divergence test a*a*q is O(1).  theta and theta_bar are materialized,
    in O(p), only when evaluated and at the end; q is recomputed exactly at
    the same points.  The explicit and implicit updates here are the same
    arithmetic as ``_explicit_update`` and ``_implicit_update`` in scaled
    coordinates; the implicit predictor is a*(x.w).
    """

    def __init__(self, theta: np.ndarray, algorithm: str):
        self.theta0 = theta
        self.w = theta.copy()
        self.a = 1.0
        self.q = float(self.w @ self.w)
        self.u = np.zeros_like(theta) if algorithm in AVERAGED else None
        self.beta = 0.0
        self.update = self._implicit if algorithm in IMPLICIT else self._explicit

    def diverged(self) -> bool:
        # NaN and inf both fail the <= test.
        return not (self.a * self.a * self.q <= DIVERGENCE_NORM * DIVERGENCE_NORM)

    def add_to_average(self, n: int) -> None:
        self.beta += self.a

    def _explicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        x = sample.x
        xw = dot(x, self.w)
        d = loss.deriv(self.a * xw, sample.y)
        if loss.lam != 0.0:
            self._scale(1.0 - gamma_n * loss.lam)
        self._move(x, -gamma_n * d / self.a, xw, sq_norm(x))

    def _implicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        res = solve_fixed_point(loss, sample, self.w, gamma_n, scale=self.a)
        self._move(sample.x, res.u_star / self.a, res.u0 / self.a, res.c)
        if loss.lam != 0.0:
            self._scale(1.0 / (1.0 + gamma_n * loss.lam))

    def _move(self, x, coef: float, xw: float, c: float) -> None:
        """w += coef*x, given xw = x.w beforehand and c = ||x||^2."""
        add_scaled(self.w, coef, x)
        if self.u is not None:
            add_scaled(self.u, -self.beta * coef, x)
        self.q += coef * (2.0 * xw + coef * c)

    def _scale(self, factor: float) -> None:
        """theta *= factor."""
        a = self.a * factor
        if SCALE_MIN <= abs(a) <= 1.0 / SCALE_MIN:
            self.a = a
            return
        # Renormalize: move beta*w into u, then a*factor into w.  This also
        # covers factor == 0, where a itself would vanish.
        if self.u is not None:
            self.u += self.beta * self.w
            self.beta = 0.0
        self.w *= a
        self.a = 1.0
        self.q = float(self.w @ self.w)

    def estimate(self, n: int) -> np.ndarray:
        self.q = float(self.w @ self.w)
        return (self.u + self.beta * self.w) / n if self.u is not None else self.a * self.w

    def state(self, n: int, algorithm: str) -> OptimizerState:
        theta_bar = self.estimate(n) if self.u is not None else self.theta0
        return OptimizerState(self.a * self.w, theta_bar, n, None, algorithm)


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

    When the first sample is a ``SparseVector``, sgd, isgd, asgd and aisgd
    keep the iterate and its running sum in scaled form (see
    ``_ScaledIterate``), so a step costs O(nnz) rather than O(p); the
    estimate is materialized in O(p) only at evaluation rows and at the end.
    AdaGrad stays on the dense arrays, since its accumulator and its
    lam*theta gradient term touch every coordinate.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    if eval_at is None and eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    label = run_id if run_id is not None else algorithm
    averaged = algorithm in AVERAGED

    samples = iter(data)
    first = next(samples, None)
    if first is None:
        raise ValueError("sample stream yielded no data")
    theta = np.array(theta0 if theta0 is not None else np.zeros(first.dim), dtype=np.float64)
    scaled = isinstance(first.x, SparseVector) and algorithm != "adagrad"
    it = (_ScaledIterate if scaled else _DenseIterate)(theta, algorithm)
    update, diverged, add_to_average = it.update, it.diverged, it.add_to_average
    n = 0
    frozen = False
    trace: list[TracePoint] = []
    start = time.perf_counter()

    def record() -> None:
        estimate = it.estimate(n)
        flagged = frozen or diverged()
        metric = float(evaluator(estimate))
        wall_ms = (time.perf_counter() - start) * 1e3
        trace.append(TracePoint(label, n, metric, flagged, wall_ms))

    for sample in itertools.chain((first,), samples):
        n += 1
        gamma = rate_at(schedule, n)
        frozen = frozen or diverged()
        if not frozen:  # a diverged iterate stays put; the counter and average go on
            update(sample, gamma, loss)
        if averaged:
            add_to_average(n)

        if (n % eval_every == 0) if eval_at is None else (n in eval_at):
            record()

    if eval_at is None and (not trace or trace[-1].n != n):
        record()

    return RunResult(run_id=label, algorithm=algorithm, trace=trace, state=it.state(n, algorithm))
