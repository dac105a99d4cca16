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
start.  :func:`solve_fixed_point` stops at u = 0 if b is within tolerance.
Otherwise it takes one Newton step from 0: its slope is at least 1, so the
step lands in [0, b] and needs no safeguard.  Only if that point misses is
the bracket set up; from there it runs Newton's method inside the bracket,
bisecting when a step leaves it or stalls, and stops on the residual
|u - T(u)|.  Squared loss, where T is linear, stops after that first step.

The data enter only through u0 and c, and each ``Sample`` stores c when
built, so a solve never recomputes ||x||^2.

:func:`run_stream` keeps a dense run's arrays and norm bound in its own locals
and steps them in a loop of its own: per sample one ``schedule.rate`` call, a
direct call of the run's kernel below and of ``_average_update`` for
asgd/aisgd, and an inline O(1) update of the bound on ||theta|| by the
triangle inequality: on theta' = s*theta + a*x (explicit), (theta + u*x)/s
(implicit), or theta - delta for AdaGrad, whose every entry of delta is at
most eta in size, as |g_i| <= sqrt(G_i), so ||delta|| <= eta*sqrt(p).  The
O(p) exact test :func:`_exact_norm` runs at the start, then only once the
bound exceeds half the divergence norm or is nan; it resets the bound to
||theta||, inf if diverged.  The margin absorbs rounding, so the freeze falls
on the same sample as with the exact test at every step.  An AdaGrad step
whose eta*g might overflow sets the bound to inf, so the exact test decides.
The lockstep pilots below run the exact test itself, batched.

Each dense run steps in one workspace (:func:`_workspace`): a 0-d slot
for the scalar operands that vary by step and a length-p buffer (two for
AdaGrad), so that no NumPy call in its hot loop takes a Python float or
allocates.  The fixed operands +0.0 and AdaGrad's eps are read-only 0-d
module arrays.  A copying step makes its own workspace, and the pilots one
per call.  Each kernel tests the row type once, and a dense row takes its
predictor from ``x.dot(theta)`` directly; only the implicit solve calls
``dot``.  Each vector update is one call of its ufunc through a module-level
name, with the output array passed: neither an in-place operator nor an
``np.`` attribute lookup, each of which adds dispatch to every call.

A dense step whose coefficient along x is exactly 0 (the explicit
a = -gamma*f', or the implicit u*), as on the flat piece of the hinge, skips
the O(p) axpy theta += 0*x; the L2 shrink still runs.  Adding a zero leaves
every entry as it is except -0.0, which the axpy may turn into +0.0.  So the
iterate is bit-identical unless it holds -0.0 entries, from a user theta0 or
an explicit L2 factor 1 - gamma*lam <= 0, and even then only the sign of a
zero can differ.

On a sparse stream, run_stream keeps sgd/isgd/asgd/aisgd in scaled form
instead (W. Xu, arXiv:1107.2490, section 4; Bottou, "Stochastic Gradient
Descent Tricks", 2012): theta = a*w, the running sum of the iterates is
u + beta*w, and ||w||^2 is tracked, so the L2 shrink, the average and the
divergence test are scalar updates and a step touches only the sample's
nonzeros.  Only x.theta and ||x||^2 enter the implicit solve, so it passes
``solve_fixed_point`` the predictor u0 = a*(x.w) and the root is the same.
Sparse AdaGrad with lam = 0 updates only the sample's nonzeros, since off
them its gradient is +0.0, which leaves the accumulator and theta
bit-unchanged: a step costs O(nnz), and its norm bound grows by
eta*sqrt(p), looser than the eta*sqrt(nnz) that would do.  With lam > 0
the lam*theta term reaches every coordinate, and a step is O(p).

Two dense runs from one start at one schedule step through the same theta
when both are explicit (sgd, asgd) or both implicit (isgd, aisgd), since the
running average only reads theta.  So ``experiments.run_pairs`` has the
averaged run (asgd, aisgd) step that path and record (``_PathRecord``) a copy
of theta at each evaluation row and the final theta; the plain run (sgd,
isgd) replays them without a step, and never averages.  Each recorded copy
is the theta a lone plain run would report, so both runs keep the bits of
running alone.  A record holds rows x p x 8 bytes.  Scaled sparse runs step
alone.  This assumes a loss is a pure function of (u, y).

The xu:auto pilots (``experiments.calibrate_eta0``) over dense samples run
sgd/isgd/asgd/aisgd through :func:`_lockstep_finals`, which steps all K
candidate rates together on K x p arrays and says why the finals keep the
bits of one run_stream per rate.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .losses import GlmLoss
from .rates import LearningRate, rate_at
from .vectors import Sample, SparseVector, add_scaled, dot

ALGORITHMS = ("sgd", "isgd", "asgd", "aisgd", "adagrad")
AVERAGED = frozenset({"asgd", "aisgd"})
IMPLICIT = frozenset({"isgd", "aisgd"})

# An iterate counts as diverged when non-finite or larger than this in norm.
DIVERGENCE_NORM = 1e12
# The test itself: not theta.theta <= _DIVERGENCE_SQ, which nan and inf fail.
_DIVERGENCE_SQ = DIVERGENCE_NORM * DIVERGENCE_NORM
# A norm bound above this runs the exact test; the factor 2 absorbs rounding.
_BOUND_TRIGGER = 0.5 * DIVERGENCE_NORM

ADAGRAD_EPS = 1e-8


class BracketError(RuntimeError):
    """The guaranteed search bracket failed; the loss is not convex in u."""


class ConvergenceError(RuntimeError):
    """The scalar root finder hit its iteration cap before its tolerance."""


_NOT_CONVEX = "fixed-point bracket violated; loss second derivative is not >= 0"
# The smallest positive float64: a Newton step no larger than this underflowed.
_TINY = math.ulp(0.0)
_INF, _ulp = math.inf, math.ulp  # for the solve: one name lookup each, not two


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
    *,
    u0: float | None = None,
) -> FixedPointResult:
    """Solve u = gamma * g((u0 + u*c)/(1 + gamma*lam)) by safeguarded Newton.

    The predictor u0 is x . theta_prev, unless the caller already has it and
    passes it as ``u0``: the scaled sparse iterate theta = a*w passes
    a*(x . w), and the lockstep pilots pass a row of one batched product.

    ``tol`` is a residual tolerance: u is accepted once
    |u - gamma * g(...)| <= tol * max(1, |u|), which at u = 0 is |b| <= tol.
    Otherwise the first Newton step from u = 0, with slope
    1 + gamma*c*f''/(1 + gamma*lam) >= 1, lands in [0, b] and is taken as it
    is, unless it is not finite or underflows to 0.  The bracket is set up
    only once a point misses; the later steps bisect whenever a Newton step
    would leave it or fails to halve the step before last.  Iteration also
    stops when the Newton correction is below one ulp of u or the bracket
    can no longer be split in float64.
    ``iterations`` counts the points evaluated after u = 0, except a first
    step that lands exactly on b.  So a zero gradient, a zero feature vector
    or a hinge step along the linear piece gives 0, and squared loss gives 1.
    At every point, f'' < 0 or T(u) beyond b (by more than tol) raises
    ``BracketError``.

    The inputs are checked once per solve, by one call to the public
    ``loss.deriv`` at u0/(1 + gamma*lam).  Each evaluated point then costs one
    unchecked ``loss._pair`` call, whose f' gives the residual and whose f''
    is kept for the next Newton slope.
    """
    if not gamma_n > 0:
        raise ValueError("gamma_n must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    y, c = sample.y, sample.c
    if u0 is None:
        u0 = dot(sample.x, theta_prev)
    if c == _INF:  # every point but u = 0 would sit at an infinite predictor
        raise ValueError("squared feature norm overflows float64")
    shrink = 1.0 + gamma_n * loss.lam
    pair = loss._pair

    v = u0 / shrink
    loss.deriv(v, y)  # the solve's one input check
    d, curv = pair(v, y)  # curv is f'' at the current point u, for the Newton slope
    if curv < 0.0:
        raise BracketError(_NOT_CONVEX)
    b = -gamma_n * d  # the map T(u) = gamma * g(...) at u = 0
    if not abs(b) > tol:  # u = 0 passes the residual test
        return FixedPointResult(0.0, u0, c, 0, abs(b), gamma_n, y, loss)

    slope_scale = gamma_n * c / shrink
    slope = 1.0 + slope_scale * curv
    u_next, r = b / slope, b
    # A finite first Newton step from u = 0 lands in [0, b] and needs no safeguard.
    if _TINY < abs(u_next) < _INF:
        iterations = -1 if u_next == b else 0
        lo = None  # the bracket is built below, once a point misses
    else:  # the loop's safeguards decide at u = 0: stop there, bisect, or step
        iterations = 0
        lo, hi = (0.0, b) if b > 0 else (b, 0.0)
        u_zero = -u0 / c if c > 0.0 else math.nan
        stop = abs(u_next) <= _TINY and slope < _INF
        if not stop and (not lo <= u_next <= hi or u_next == 0.0):
            u_next = u_zero if lo < u_zero < hi else 0.5 * (lo + hi)
            stop = not lo < u_next < hi
        if stop:
            return FixedPointResult(0.0, u0, c, 0, abs(b), gamma_n, y, loss)
        step_before_last, step = _INF, u_next
    while True:
        if iterations == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; residual {abs(r):.3e}"
            )
        iterations += 1
        u = u_next
        d, curv = pair((u0 + u * c) / shrink, y)
        image = -gamma_n * d
        # f'' < 0, or T(u) beyond T(0) = b by more than rounding: T(u) may pass
        # b by an ulp, as in the logistic e/(1 + e), when u*c is tiny.
        if curv < 0.0 or (image - b) * b > 0.0 and abs(image - b) > tol * max(1.0, abs(b)):
            raise BracketError(_NOT_CONVEX)
        r = image - u
        if not abs(r) > tol * (abs(u) if abs(u) > 1.0 else 1.0):
            break
        if lo is None:  # the first point missed
            # T is non-increasing, so the root lies between any u and T(u):
            # between 0 and b to start, and each miss narrows [lo, hi] the same way.
            lo, hi = (0.0, b) if b > 0 else (b, 0.0)
            # The predictor vanishes at u_zero, where every family's g is
            # finite; it is the first bisection point whenever it lies inside.
            u_zero = -u0 / c if c > 0.0 else math.nan
            step_before_last, step = _INF, u
        if r > 0.0:  # r is neither 0 nor nan here: either passes the test above
            lo = u
            if image < hi:
                hi = image
        else:
            hi = u
            if image > lo:
                lo = image
        slope = 1.0 + slope_scale * curv
        newton = r / slope  # nan, or 0 at an overflowed slope, in an exp tail
        if abs(newton) <= _ulp(u) and slope < _INF:
            break
        u_next = u + newton
        if not lo <= u_next <= hi or u_next == u or abs(2.0 * newton) > abs(step_before_last):
            u_next = u_zero if lo < u_zero < hi else 0.5 * (lo + hi)
            if not lo < u_next < hi:
                break  # bracket no longer splittable in float64
        step_before_last, step = step, u_next - u
    return FixedPointResult(u, u0, c, iterations, abs(r), gamma_n, y, loss)


# In-place update arithmetic for run_stream, the copying step API below and the
# lockstep pilots, each passing a workspace ``ws`` from _workspace.  Each kernel
# returns its step's coefficient along x, for run_stream's norm bound.
def _workspace(theta: np.ndarray, buffers: int = 1) -> tuple[np.ndarray, ...]:
    """A run's scratch for the kernels below: a 0-d float64 slot, then ``buffers`` arrays.

    The arrays are shaped like theta.  A kernel writes each scalar operand
    that varies by step into the slot, takes the fixed ones (+0.0 and
    AdaGrad's eps) from read-only 0-d module arrays, and forms each vector
    result in theta or in a buffer, passed as the ufunc's third, output,
    argument, with the ufunc called through a module-level name.  At p = 20
    a NumPy call costs more than its arithmetic (timeit, median of 21 x
    20,000 on a 2-vCPU AMD EPYC VM): theta *= factor takes 350 ns with a
    Python float and 160 ns with the slot; theta += a*x, which also
    allocates a*x, 500 ns against 310 ns for the slot store, the product
    into the buffer and the add, called directly; and the direct call saves
    5-20 ns a call, as np.multiply(slot, x, buf) in 170 ns against 155 ns
    through a module-level name.  The IEEE operations, and their order, are
    those of the plain formulas, so the workspace changes no bit of a trace.
    """
    return (np.empty(()), *[np.empty_like(theta) for _ in range(buffers)])


# The fixed operands of the AdaGrad kernel, +0.0 and eps, as read-only 0-d arrays.
_ZERO, _EPS = np.zeros(()), np.full((), ADAGRAD_EPS)
_ZERO.flags.writeable = _EPS.flags.writeable = False
# The kernels' ufuncs, each called with its output array as the third argument.
_add, _sub, _mul, _div, _sqrt = np.add, np.subtract, np.multiply, np.divide, np.sqrt


def _implicit_update(
    theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss, ws: tuple,
    tol: float = 1e-15,
) -> float:
    """theta = (theta + u*x) / (1 + gamma*lam); returns u."""
    slot, buf = ws
    x = sample.x
    u = solve_fixed_point(loss, sample, theta, gamma_n, tol).u_star
    if u != 0.0:
        if isinstance(x, SparseVector):
            add_scaled(theta, u, x)
        else:
            slot[()] = u
            _add(theta, _mul(slot, x, buf), theta)
    shrink = 1.0 + gamma_n * loss.lam
    if shrink != 1.0:
        slot[()] = shrink
        _div(theta, slot, theta)
    return u


def _explicit_update(
    theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss, ws: tuple
) -> float:
    """theta = (1 - gamma*lam)*theta + a*x; returns a."""
    slot, buf = ws
    x, lam = sample.x, loss.lam
    sparse = isinstance(x, SparseVector)
    d = loss.deriv(dot(x, theta) if sparse else float(x.dot(theta)), sample.y)
    if lam != 0.0:
        slot[()] = 1.0 - gamma_n * lam
        _mul(theta, slot, theta)
    a = -gamma_n * d
    if a != 0.0:
        if sparse:
            add_scaled(theta, a, x)
        else:
            slot[()] = a
            _add(theta, _mul(slot, x, buf), theta)
    return a


def _adagrad_update(
    theta: np.ndarray, acc: np.ndarray, sample: Sample, eta: float, loss: GlmLoss, ws: tuple
) -> float:
    """G += g*g; theta -= eta*g / (sqrt(G) + eps), with g = d*x + lam*theta; returns d = f'.

    The workspace's two buffers hold g, and g*g then the denominator.
    """
    slot, grad, den = ws
    x, lam = sample.x, loss.lam
    sparse = isinstance(x, SparseVector)
    d = loss.deriv(dot(x, theta) if sparse else float(x.dot(theta)), sample.y)
    on_support = sparse and lam == 0.0
    if on_support:
        # Off the support the gradient is +0.0, which leaves acc and theta
        # bit-unchanged, so only the sample's nonzeros are updated.
        i = x.indices
        acc_i, theta_i, grad = acc[i], theta[i], d * x.values
        den = np.empty_like(grad)
    else:
        acc_i, theta_i = acc, theta
        if sparse:
            grad.fill(0.0)
            add_scaled(grad, d, x)
        else:
            slot[()] = d
            _mul(slot, x, grad)
        if lam != 0.0:
            slot[()] = lam
            _add(grad, _mul(slot, theta, den), grad)
    _add(grad, _ZERO, grad)  # turns each -0.0 into +0.0, as accumulating into zeros does
    _add(acc_i, _mul(grad, grad, den), acc_i)
    _sqrt(acc_i, den)
    _add(den, _EPS, den)
    slot[()] = eta
    _mul(grad, slot, grad)
    _div(grad, den, grad)
    _sub(theta_i, grad, theta_i)
    if on_support:
        acc[i], theta[i] = acc_i, theta_i
    return d


def _average_update(theta_bar: np.ndarray, theta: np.ndarray, n: int, ws: tuple) -> None:
    """theta_bar += (theta - theta_bar) / n."""
    slot, step = ws
    slot[()] = n  # exact up to 2**53, as float(n) is
    _sub(theta, theta_bar, step)
    _div(step, slot, step)
    _add(theta_bar, step, theta_bar)


def implicit_step(
    state: OptimizerState,
    sample: Sample,
    gamma_n: float,
    loss: GlmLoss,
    tol: float = 1e-15,
) -> OptimizerState:
    """One implicit update: theta_n = theta_prev - gamma * grad at theta_n."""
    theta = state.theta.copy()
    _implicit_update(theta, sample, gamma_n, loss, _workspace(theta), tol=tol)
    return replace(state, theta=theta, n=state.n + 1)


def explicit_step(
    state: OptimizerState, sample: Sample, gamma_n: float, loss: GlmLoss
) -> OptimizerState:
    """One classic update: theta_n = theta_prev - gamma * grad at theta_prev."""
    if gamma_n < 0:
        raise ValueError("gamma_n must be non-negative")
    theta = state.theta.copy()
    _explicit_update(theta, sample, gamma_n, loss, _workspace(theta))
    return replace(state, theta=theta, n=state.n + 1)


def update_average(state: OptimizerState) -> OptimizerState:
    """Fold the current iterate into the running mean of theta_1..theta_n."""
    if state.n < 1:
        raise ValueError("update_average requires at least one completed step")
    bar = state.theta_bar.copy()
    _average_update(bar, state.theta, state.n, _workspace(bar))
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
    _adagrad_update(theta, acc, sample, eta, loss, _workspace(theta, 2))
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


@dataclass
class _PathRecord:
    """The iterate path an averaged run records for the plain run that replays it."""

    rows: list = field(default_factory=list)  # (n, diverged, wall_ms, theta) per evaluation row
    final: tuple[np.ndarray, int] | None = None  # (theta, n), set when the averaged run ends


def is_diverged(theta: np.ndarray) -> bool:
    return not theta.dot(theta) <= _DIVERGENCE_SQ


def _exact_norm(theta: np.ndarray) -> float:
    """||theta||, or inf when ``is_diverged(theta)``: the dense loop's exact test."""
    return math.inf if is_diverged(theta) else math.sqrt(theta.dot(theta))


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

    In memory a run holds two O(p) arrays: w and the start ``theta0`` for
    sgd/isgd, whose state reports the start as theta_bar; w and u for
    asgd/aisgd, where w takes over the caller's ``theta`` itself, so it must
    be an array the caller gives up.  ``state`` ends the run: it turns w
    into the final theta = a*w in place.  It refers to nothing of itself,
    so reference counting frees it and its arrays once a run lets go.
    """

    def __init__(self, theta: np.ndarray, algorithm: str):
        averaged = algorithm in AVERAGED
        self.theta0 = None if averaged else theta
        self.w = theta if averaged else theta.copy()
        self.a = 1.0
        self.q = float(self.w.dot(self.w))
        self.u = np.zeros_like(theta) if averaged else None
        self.beta = 0.0

    def diverged(self) -> bool:
        return not self.a * self.a * self.q <= _DIVERGENCE_SQ

    def add_to_average(self) -> None:
        self.beta += self.a

    def _explicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        x = sample.x
        xw = dot(x, self.w)
        d = loss.deriv(self.a * xw, sample.y)
        if loss.lam != 0.0:
            self._scale(1.0 - gamma_n * loss.lam)
        self._move(x, -gamma_n * d / self.a, xw, sample.c)

    def _implicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        x = sample.x
        res = solve_fixed_point(loss, sample, self.w, gamma_n, u0=self.a * dot(x, self.w))
        self._move(x, res.u_star / self.a, res.u0 / self.a, res.c)
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
        self.q = float(self.w.dot(self.w))

    def estimate(self, n: int) -> np.ndarray:
        self.q = float(self.w.dot(self.w))
        return (self.u + self.beta * self.w) / n if self.u is not None else self.a * self.w

    def state(self, n: int, algorithm: str) -> OptimizerState:
        theta_bar = self.estimate(n) if self.u is not None else self.theta0
        self.w *= self.a  # the same product as a * w, without a second array
        return OptimizerState(self.w, theta_bar, n, None, algorithm)


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
    _record: _PathRecord | None = None,
) -> RunResult:
    """Drive one algorithm over a sample stream, evaluating periodically.

    The evaluator is called on a copy of the reported estimate (the running
    average for asgd/aisgd, the raw iterate otherwise) every ``eval_every``
    samples, or at the explicit positions ``eval_at`` when given; with
    ``eval_at=None`` the final sample is always evaluated, and an ``eval_at``
    that holds no position within the stream raises ``ValueError`` once the
    stream ends.  A diverged iterate
    (non-finite or with norm above 1e12) freezes further updates but the
    stream keeps consuming samples and emitting rows flagged ``diverged=True``.

    Only asgd and aisgd keep the running average: for sgd, isgd and adagrad
    ``state.theta_bar`` is the starting point, untouched by the run.

    When the first sample is a ``SparseVector``, sgd, isgd, asgd and aisgd
    keep the iterate and its running sum in scaled form (see
    ``_ScaledIterate``), so a step costs O(nnz) rather than O(p); the
    estimate is materialized in O(p) only at evaluation rows and at the end.
    AdaGrad stays on the dense arrays, updated at the sample's nonzeros
    alone when lam = 0.  On the dense arrays every algorithm tests
    divergence against an O(1) bound on ||theta||, and runs the exact O(p)
    test only when that bound nears the divergence norm.  ``theta0`` must
    have shape ``(dim,)`` of the samples; any other shape raises
    ``ValueError`` before the first step.

    A run holds two O(p) arrays, plus AdaGrad's accumulator; a dense run
    adds its workspace, one O(p) buffer (two for AdaGrad).  The returned
    state keeps all but the workspace, except that a sparse asgd/aisgd run
    trades its running sum for the average it forms at the end.  Nothing
    the run makes refers to itself, so what the state does not keep is
    freed when the run returns.  A frozen run computes no rate, since only
    the update reads it.

    ``_record`` is for ``experiments.run_pairs`` alone, which passes one
    ``_PathRecord`` to both runs of an iterate path, the averaged one first.
    A dense asgd/aisgd run fills an empty record with a copy of theta at
    each evaluation row and the final theta and n.  A run given a filled
    one evaluates each recorded theta in order, with its row's n, diverged
    flag and the recording run's wall_ms, and returns the final theta with
    its own start as theta_bar, without reading ``data``, computing a rate
    or stepping.  Any other run ignores the record.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    if eval_at is None and eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    label = run_id if run_id is not None else algorithm
    averaged = algorithm in AVERAGED
    if _record is not None and _record.final is not None:  # an averaged run stepped this path
        trace = [TracePoint(label, n, float(evaluator(theta)), flagged, wall_ms)
                 for n, flagged, wall_ms, theta in _record.rows]
        theta, n = _record.final
        start = np.array(theta0 if theta0 is not None else np.zeros(theta.size), dtype=np.float64)
        return RunResult(label, algorithm, trace, OptimizerState(theta, start, n, None, algorithm))

    samples = iter(data)
    first = next(samples, None)
    if first is None:
        raise ValueError("sample stream yielded no data")
    theta = np.array(theta0 if theta0 is not None else np.zeros(first.dim), dtype=np.float64)
    if theta.shape != (first.dim,):
        raise ValueError(f"theta0 has shape {theta.shape}; the samples need ({first.dim},)")
    scaled = isinstance(first.x, SparseVector) and algorithm != "adagrad"
    keep = _record if averaged and not scaled else None  # the record this run fills
    if scaled:
        it = _ScaledIterate(theta, algorithm)
    else:  # the dense loop steps theta itself in place
        theta_bar = theta.copy()
        acc = np.zeros_like(theta) if algorithm == "adagrad" else None
        ws = _workspace(theta, 1 if acc is None else 2)
        reported = theta_bar if averaged else theta
    samples = itertools.chain((first,), samples)
    n = 0
    frozen = False
    trace: list[TracePoint] = []
    start = time.perf_counter()

    def record() -> None:
        estimate = it.estimate(n) if scaled else reported.copy()
        flagged = frozen or (scaled and it.diverged())  # a dense run tests after each step
        metric = float(evaluator(estimate))
        wall_ms = (time.perf_counter() - start) * 1e3
        trace.append(TracePoint(label, n, metric, flagged, wall_ms))
        if keep is not None:
            keep.rows.append((n, flagged, wall_ms, theta.copy()))

    if scaled:
        update = it._implicit if algorithm in IMPLICIT else it._explicit
        diverged, add_to_average = it.diverged, it.add_to_average
        for sample in samples:
            n += 1
            frozen = frozen or diverged()
            if not frozen:  # a diverged iterate stays put; the counter and average go on
                update(sample, schedule.rate(n), loss)
            if averaged:
                add_to_average()
            if (n % eval_every == 0) if eval_at is None else (n in eval_at):
                record()
    else:
        lam, implicit, root_p = loss.lam, algorithm in IMPLICIT, math.sqrt(theta.size)
        trigger, sqrt, inf = _BOUND_TRIGGER, math.sqrt, math.inf
        bound = _exact_norm(theta)  # the start's exact test; the loop tests after each step
        frozen = bound == inf
        for sample in samples:
            n += 1
            if not frozen:
                gamma = schedule.rate(n)  # n >= 1, where rate_at's check is dead
                if implicit:
                    u = _implicit_update(theta, sample, gamma, loss, ws)
                    bound = (bound + abs(u) * sqrt(sample.c)) / (1.0 + gamma * lam)
                elif acc is None:
                    a = _explicit_update(theta, sample, gamma, loss, ws)
                    bound = abs(1.0 - gamma * lam) * bound + abs(a) * sqrt(sample.c)
                else:
                    d = _adagrad_update(theta, acc, sample, gamma, loss, ws)
                    # Each entry moved by at most eta, unless g or eta*g overflowed: with
                    # ||g||_inf <= |d|*||x|| + lam*||theta|| far from that, none did.
                    g_max = abs(d) * sqrt(sample.c) + lam * bound
                    bound = bound + gamma * root_p if 2.0 * gamma * g_max < inf else inf
                if not bound <= trigger:  # also when nan
                    bound = _exact_norm(theta)
                    frozen = bound == inf
            if averaged:
                _average_update(theta_bar, theta, n, ws)
            if (n % eval_every == 0) if eval_at is None else (n in eval_at):
                record()

    if eval_at is None and (not trace or trace[-1].n != n):
        record()
    if not trace:
        raise ValueError(f"eval_at holds no position within the stream's {n} samples")

    if keep is not None:
        keep.final = (theta.copy(), n)
    if scaled:
        return RunResult(label, algorithm, trace, it.state(n, algorithm))
    return RunResult(label, algorithm, trace, OptimizerState(theta, theta_bar, n, acc, algorithm))


def _explicit_coef(u0: float, sample: Sample, gamma_n: float, loss: GlmLoss) -> float:
    """The explicit step's coefficient a = -gamma * f'(u0, y) along x, at u0 = x.theta."""
    return -gamma_n * loss.deriv(u0, sample.y)


def _lockstep_finals(
    algorithm: str, loss: GlmLoss, schedules: list[LearningRate], samples: list[Sample], evaluator
) -> list[float]:
    """Each schedule's ``run_stream(..., eval_every=len(samples))`` final metric, all runs at once.

    For sgd/isgd/asgd/aisgd from theta0 = 0 over dense ``samples``; the K runs
    are the rows of a K x p array.  Each run keeps its scalar work: its rate,
    its divergence test, and its step coefficient from ``solve_fixed_point``
    or ``_explicit_coef``.  One array update per step serves all runs, and
    the finals are one ``run_stream`` per schedule's, to the bit.  The K
    predictors x.theta and the K squared norms theta.theta come from one
    ``np.vecdot`` each, which makes each row's BLAS ``ddot`` as ``dot`` and
    ``is_diverged`` do.  So each row takes the exact divergence test at every
    step, and run_stream's norm bound is built to freeze at the same sample.
    The axpy, the L2 factor and the running average are elementwise, each
    entry still one IEEE operation on the single run's operands.  A diverged
    row gets coefficient 0 and factor 1: like a zero-coefficient step, it
    adds 0*x where run_stream skips the axpy, which can only turn a -0.0
    entry into +0.0.  So the row stays put, and its test fails again at
    every later step.
    """
    K = len(schedules)
    theta = np.zeros((K, samples[0].dim))
    theta_bar = theta.copy()
    ws = _workspace(theta)  # for the running average
    rows = list(theta)
    implicit, averaged, lam = algorithm in IMPLICIT, algorithm in AVERAGED, loss.lam
    n = 0
    for sample in samples:
        n += 1
        x = sample.x
        coefs, factors = [0.0] * K, [1.0] * K
        u0s, sqs = np.vecdot(theta, x).tolist(), np.vecdot(theta, theta).tolist()
        for k, (schedule, row, u0, sq) in enumerate(zip(schedules, rows, u0s, sqs)):
            if not sq <= _DIVERGENCE_SQ:
                continue
            gamma = rate_at(schedule, n)
            if implicit:
                coefs[k] = solve_fixed_point(loss, sample, row, gamma, u0=u0).u_star
                factors[k] = 1.0 + gamma * lam
            else:
                coefs[k] = _explicit_coef(u0, sample, gamma, loss)
                factors[k] = 1.0 - gamma * lam
        if lam != 0.0 and not implicit:
            theta *= np.array(factors)[:, None]
        theta += np.array(coefs)[:, None] * x
        if lam != 0.0 and implicit:
            theta /= np.array(factors)[:, None]
        if averaged:
            _average_update(theta_bar, theta, n, ws)
    return [float(evaluator(row.copy())) for row in (theta_bar if averaged else theta)]
