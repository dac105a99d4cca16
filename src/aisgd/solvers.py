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
step lands in [0, b] and needs no safeguard.  From there it runs Newton's
method inside the bracket, bisecting when a step leaves it or stalls, and
stops on the residual |u - T(u)|.  Squared loss, where T is linear, stops
after that first step.

The data enter only through u0 and c, and each ``Sample`` stores c when
built, so a solve never recomputes ||x||^2.

:func:`run_stream` keeps dense iterates as plain arrays, and carries an
upper bound on ||theta|| through each step in O(1) by the triangle
inequality: on theta' = s*theta + a*x (explicit), (theta + u*x)/s
(implicit), or theta - delta for AdaGrad, whose every entry of delta is at
most eta in size, as |g_i| <= sqrt(G_i), so ||delta|| <= eta*sqrt(p).  It
runs the O(p) divergence test only once that bound exceeds half the
divergence norm or is nan; a test that passes resets the bound to
||theta||.  The bound starts at inf, and the margin absorbs rounding, so the
freeze falls on the same sample as with the exact test at every step.  An
AdaGrad step whose eta*g might overflow sets the bound to inf, so the exact
test decides.  The lockstep pilots below run the exact test itself, batched.

Each dense run steps in one workspace (:func:`_workspace`): a 0-d slot
for scalar operands and a length-p buffer (two for AdaGrad), so that no NumPy
call in its hot loop takes a Python float or allocates.  A copying step makes
its own, and the pilots one per call.

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
    is, unless it is not finite or underflows to 0.  The later steps bisect
    whenever a Newton step would leave the bracket or fails to halve the step
    before last.  Iteration also stops when the Newton correction is below
    one ulp of u or the bracket can no longer be split in float64.
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
    if c == math.inf:  # every point but u = 0 would sit at an infinite predictor
        raise ValueError("squared feature norm overflows float64")
    shrink = 1.0 + gamma_n * loss.lam
    slope_scale = gamma_n * c / shrink
    pair = loss._pair

    v = u0 / shrink
    loss.deriv(v, y)  # the solve's one input check
    d, curv = pair(v, y)  # curv is f'' at the current point u, for the Newton slope
    if curv < 0.0:
        raise BracketError(_NOT_CONVEX)
    b = -gamma_n * d  # the map T(u) = gamma * g(...) at u = 0
    if not abs(b) > tol:  # u = 0 passes the residual test
        return FixedPointResult(0.0, u0, c, 0, abs(b), gamma_n, y, loss)

    # T is non-increasing, so the root lies between any u and T(u): between 0
    # and b to start, and each evaluation below narrows [lo, hi] the same way.
    lo, hi = (0.0, b) if b > 0 else (b, 0.0)
    # The predictor vanishes at u_zero, where every family's g is finite; it
    # is the first bisection point whenever it lies inside the bracket.
    u_zero = -u0 / c if c > 0.0 else math.nan
    # T(u) may pass b by an ulp of rounding, as in the logistic e/(1 + e),
    # when u*c is tiny, so the bracket test below allows this much.
    b_tol = tol * abs(b) if abs(b) > 1.0 else tol
    u, r = 0.0, b
    step_before_last = step = math.inf
    # The first Newton step, from u = 0, lands in [0, b] and skips the
    # safeguards, which a finite step always passes.  That saves their cost
    # on the step that ends a squared solve.
    slope = 1.0 + slope_scale * curv
    u_next = b / slope
    if _TINY < abs(u_next) < math.inf:
        iterations = -1 if u_next == b else 0
    else:  # the loop's safeguards decide at u = 0: stop there, bisect, or step
        iterations = 0
        stop = abs(u_next) <= _TINY and slope < math.inf
        if not stop and (not lo <= u_next <= hi or u_next == 0.0):
            u_next = u_zero if lo < u_zero < hi else 0.5 * (lo + hi)
            stop = not lo < u_next < hi
        if stop:
            return FixedPointResult(0.0, u0, c, 0, abs(b), gamma_n, y, loss)
    while True:
        step_before_last, step = step, u_next - u
        if iterations == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; residual {abs(r):.3e}"
            )
        iterations += 1
        u = u_next
        d, curv = pair((u0 + u * c) / shrink, y)
        image = -gamma_n * d
        # f'' < 0, or T(u) beyond T(0) = b by more than b_tol
        if curv < 0.0 or (image - b) * b > 0.0 and abs(image - b) > b_tol:
            raise BracketError(_NOT_CONVEX)
        r = image - u
        if r > 0.0:
            lo = u
            if image < hi:
                hi = image
        elif r < 0.0:
            hi = u
            if image > lo:
                lo = image
        if not abs(r) > tol * (abs(u) if abs(u) > 1.0 else 1.0):
            break
        slope = 1.0 + slope_scale * curv
        newton = r / slope  # nan, or 0 at an overflowed slope, in an exp tail
        if abs(newton) <= math.ulp(u) and slope < math.inf:
            break
        u_next = u + newton
        if not lo <= u_next <= hi or u_next == u or abs(2.0 * newton) > abs(step_before_last):
            u_next = u_zero if lo < u_zero < hi else 0.5 * (lo + hi)
            if not lo < u_next < hi:
                break  # bracket no longer splittable in float64
    return FixedPointResult(u, u0, c, iterations, abs(r), gamma_n, y, loss)


# In-place update arithmetic for run_stream, the copying step API below and the
# lockstep pilots, each passing a workspace ``ws`` from _workspace.  Each kernel
# returns its step's coefficient along x, for _DenseIterate's norm bound.
def _workspace(theta: np.ndarray, buffers: int = 1) -> tuple[np.ndarray, ...]:
    """A run's scratch for the kernels below: a 0-d float64 slot, then ``buffers`` arrays.

    The arrays are shaped like theta.  A kernel writes each scalar operand
    into the slot and forms each vector result in place or in a buffer,
    passed as the ufunc's third, output, argument.  At p = 20 a NumPy call
    costs more than its arithmetic, and a Python-float operand about 0.5 us
    more than a 0-d array: an in-place op takes about 1.3 us with a Python
    float and 0.8 us with the slot, and theta += a*x, which also allocates
    a*x, 2.2 us against 1.8 us (timeit on a 2-vCPU Xeon VM).  The IEEE
    operations, and their order, are those of the plain formulas, so the
    workspace changes no bit of a trace.
    """
    return (np.empty(()), *[np.empty_like(theta) for _ in range(buffers)])


def _add_scaled(theta: np.ndarray, a: float, x, slot: np.ndarray, buf: np.ndarray) -> None:
    """``add_scaled(theta, a, x)``, with a dense a*x formed in buf."""
    if isinstance(x, SparseVector):
        add_scaled(theta, a, x)
    else:
        slot[()] = a
        theta += np.multiply(slot, x, buf)


def _implicit_update(
    theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss, ws: tuple,
    tol: float = 1e-15,
) -> float:
    """theta = (theta + u*x) / (1 + gamma*lam); returns u."""
    slot, buf = ws
    u = solve_fixed_point(loss, sample, theta, gamma_n, tol=tol).u_star
    if u != 0.0:
        _add_scaled(theta, u, sample.x, slot, buf)
    shrink = 1.0 + gamma_n * loss.lam
    if shrink != 1.0:
        slot[()] = shrink
        theta /= slot
    return u


def _explicit_update(
    theta: np.ndarray, sample: Sample, gamma_n: float, loss: GlmLoss, ws: tuple
) -> float:
    """theta = (1 - gamma*lam)*theta + a*x; returns a."""
    slot, buf = ws
    d = loss.deriv(dot(sample.x, theta), sample.y)
    if loss.lam != 0.0:
        slot[()] = 1.0 - gamma_n * loss.lam
        theta *= slot
    a = -gamma_n * d
    if a != 0.0:
        _add_scaled(theta, a, sample.x, slot, buf)
    return a


def _adagrad_update(
    theta: np.ndarray, acc: np.ndarray, sample: Sample, eta: float, loss: GlmLoss, ws: tuple
) -> float:
    """G += g*g; theta -= eta*g / (sqrt(G) + eps), with g = d*x + lam*theta; returns d = f'.

    The workspace's two buffers hold g, and g*g then the denominator.
    """
    slot, grad, den = ws
    x = sample.x
    d = loss.deriv(dot(x, theta), sample.y)
    on_support = isinstance(x, SparseVector) and loss.lam == 0.0
    if on_support:
        # Off the support the gradient is +0.0, which leaves acc and theta
        # bit-unchanged, so only the sample's nonzeros are updated.
        i = x.indices
        acc_i, theta_i, grad = acc[i], theta[i], d * x.values
        den = np.empty_like(grad)
    else:
        acc_i, theta_i = acc, theta
        if isinstance(x, SparseVector):
            grad.fill(0.0)
            add_scaled(grad, d, x)
        else:
            slot[()] = d
            np.multiply(slot, x, grad)
        if loss.lam != 0.0:
            slot[()] = loss.lam
            grad += np.multiply(slot, theta, den)
    slot[()] = 0.0
    grad += slot  # turns each -0.0 into +0.0, as accumulating into zeros does
    acc_i += np.multiply(grad, grad, den)
    np.sqrt(acc_i, den)
    slot[()] = ADAGRAD_EPS
    den += slot
    slot[()] = eta
    grad *= slot
    grad /= den
    theta_i -= grad
    if on_support:
        acc[i], theta[i] = acc_i, theta_i
    return d


def _average_update(theta_bar: np.ndarray, theta: np.ndarray, n: int, ws: tuple) -> None:
    """theta_bar += (theta - theta_bar) / n."""
    slot, step = ws
    slot[()] = n  # exact up to 2**53, as float(n) is
    step = np.subtract(theta, theta_bar, step)
    step /= slot
    theta_bar += step


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


def is_diverged(theta: np.ndarray) -> bool:
    return not theta.dot(theta) <= _DIVERGENCE_SQ


class _DenseIterate:
    """theta and theta_bar as plain arrays, updated in place by the kernels above.

    ``ws`` is the run's workspace for those kernels, made once: a 0-d slot
    and one array like theta, two for AdaGrad.  Every algorithm tests
    divergence against the norm ``bound``.  ``update`` binds when read, so
    the iterate holds no reference to itself and reference counting frees it
    once a run lets go.
    """

    def __init__(self, theta: np.ndarray, algorithm: str):
        self.theta, self.bound = theta, math.inf
        self.theta_bar = theta.copy()
        self.acc = np.zeros_like(theta) if algorithm == "adagrad" else None
        self.ws = _workspace(theta, 1 if self.acc is None else 2)
        self.implicit = algorithm in IMPLICIT
        self.root_p = math.sqrt(theta.size)
        self.reported = self.theta_bar if algorithm in AVERAGED else theta

    @property
    def update(self):
        if self.acc is not None:
            return self._adagrad
        return self._implicit if self.implicit else self._explicit

    def diverged(self) -> bool:
        if self.bound <= _BOUND_TRIGGER:
            return False
        # The exact test; one that passes resets the bound to ||theta||.
        theta = self.theta
        self.bound = math.inf if is_diverged(theta) else math.sqrt(theta.dot(theta))
        return self.bound == math.inf

    def add_to_average(self, n: int) -> None:
        _average_update(self.theta_bar, self.theta, n, self.ws)

    def _explicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        a = _explicit_update(self.theta, sample, gamma_n, loss, self.ws)
        self.bound = abs(1.0 - gamma_n * loss.lam) * self.bound + abs(a) * math.sqrt(sample.c)

    def _implicit(self, sample: Sample, gamma_n: float, loss: GlmLoss) -> None:
        u = _implicit_update(self.theta, sample, gamma_n, loss, self.ws)
        self.bound = (self.bound + abs(u) * math.sqrt(sample.c)) / (1.0 + gamma_n * loss.lam)

    def _adagrad(self, sample: Sample, eta: float, loss: GlmLoss) -> None:
        d = _adagrad_update(self.theta, self.acc, sample, eta, loss, self.ws)
        # Each entry moved by at most eta, unless g or eta*g overflowed: with
        # ||g||_inf <= |d|*||x|| + lam*||theta|| far from that, none did.
        g_max = abs(d) * math.sqrt(sample.c) + loss.lam * self.bound
        self.bound = self.bound + eta * self.root_p if 2.0 * eta * g_max < math.inf else math.inf

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

    In memory a run holds two O(p) arrays: w and the start ``theta0`` for
    sgd/isgd, whose state reports the start as theta_bar; w and u for
    asgd/aisgd, where w takes over the caller's ``theta`` itself, so it must
    be an array the caller gives up.  ``state`` ends the run: it turns w
    into the final theta = a*w in place.  ``update`` binds when read, so
    reference counting frees the iterate and its arrays once a run lets go.
    """

    def __init__(self, theta: np.ndarray, algorithm: str):
        averaged = algorithm in AVERAGED
        self.theta0 = None if averaged else theta
        self.w = theta if averaged else theta.copy()
        self.a = 1.0
        self.q = float(self.w.dot(self.w))
        self.u = np.zeros_like(theta) if averaged else None
        self.beta = 0.0
        self.implicit = algorithm in IMPLICIT

    @property
    def update(self):
        return self._implicit if self.implicit else self._explicit

    def diverged(self) -> bool:
        return not self.a * self.a * self.q <= _DIVERGENCE_SQ

    def add_to_average(self, n: int) -> None:
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
    AdaGrad stays on the dense arrays, updated at the sample's nonzeros
    alone when lam = 0.  On the dense arrays every algorithm tests
    divergence against an O(1) bound on ||theta||, and runs the exact O(p)
    test only when that bound nears the divergence norm.  ``theta0`` must
    have shape ``(dim,)`` of the samples; any other shape raises
    ``ValueError`` before the first step.

    A run holds two O(p) arrays, plus AdaGrad's accumulator; a dense run
    adds its workspace, one O(p) buffer (two for AdaGrad).  The returned
    state keeps all but the workspace, except that a sparse asgd/aisgd run
    trades its running sum for the average it forms at the end.  The
    iterate refers to nothing of itself, so what the state does not keep is
    freed when the run returns.
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
    if theta.shape != (first.dim,):
        raise ValueError(f"theta0 has shape {theta.shape}; the samples need ({first.dim},)")
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
