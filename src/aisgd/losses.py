"""Loss families of the linear-predictor form: loss(theta, (x, y)) = f(x.theta, y).

Each family exposes the scalar value f(u, y), its first derivative in u and
its (non-negative) second derivative.  The full gradient in theta is then
f'(x.theta, y) * x, which is what makes a one-dimensional reduction of the
implicit update possible.

The public ``value``, ``deriv`` and ``second_deriv`` check that u and y are
finite and y is in the family's label domain.  The unchecked ``_pair(v, y)``
returns (f'(v, y), f''(v, y)) from one evaluation, equal bit for bit to the
checked calls on valid input.  The fixed-point solver checks its inputs once
per solve, with one ``deriv`` call, then calls ``_pair`` at each point.  A
subclass that defines only ``deriv`` and ``second_deriv`` inherits a
``_pair`` that calls both.

An optional L2 coefficient ``lam`` (finite, >= 0, checked at construction)
rides along on the loss object; the penalty lam * ||theta||^2 / 2 itself is
applied by the solvers, never here.

Everything is scalar ``math`` arithmetic on purpose: these functions sit in
the inner loop of the fixed-point solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _sigmoid(t: float) -> float:
    # stable in both tails
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


# Each family's ``_check`` method.  The label checks test the valid case in one
# expression; on failure _check_finite runs first, so non-finite input keeps its message.
def _check_finite(loss: GlmLoss, u: float, y: float) -> None:
    if not (math.isfinite(u) and math.isfinite(y)):
        raise ValueError("loss inputs must be finite")


def _check_pm1(loss: GlmLoss, u: float, y: float) -> None:
    if not math.isfinite(u) or (y != 1.0 and y != -1.0):
        _check_finite(loss, u, y)
        raise ValueError("labels must be +1 or -1 for this loss family")


def _check_count(loss: GlmLoss, u: float, y: float) -> None:
    if not (math.isfinite(u) and 0.0 <= y < math.inf and y == math.floor(y)):
        _check_finite(loss, u, y)
        raise ValueError("Poisson outcomes must be non-negative integers")


class GlmLoss:
    """Base class: convex scalar loss with derivatives and an L2 coefficient."""

    lam: float
    name: str

    def __post_init__(self):
        # Dataclass subclasses run this on construction and on replace().
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("L2 coefficient lam must be finite and >= 0")

    def value(self, u: float, y: float) -> float:
        raise NotImplementedError

    def deriv(self, u: float, y: float) -> float:
        raise NotImplementedError

    def second_deriv(self, u: float, y: float) -> float:
        raise NotImplementedError

    def _pair(self, v: float, y: float) -> tuple[float, float]:
        """(f'(v, y), f''(v, y)) without input checks; the families fuse the two."""
        return self.deriv(v, y), self.second_deriv(v, y)


class _Family(GlmLoss):
    """A built-in family, whose ``_check`` guards its public methods.

    ``deriv`` is written out in each family, since explicit steps call it;
    ``second_deriv`` reads ``_pair``.
    """

    _check = _check_finite

    def second_deriv(self, u, y):
        self._check(u, y)
        return self._pair(u, y)[1]


@dataclass(frozen=True)
class SquaredLoss(_Family):
    """f(u, y) = (y - u)^2, no 1/2 factor."""

    lam: float = 0.0
    name = "squared"

    def value(self, u, y):
        self._check(u, y)
        r = y - u
        return r * r

    def deriv(self, u, y):
        self._check(u, y)
        return -2.0 * (y - u)

    def _pair(self, v, y):
        return -2.0 * (y - v), 2.0


@dataclass(frozen=True)
class LogisticLoss(_Family):
    """f(u, y) = log(1 + exp(-y*u)) with labels y in {-1, +1}."""

    lam: float = 0.0
    name = "logistic"
    _check = _check_pm1

    def value(self, u, y):
        self._check(u, y)
        m = -y * u
        if m > 0.0:
            return m + math.log1p(math.exp(-m))
        return math.log1p(math.exp(m))

    def deriv(self, u, y):
        self._check(u, y)
        return -y * _sigmoid(-y * u)

    def _pair(self, v, y):
        # sigmoid(t) and sigmoid(-t) for t = y*v, both from one exp, stable in both tails
        t = y * v
        e = math.exp(-abs(t))
        d = 1.0 + e
        near, far = 1.0 / d, e / d  # sigmoid(|t|), sigmoid(-|t|)
        if t >= 0.0:
            return -y * far, near * (1.0 - near)
        return -y * near, far * (1.0 - far)


@dataclass(frozen=True)
class PoissonLoss(_Family):
    """f(u, y) = exp(u) - y*u with counts y >= 0."""

    lam: float = 0.0
    name = "poisson"
    _check = _check_count

    def value(self, u, y):
        self._check(u, y)
        return _exp(u) - y * u

    def deriv(self, u, y):
        self._check(u, y)
        return _exp(u) - y

    def _pair(self, v, y):
        e = _exp(v)
        return e - y, e


@dataclass(frozen=True)
class SmoothedHingeLoss(_Family):
    """Hinge on the margin m = y*u, quadratically smoothed on [1-delta, 1].

    Zero for m >= 1, linear with slope -1 for m <= 1-delta, and the quadratic
    (1-m)^2 / (2*delta) in between, so the derivative is continuous and the
    curvature is 1/delta on the smoothing window.
    """

    delta: float = 0.5
    lam: float = 0.0
    name = "hinge"
    _check = _check_pm1

    def __post_init__(self):
        super().__post_init__()
        if not self.delta > 0:
            raise ValueError("smoothing width delta must be positive")

    def value(self, u, y):
        self._check(u, y)
        m = y * u
        if m >= 1.0:
            return 0.0
        if m <= 1.0 - self.delta:
            return 1.0 - m - self.delta / 2.0
        d = 1.0 - m
        return d * d / (2.0 * self.delta)

    def deriv(self, u, y):
        self._check(u, y)
        m = y * u
        if m >= 1.0:
            return 0.0
        if m <= 1.0 - self.delta:
            return -y
        return -y * (1.0 - m) / self.delta

    def _pair(self, v, y):
        m = y * v
        if m >= 1.0:
            return 0.0, 0.0
        if m <= 1.0 - self.delta:
            return -y, 0.0
        return -y * (1.0 - m) / self.delta, 1.0 / self.delta


def loss_from_name(name: str, lam: float = 0.0) -> GlmLoss:
    """Build a loss from its config/CLI name: squared|logistic|poisson|hinge:D."""
    key = name.strip().lower()
    if key == "squared":
        return SquaredLoss(lam=lam)
    if key == "logistic":
        return LogisticLoss(lam=lam)
    if key == "poisson":
        return PoissonLoss(lam=lam)
    if key == "hinge":
        return SmoothedHingeLoss(lam=lam)
    if key.startswith("hinge:"):
        return SmoothedHingeLoss(delta=float(key.split(":", 1)[1]), lam=lam)
    raise ValueError(
        f"unknown loss {name!r}; expected squared, logistic, poisson or hinge:<delta>"
    )
