import math
from dataclasses import replace

import numpy as np
import pytest

from aisgd import (
    LogisticLoss,
    PoissonLoss,
    SmoothedHingeLoss,
    SquaredLoss,
    loss_from_name,
)
from aisgd.losses import _sigmoid

from helpers import random_case

ALL_FAMILIES = ["squared", "logistic", "poisson", "hinge"]


def _loss(family):
    return loss_from_name(family if family != "hinge" else "hinge:0.5")


class TestValues:
    def test_squared_zero_residual(self):
        assert SquaredLoss().value(1.0, 1.0) == 0.0

    def test_logistic_at_zero(self):
        assert LogisticLoss().value(0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_poisson_hand_value(self):
        # exp(0) - 2*0 = 1
        assert PoissonLoss().value(0.0, 2.0) == pytest.approx(1.0, abs=0)

    def test_squared_zero_iff_exact(self):
        loss = SquaredLoss()
        assert loss.value(0.3, 0.3) == 0.0
        assert loss.value(0.3, 0.31) > 0.0


class TestDerivatives:
    def test_squared_stationary(self):
        assert SquaredLoss().deriv(1.5, 1.5) == 0.0

    def test_squared_slope(self):
        # d/du (y-u)^2 = -2(y-u)
        assert SquaredLoss().deriv(0.0, 1.0) == pytest.approx(-2.0, abs=0)

    def test_logistic_slope_at_zero(self):
        assert LogisticLoss().deriv(0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_squared_curvature(self):
        assert SquaredLoss().second_deriv(-3.0, 7.0) == 2.0

    def test_logistic_curvature_at_zero(self):
        assert LogisticLoss().second_deriv(0.0, -1.0) == pytest.approx(0.25, abs=1e-15)

    def test_hinge_flat_beyond_margin(self):
        loss = SmoothedHingeLoss(delta=0.5)
        assert loss.second_deriv(1.2, 1.0) == 0.0
        assert loss.deriv(1.2, 1.0) == 0.0
        assert loss.value(1.2, 1.0) == 0.0


class TestDerivativeConsistency:
    """First derivative against central finite differences of the value."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_difference(self, family):
        rng = np.random.default_rng(7)
        loss = _loss(family)
        h = 1e-6
        for _ in range(2500):
            x, y, theta = random_case(rng, family, 3)
            u = float(x @ theta)
            d = loss.deriv(u, y)
            fd = (loss.value(u + h, y) - loss.value(u - h, y)) / (2.0 * h)
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_convexity(self, family):
        rng = np.random.default_rng(8)
        loss = _loss(family)
        for _ in range(2500):
            x, y, theta = random_case(rng, family, 3)
            assert loss.second_deriv(float(x @ theta), y) >= 0.0


class TestDerivativeBounds:
    @pytest.mark.parametrize("family", ["logistic", "hinge"])
    def test_bounded_slope(self, family):
        rng = np.random.default_rng(9)
        loss = _loss(family)
        for _ in range(10_000):
            u = float(rng.uniform(-50, 50))
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            assert abs(loss.deriv(u, y)) <= 1.0


class TestValidation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rejects_non_finite(self, family):
        loss = _loss(family)
        y = 1.0 if family in ("logistic", "hinge") else 0.0
        with pytest.raises(ValueError):
            loss.value(math.nan, y)
        with pytest.raises(ValueError):
            loss.deriv(math.inf, y)

    def test_logistic_label_domain(self):
        with pytest.raises(ValueError):
            LogisticLoss().value(0.0, 0.5)

    def test_poisson_outcome_domain(self):
        with pytest.raises(ValueError):
            PoissonLoss().value(0.0, -1.0)
        with pytest.raises(ValueError):
            PoissonLoss().value(0.0, 1.5)


class TestFactory:
    def test_names(self):
        assert isinstance(loss_from_name("squared"), SquaredLoss)
        assert isinstance(loss_from_name("logistic"), LogisticLoss)
        assert isinstance(loss_from_name("poisson"), PoissonLoss)
        hinge = loss_from_name("hinge:0.25")
        assert isinstance(hinge, SmoothedHingeLoss)
        assert hinge.delta == 0.25

    def test_hinge_without_delta_takes_the_default_width(self):
        hinge = loss_from_name("hinge")
        assert hinge == SmoothedHingeLoss() and hinge.delta == 0.5

    def test_lambda_rides_along(self):
        assert loss_from_name("logistic", lam=1e-3).lam == 1e-3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            loss_from_name("absolute")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            loss_from_name("squared", lam=-0.1)


def _bits(pair):
    return tuple(float(v).hex() for v in pair)


# |t| up to 800 crosses exp's overflow (709.78) and underflow (-745.13) points.
_MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-17, 0.3, 0.5, 1.0, 2.5, 30.0, 36.7, 700.0,
               709.0, 709.8, 710.0, 745.0, 746.0, 800.0]
_GRID = [s * v for v in _MAGNITUDES for s in (1.0, -1.0)]  # includes -0.0


class TestFusedPair:
    """``_pair(v, y)`` equals ``(deriv(v, y), second_deriv(v, y))`` bit for bit."""

    @pytest.mark.parametrize(
        "loss, ys",
        [
            (SquaredLoss(), [-3.0, -0.0, 0.0, 2.5, 1e300]),
            (LogisticLoss(), [-1.0, 1.0]),
            (PoissonLoss(), [0.0, 1.0, 7.0, 1e6]),
            (SmoothedHingeLoss(delta=0.5), [-1.0, 1.0]),
            (SmoothedHingeLoss(delta=0.25), [-1.0, 1.0]),
            (SmoothedHingeLoss(delta=1.5), [-1.0, 1.0]),
        ],
        ids=["squared", "logistic", "poisson", "hinge0.5", "hinge0.25", "hinge1.5"],
    )
    def test_equals_checked_calls(self, loss, ys):
        vs = list(_GRID)
        if isinstance(loss, SmoothedHingeLoss):
            # margins y*v exactly at the kinks 1 and 1-delta, and one ulp either side
            for m in (1.0, 1.0 - loss.delta):
                vs += [m, -m, math.nextafter(m, 2.0), math.nextafter(m, -2.0)]
        for y in ys:
            for v in vs:
                got = loss._pair(v, y)
                want = (loss.deriv(v, y), loss.second_deriv(v, y))
                assert _bits(got) == _bits(want), f"v={v!r} y={y!r}"

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.5])
    def test_curvature_matches_the_unfused_formulas(self, delta):
        # f'' as the families computed it on its own: logistic from a second exp
        logistic, hinge = LogisticLoss(), SmoothedHingeLoss(delta=delta)
        for y in (-1.0, 1.0):
            for v in _GRID + [1.0 - delta, delta - 1.0]:
                s = _sigmoid(y * v)
                assert _bits([logistic._pair(v, y)[1]]) == _bits([s * (1.0 - s)])
                want = 1.0 / delta if 1.0 - delta < y * v < 1.0 else 0.0
                assert _bits([hinge._pair(v, y)[1]]) == _bits([want])

    def test_poisson_overflow_is_infinite(self):
        assert PoissonLoss()._pair(800.0, 3.0) == (math.inf, math.inf)


class TestLambdaValidation:
    """lam must be finite and >= 0, however the loss is built."""

    @pytest.mark.parametrize("lam", [-1.0, -1e-12, math.inf, math.nan])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_construction_rejects(self, family, lam):
        cls = type(_loss(family))
        with pytest.raises(ValueError, match="lam"):
            cls(lam=lam)
        with pytest.raises(ValueError, match="lam"):
            replace(_loss(family), lam=lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_factory_rejects(self, lam):
        with pytest.raises(ValueError, match="lam"):
            loss_from_name("logistic", lam=lam)
        with pytest.raises(ValueError, match="lam"):
            loss_from_name("hinge:0.3", lam=lam)

    def test_hinge_still_checks_delta(self):
        with pytest.raises(ValueError, match="delta"):
            SmoothedHingeLoss(delta=0.0, lam=0.1)

    def test_zero_and_positive_accepted(self):
        assert SmoothedHingeLoss(delta=0.3, lam=0.0).lam == 0.0
        assert PoissonLoss(lam=1e300).lam == 1e300
