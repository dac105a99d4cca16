import math

import numpy as np
import pytest

from aisgd import (
    BracketError,
    GlmLoss,
    LogisticLoss,
    SquaredLoss,
    loss_from_name,
    solve_fixed_point,
)
from aisgd.vectors import Sample, SparseVector

from helpers import make_sample, prox_newton, random_case

ALL_FAMILIES = ["squared", "logistic", "poisson", "hinge"]


def _loss(family, lam=0.0):
    name = "hinge:0.5" if family == "hinge" else family
    return loss_from_name(name, lam=lam)


class TestClosedFormSquared:
    def test_hand_example(self):
        # u = 2*gamma*(y - u0 - u*c): with x=(1,0), y=1, theta=0, gamma=1 the
        # root is 2/3 and the gradient scaling is 1/3.
        res = solve_fixed_point(
            SquaredLoss(), make_sample([1.0, 0.0], 1.0), np.zeros(2), 1.0
        )
        assert res.u_star == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.s_n == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.u0 == 0.0
        assert res.c == 1.0
        assert res.residual <= 1e-12

    def test_hand_example_against_newton_oracle(self):
        x = np.array([1.0, 0.0])
        loss = SquaredLoss()
        theta = prox_newton(loss, x, 1.0, np.zeros(2), 1.0)
        np.testing.assert_allclose(theta, [2.0 / 3.0, 0.0], atol=1e-10)

    def test_scaling_matches_algebra(self):
        rng = np.random.default_rng(11)
        loss = SquaredLoss()
        for _ in range(500):
            p = int(rng.integers(1, 30))
            x, y, theta = random_case(rng, "squared", p)
            gamma = float(10.0 ** rng.uniform(-4, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            assert res.s_n == pytest.approx(1.0 / (1.0 + 2.0 * gamma * res.c), abs=1e-10)


class TestZeroGradientAndZeroFeature:
    @pytest.mark.parametrize("family", ["squared", "poisson", "hinge"])
    def test_stationary_predictor_short_circuits(self, family):
        # the logistic slope never vanishes, so it has no such case
        loss = _loss(family)
        if family == "squared":
            x, y, theta = np.array([2.0, 1.0]), 1.5, np.array([0.5, 0.5])
        elif family == "poisson":
            x, y, theta = np.array([1.0, 1.0]), 1.0, np.array([0.0, 0.0])
        else:
            x, y, theta = np.array([2.0, 0.0]), 1.0, np.array([1.0, 0.0])
        res = solve_fixed_point(loss, make_sample(x, y), theta, 0.7)
        assert res.u_star == 0.0
        assert res.iterations == 0
        assert res.residual == 0.0

    def test_zero_feature_vector(self):
        res = solve_fixed_point(
            SquaredLoss(), make_sample([0.0, 0.0], 3.0), np.ones(2), 2.0
        )
        assert res.c == 0.0
        assert res.iterations == 0


class TestLogisticBisection:
    def test_scalar_equation_residual(self):
        # u = 2*sigma(-u) on the bracket (0, 1]
        res = solve_fixed_point(LogisticLoss(), make_sample([1.0], 1.0), np.zeros(1), 2.0)
        sigma = 1.0 / (1.0 + math.exp(res.u_star))
        assert 0.0 < res.u_star <= 1.0
        assert abs(res.u_star - 2.0 * sigma) < 1e-12

    def test_against_newton_oracle(self):
        rng = np.random.default_rng(12)
        loss = LogisticLoss()
        for _ in range(200):
            x, y, theta = random_case(rng, "logistic", 4)
            gamma = float(10.0 ** rng.uniform(-3, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            oracle = prox_newton(loss, x, y, theta, gamma)
            np.testing.assert_allclose(theta + res.u_star * x, oracle, atol=1e-8)


class TestBracketProperty:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sign_and_magnitude(self, family):
        rng = np.random.default_rng(13)
        loss = _loss(family)
        for _ in range(2500):
            p = int(rng.integers(1, 8))
            x, y, theta = random_case(rng, family, p)
            gamma = float(10.0 ** rng.uniform(-4, 1))
            sample = make_sample(x, y)
            res = solve_fixed_point(loss, sample, theta, gamma)
            g0 = -loss.deriv(res.u0, y)
            if g0 == 0.0 or res.c == 0.0:
                continue
            assert math.copysign(1.0, res.u_star) == math.copysign(1.0, g0)
            assert abs(res.u_star) <= gamma * abs(g0)
            assert 0.0 < res.s_n <= 1.0

    def test_bracket_violation_raises(self):
        class ConcaveLoss(GlmLoss):
            # deliberately increasing derivative: second_deriv < 0
            lam = 0.0
            name = "broken"

            def value(self, u, y):
                return -((y - u) ** 2)

            def deriv(self, u, y):
                return 2.0 * (y - u)

            def second_deriv(self, u, y):
                return -2.0

        with pytest.raises(BracketError):
            solve_fixed_point(ConcaveLoss(), make_sample([1.0], 1.0), np.zeros(1), 1.0)


class TestResidualInvariant:
    """theta_n - theta_prev + gamma * (grad at theta_n + lam * theta_n) ~ 0."""

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
    def test_update_equation(self, lam):
        rng = np.random.default_rng(14)
        count = 0
        while count < 2500:
            family = ALL_FAMILIES[int(rng.integers(0, 4))]
            loss = _loss(family, lam=lam)
            p = int(rng.integers(1, 8))
            x, y, theta_prev = random_case(rng, family, p)
            gamma = float(10.0 ** rng.uniform(-4, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta_prev, gamma)
            theta_n = (theta_prev + res.u_star * x) / (1.0 + gamma * lam)
            grad = loss.deriv(float(x @ theta_n), y) * x + lam * theta_n
            err = np.linalg.norm(theta_n - theta_prev + gamma * grad)
            assert err <= 1e-8
            count += 1

    def test_sparse_features(self):
        loss = LogisticLoss()
        x = SparseVector(np.array([0, 3]), np.array([1.0, -2.0]), 5)
        theta = np.full(5, 0.2)
        res = solve_fixed_point(loss, Sample(x, 1.0), theta, 0.8)
        theta_n = theta.copy()
        theta_n[[0, 3]] += res.u_star * np.array([1.0, -2.0])
        u_n = theta_n[0] - 2.0 * theta_n[3]
        grad_scale = loss.deriv(u_n, 1.0)
        dense_x = x.toarray()
        err = np.linalg.norm(theta_n - theta + 0.8 * grad_scale * dense_x)
        assert err <= 1e-12


class TestValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_fixed_point(SquaredLoss(), make_sample([1.0], 1.0), np.zeros(1), 0.0)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_fixed_point(
                SquaredLoss(), make_sample([1.0], 1.0), np.zeros(1), 1.0, tol=0.0
            )


def _scalar_case(u0, c):
    """A one-dimensional (x, theta_prev) with x.theta_prev ~ u0 and ||x||^2 ~ c."""
    root_c = math.sqrt(c)
    return np.array([root_c]), np.array([u0 / root_c if c else 0.0])


def _resid(loss, res, y, gamma, lam, u):
    return -gamma * loss.deriv((res.u0 + u * res.c) / (1.0 + gamma * lam), y) - u


def _sign_change_near(loss, res, y, gamma, lam, ulps=4):
    lo = hi = res.u_star
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return _resid(loss, res, y, gamma, lam, lo) >= 0.0 >= _resid(loss, res, y, gamma, lam, hi)


_LABELS = {
    "squared": [-3.0, 0.0, 2.5],
    "logistic": [-1.0, 1.0],
    "hinge": [-1.0, 1.0],
    "poisson": [0.0, 1.0, 3.0, 7.0],
}


def _extreme_cases(family, rng):
    ys = _LABELS[family]
    for u0 in (-700.0, -50.0, 0.0, 50.0, 700.0):
        for gamma in (1e-4, 1.0, 1e3):
            for c in (0.0, 1e-3, 1.0, 1e6):
                for lam in (0.0, 1e-3):
                    for y in ys:
                        yield u0, gamma, c, lam, y
    for _ in range(400):
        u0 = float(rng.choice([-1.0, 1.0]) * 700.0 * 10.0 ** rng.uniform(-6, 0))
        gamma = float(10.0 ** rng.uniform(-4, 3))
        c = 0.0 if rng.uniform() < 0.05 else float(10.0 ** rng.uniform(-6, 6))
        lam = float(rng.choice([0.0, 1e-3]))
        yield u0, gamma, c, lam, float(rng.choice(ys))


class TestExtremeGrid:
    """Large predictors, exponential tails, huge rates, zero and huge feature norms."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_root_in_bracket_with_small_residual(self, family):
        rng = np.random.default_rng(15 + ALL_FAMILIES.index(family))
        for u0, gamma, c, lam, y in _extreme_cases(family, rng):
            loss = _loss(family, lam=lam)
            x, theta = _scalar_case(u0, c)
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            b = -gamma * loss.deriv(res.u0 / (1.0 + gamma * lam), y)
            case = f"u0={u0!r} gamma={gamma!r} c={c!r} lam={lam!r} y={y!r}"
            assert min(0.0, b) <= res.u_star <= max(0.0, b), case
            r = _resid(loss, res, y, gamma, lam, res.u_star)
            assert abs(r) <= 1e-12 * max(1.0, abs(res.u_star)) or _sign_change_near(
                loss, res, y, gamma, lam
            ), f"{case}: u*={res.u_star!r} residual {r!r}"

    def test_poisson_large_predictor_finds_true_root(self):
        # u = 0.5 * (3 - exp(50 + u)): the root is near -45, far inside [b, 0]
        res = solve_fixed_point(
            loss_from_name("poisson"), make_sample([1.0], 3.0), np.array([50.0]), 0.5
        )
        assert -46.0 < res.u_star < -44.0
        assert abs(0.5 * (3.0 - math.exp(50.0 + res.u_star)) - res.u_star) <= 1e-12 * 45.0

    def test_poisson_overflowing_anchor(self):
        # exp(800) overflows, so b = -inf; the root is still finite
        res = solve_fixed_point(
            loss_from_name("poisson"), make_sample([1.0], 3.0), np.array([800.0]), 0.5
        )
        assert math.isfinite(res.u_star) and res.u_star < 0.0
        r = 0.5 * (3.0 - math.exp(800.0 + res.u_star)) - res.u_star
        assert abs(r) <= 1e-12 * abs(res.u_star)


class TestIterationCounts:
    def test_squared_takes_one_newton_step(self):
        # r(u) is linear, so one Newton step from 0 is the closed form; below
        # gamma ~ 0.3 the residual's rounding floor stays under tol
        rng = np.random.default_rng(16)
        loss = SquaredLoss()
        for _ in range(2000):
            p = int(rng.integers(1, 30))
            x, y, theta = random_case(rng, "squared", p)
            gamma = float(10.0 ** rng.uniform(-4, -0.5))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            assert res.c > 0.0 and res.u0 != y
            assert res.iterations == 1

    def test_squared_refinement_at_large_rates_stays_in_rounding(self):
        # Above gamma ~ 0.3 the residual's rounding floor, about 2*gamma*|y|*eps,
        # can exceed tol; the extra steps stay within rounding of the closed form.
        rng = np.random.default_rng(16)
        loss = SquaredLoss()
        iterations = []
        for _ in range(2000):
            p = int(rng.integers(1, 30))
            x, y, theta = random_case(rng, "squared", p)
            gamma = float(10.0 ** rng.uniform(-0.5, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            closed_form = 2.0 * gamma * (y - res.u0) / (1.0 + 2.0 * gamma * res.c)
            assert abs(res.u_star - closed_form) <= 1e-14 * max(1.0, abs(closed_form))
            iterations.append(res.iterations)
        assert np.mean(iterations) <= 1.2
        assert max(iterations) <= 10

    def test_logistic_mean_iterations(self):
        rng = np.random.default_rng(17)
        loss = LogisticLoss()
        iterations = []
        for _ in range(500):
            x, y, theta = random_case(rng, "logistic", int(rng.integers(1, 30)))
            gamma = float(10.0 ** rng.uniform(-4, 1))
            iterations.append(solve_fixed_point(loss, make_sample(x, y), theta, gamma).iterations)
        assert np.mean(iterations) <= 4.0


class TestAgainstNewtonOracle:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_every_family(self, family, lam):
        rng = np.random.default_rng(18)
        loss = _loss(family, lam=lam)
        for _ in range(100):
            x, y, theta = random_case(rng, family, int(rng.integers(1, 6)))
            gamma = float(10.0 ** rng.uniform(-3, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            ours = (theta + res.u_star * x) / (1.0 + gamma * lam)
            oracle = prox_newton(loss, x, y, theta, gamma, lam=lam)
            np.testing.assert_allclose(ours, oracle, atol=1e-8)
