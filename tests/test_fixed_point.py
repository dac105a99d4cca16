import math

import numpy as np
import pytest

from aisgd import (
    BracketError,
    ConstantRate,
    ConvergenceError,
    GlmLoss,
    LogisticLoss,
    PoissonLoss,
    SmoothedHingeLoss,
    SquaredLoss,
    implicit_step,
    init_state,
    loss_from_name,
    run_stream,
    solve_fixed_point,
)
from aisgd.vectors import Sample, SparseVector, _unchecked, dot, sq_norm

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
        # With L2, u* = 2*gamma*(y - u0/s) / (1 + 2*gamma*c/s) for s = 1 + gamma*lam,
        # and s_n divides it by gamma * g(u0) = 2*gamma*(y - u0).
        loss = SquaredLoss(lam=0.7)
        for _ in range(500):
            p = int(rng.integers(1, 30))
            x, y, theta = random_case(rng, "squared", p)
            gamma = float(10.0 ** rng.uniform(-4, 1))
            res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
            s = 1.0 + gamma * loss.lam
            exact = (y - res.u0 / s) / ((y - res.u0) * (1.0 + 2.0 * gamma * res.c / s))
            assert res.s_n == pytest.approx(exact, rel=1e-9, abs=1e-10)


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

    @pytest.mark.parametrize(
        "u0, c, gamma",
        [
            (-0.8290886653972527, 2.275021017740715e-13, 0.0012179808495483412),
            (-1.546236893586722, 4.9742129620369784e-11, 2.212766802419595e-05),
        ],
    )
    def test_rounding_past_b_is_not_a_violation(self, u0, c, gamma):
        # u*c moves the predictor by one ulp, and the rounded logistic T(u)
        # passes b = T(0) by one ulp: convex all the same
        x, theta = _scalar_case(u0, c)
        res = solve_fixed_point(LogisticLoss(), make_sample(x, -1.0), theta, gamma)
        assert res.residual <= 1e-15 * max(1.0, abs(res.u_star))

    def test_concave_at_the_first_newton_point_raises(self):
        class ConcaveAwayFromStart(GlmLoss):
            # squared loss whose reported curvature turns negative for u > 0
            lam = 0.0
            name = "broken"

            def deriv(self, u, y):
                return -2.0 * (y - u)

            def second_deriv(self, u, y):
                return 2.0 if u <= 0.0 else -1.0

        # u0 = 0, b = 2: the first Newton step from 0 is 2/3, where f'' = -1
        with pytest.raises(BracketError):
            solve_fixed_point(ConcaveAwayFromStart(), make_sample([1.0], 1.0), np.zeros(1), 1.0)

    def test_map_rising_past_b_raises(self):
        class FlatCurvature(GlmLoss):
            # a decreasing f' that reports f'' = 0: T(u) rises with u
            lam = 0.0
            name = "broken"

            def deriv(self, u, y):
                return 2.0 * (y - u)

            def second_deriv(self, u, y):
                return 0.0

        # b = T(0) = -2, and the first Newton step lands on b, where T(b) = -6
        with pytest.raises(BracketError):
            solve_fixed_point(FlatCurvature(), make_sample([1.0], 1.0), np.zeros(1), 1.0)


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

    def test_root_below_the_smallest_subnormal_stops_at_zero(self):
        # T(u) = 2e-300 - 2e30*u has its root at 1e-330, below the smallest
        # subnormal, so the first Newton step underflows to 0 and the solve
        # stops at u = 0 before its loop, above tol: an exit at the float64 floor.
        loss, sample = SquaredLoss(), Sample(np.array([1e15]), 1e-300)
        res = solve_fixed_point(loss, sample, np.array([0.0]), 1.0, tol=1e-300)
        assert (res.u_star, res.iterations, res.residual) == (0.0, 0, 2e-300)

        def residual(u):
            return -loss.deriv(u * sample.c, sample.y) - u

        # the residual changes sign between 0 and the next float up: no float does better
        assert residual(0.0) == 2e-300
        assert -1.0e-293 < residual(math.ulp(0.0)) < -0.98e-293

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="returns u* = inf with residual inf and no error (ROADMAP item 3)")
    def test_squared_overflowing_first_step_is_solved_or_refused(self):
        # b = -2*gamma*(u0 - y) = 2e308 overflows, but the root b/(1 + 2*gamma*c),
        # about 6.7e307, is finite: the solve must find it or raise.
        try:
            res = solve_fixed_point(SquaredLoss(), make_sample([1.0], 0.0), np.array([-1e308]), 1.0)
        except (ConvergenceError, BracketError):
            return
        assert math.isfinite(res.u_star), res


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


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``_pair`` and ``deriv`` calls on the built-in loss classes."""
    calls = {"_pair": 0, "deriv": 0}

    def counting(name, method):
        def wrapper(self, u, y):
            calls[name] += 1
            return method(self, u, y)

        return wrapper

    for cls in (SquaredLoss, LogisticLoss, SmoothedHingeLoss):
        for name in calls:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return calls


class TestEvaluationsPerSolve:
    """One checked ``deriv`` per solve, and one ``_pair`` per evaluated point."""

    def _solve(self, calls, loss, x, y, theta, gamma):
        calls.update(_pair=0, deriv=0)
        res = solve_fixed_point(loss, make_sample(x, y), theta, gamma)
        assert calls["deriv"] == 1
        return res

    def test_squared_evaluates_zero_and_the_newton_point(self, counted):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x, y, theta = random_case(rng, "squared", int(rng.integers(1, 30)))
            gamma = float(10.0 ** rng.uniform(-4, -0.5))
            res = self._solve(counted, SquaredLoss(), x, y, theta, gamma)
            assert (counted["_pair"], res.iterations) == (2, 1)

    def test_hinge_linear_piece_lands_on_b(self, counted):
        rng = np.random.default_rng(22)
        loss = SmoothedHingeLoss(delta=0.5)
        for _ in range(200):
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            gamma = float(10.0 ** rng.uniform(-3, 0))
            # margin -3 at u0; u0 + b*c adds gamma*||x||^2 <= 1 to it, so still <= 1 - delta
            theta = -3.0 * y * x
            assert y * (x @ theta) + gamma * (x @ x) <= 0.5
            res = self._solve(counted, loss, x, y, theta, gamma)
            assert res.u_star == gamma * y
            assert (counted["_pair"], res.iterations) == (2, 0)

    def test_logistic_evaluates_zero_and_each_iteration(self, counted):
        rng = np.random.default_rng(23)
        loss = LogisticLoss()
        iterations, landings = set(), set()
        for i in range(300):
            x, y, theta = random_case(rng, "logistic", int(rng.integers(1, 30)))
            gamma = float(10.0 ** rng.uniform(-4, 1))
            if i % 10 == 0:  # gamma*c*f'' near an ulp of 1, so some first steps land on b
                x, gamma = x * 1e-4, gamma * 1e-5
            res = self._solve(counted, loss, x, y, theta, gamma)
            evaluated = counted["_pair"]
            d, curv = loss._pair(res.u0, y)
            b = -gamma * d
            on_b = abs(b) > 1e-15 and b / (1.0 + gamma * res.c * curv) == b
            # the point b, when the first step lands there, is evaluated but not counted
            assert evaluated == 1 + res.iterations + on_b
            iterations.add(res.iterations)
            landings.add(on_b)
        assert len(iterations) >= 3 and landings == {False, True}


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


def _sigmoid(t):
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


class TwoMethodLogistic(GlmLoss):
    """Logistic loss as a user subclass: only ``deriv`` and ``second_deriv``."""

    name = "two-method-logistic"

    def __init__(self, lam=0.0):
        self.lam = lam

    def deriv(self, u, y):
        return -y * _sigmoid(-y * u)

    def second_deriv(self, u, y):
        s = _sigmoid(y * u)
        return s * (1.0 - s)


class TwoMethodSquared(GlmLoss):
    name = "two-method-squared"
    lam = 0.0

    def deriv(self, u, y):
        return -2.0 * (y - u)

    def second_deriv(self, u, y):
        return 2.0


def _stream(dim, labels, sparse):
    rng = np.random.default_rng(19)
    out = []
    for y in labels:
        x = rng.standard_normal(dim)
        if sparse:
            idx = np.sort(rng.choice(dim, size=3, replace=False))
            out.append(Sample(SparseVector(idx, x[idx], dim), y))
        else:
            out.append(Sample(x, y))
    return out


class TestInputChecksOncePerSolve:
    """The solver checks its inputs once, and still rejects every bad one."""

    BAD = [
        (LogisticLoss(), 0.5),
        (SmoothedHingeLoss(delta=0.5), 0.5),
        (PoissonLoss(), -1.0),
        (PoissonLoss(), 1.5),
    ]
    IDS = ["logistic-0.5", "hinge-0.5", "poisson-neg", "poisson-frac"]

    @pytest.mark.parametrize("loss, y", BAD, ids=IDS)
    def test_solve_and_step_reject(self, loss, y):
        sample = make_sample([1.0, -0.5], y)
        with pytest.raises(ValueError):
            solve_fixed_point(loss, sample, np.array([0.3, 0.1]), 0.5)
        with pytest.raises(ValueError):
            implicit_step(init_state(np.zeros(2), "isgd"), sample, 0.5, loss)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("algorithm", ["isgd", "aisgd"])
    @pytest.mark.parametrize("loss, y", BAD, ids=IDS)
    def test_run_stream_rejects_a_bad_sample(self, loss, y, algorithm, sparse):
        good = 1.0
        data = _stream(8, [good] * 5 + [y] + [good] * 3, sparse)
        with pytest.raises(ValueError):
            run_stream(algorithm, loss, ConstantRate(0.1), data, 4, lambda th: 0.0)

    def test_non_finite_predictor_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_fixed_point(LogisticLoss(), make_sample([1.0], 1.0), np.array([math.inf]), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_overflowing_feature_norm_rejected(self, family):
        # ||x||^2 = inf would put every point after u = 0 at an infinite predictor
        with pytest.raises(ValueError, match="feature norm"):
            solve_fixed_point(_loss(family), make_sample([1e200, 1.0], 1.0), np.zeros(2), 0.1)

    @pytest.mark.parametrize(
        "ours, builtin, labels",
        [
            (TwoMethodLogistic(), LogisticLoss(), "pm1"),
            (TwoMethodLogistic(lam=1e-3), LogisticLoss(lam=1e-3), "pm1"),
            (TwoMethodSquared(), SquaredLoss(), "real"),
        ],
        ids=["logistic", "logistic-l2", "squared"],
    )
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_two_method_subclass_matches_builtin(self, ours, builtin, labels, sparse):
        rng = np.random.default_rng(20)
        n = 300
        ys = (np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0) if labels == "pm1"
              else 3.0 * rng.standard_normal(n))
        data = _stream(6, [float(y) for y in ys], sparse)
        runs = [
            run_stream("aisgd", loss, ConstantRate(0.7), data, 50, lambda th: float(th @ th))
            for loss in (ours, builtin)
        ]
        assert [(p.n, p.metric, p.diverged) for p in runs[0].trace] == [
            (p.n, p.metric, p.diverged) for p in runs[1].trace
        ]
        np.testing.assert_array_equal(runs[0].state.theta, runs[1].state.theta)
        np.testing.assert_array_equal(runs[0].state.theta_bar, runs[1].state.theta_bar)


# The solve loop as it stood before its stop test moved to the end of the
# loop, kept frozen as the oracle for TestTrimmedLoop: the predictor came in
# as scale * (x . theta_prev), and a `first` flag skipped the safeguards on
# the first Newton step.
def _frozen_solve(loss, sample, theta_prev, gamma_n, tol=1e-15, max_iter=200, scale=1.0):
    if not gamma_n > 0:
        raise ValueError("gamma_n must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x, y = sample.x, sample.y
    u0 = scale * dot(x, theta_prev)
    c = sample.c
    if c == math.inf:
        raise ValueError("squared feature norm overflows float64")
    shrink = 1.0 + gamma_n * loss.lam
    slope_scale = gamma_n * c / shrink
    pair = loss._pair
    v = u0 / shrink
    loss.deriv(v, y)
    d, curv = pair(v, y)
    if curv < 0.0:
        raise BracketError("not convex")
    b = -gamma_n * d
    lo, hi = (0.0, b) if b > 0 else (b, 0.0)
    u_zero = -u0 / c if c > 0.0 else math.nan
    u, r = 0.0, b
    step_before_last = step = math.inf
    u_next = b / (1.0 + slope_scale * curv)
    first = math.ulp(0.0) < abs(u_next) < math.inf
    iterations = 0
    while abs(r) > tol * max(1.0, abs(u)):
        if first:
            first = False
            iterations = -1 if u_next == b else 0
        else:
            slope = 1.0 + slope_scale * curv
            newton = r / slope
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
                    break
        step_before_last, step = step, u_next - u
        if iterations == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; residual {abs(r):.3e}"
            )
        iterations += 1
        u = u_next
        d, curv = pair((u0 + u * c) / shrink, y)
        image = -gamma_n * d
        if curv < 0.0 or (image - b) * b > 0.0 and abs(image - b) > tol * max(1.0, abs(b)):
            raise BracketError("not convex")
        r = image - u
        if r > 0.0:
            lo, hi = u, min(hi, image)
        elif r < 0.0:
            lo, hi = max(lo, image), u
    return u, iterations, abs(r)


def _outcome(solve, *args, **kwargs):
    """What a solve decided: its root, iterations and residual to the bit, or its error."""
    try:
        with np.errstate(all="ignore"):
            res = solve(*args, **kwargs)
    except (ValueError, BracketError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc) if isinstance(exc, ConvergenceError) else ""
    u, iterations, residual = (
        res if isinstance(res, tuple) else (res.u_star, res.iterations, res.residual)
    )
    return u.hex(), iterations, residual.hex()


class TestTrimmedLoop:
    """The solve decides as the frozen loop above does, bit for bit, errors included."""

    def _same(self, loss, sample, theta, gamma, **kwargs):
        new = _outcome(solve_fixed_point, loss, sample, theta, gamma, **kwargs)
        old = _outcome(_frozen_solve, loss, sample, theta, gamma, **kwargs)
        assert new == old, (loss, sample, theta, gamma, kwargs)
        return new

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_extreme_grid(self, family):
        rng = np.random.default_rng(15 + ALL_FAMILIES.index(family))
        for u0, gamma, c, lam, y in _extreme_cases(family, rng):
            x, theta = _scalar_case(u0, c)
            self._same(_loss(family, lam=lam), make_sample(x, y), theta, gamma)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_random_draws(self, family, lam):
        rng = np.random.default_rng(21)
        loss = _loss(family, lam=lam)
        iterations = set()
        for _ in range(1500):
            x, y, theta = random_case(rng, family, int(rng.integers(1, 30)))
            gamma = float(10.0 ** rng.uniform(-4, 2))
            iterations.add(self._same(loss, make_sample(x, y), theta, gamma)[1])
        assert len(iterations) >= (2 if family == "squared" else 4), iterations

    @pytest.mark.parametrize(
        "family, x, theta, y, gamma",
        [
            ("squared", [1.0], [-1e308], 0.0, 1.0),  # b = inf, while the root is finite
            ("poisson", [1.0], [800.0], 3.0, 0.5),  # exp(800) overflows: b = -inf
            ("logistic", [1.0], [0.0], 1.0, 1e308),  # b = -1e308 * f' rounds to -inf
            ("squared", [1e-160], [0.0], 1.0, 1e-160),  # the first step underflows to 0
            ("logistic", [1e150, 1e150], [1.0, -1.0], 1.0, 1e10),  # c = 2e300, slope overflows
            ("hinge", [1.0, 2.0], [0.0, 0.0], 1.0, 1e-16),  # |b| <= tol: stop at u = 0
            ("squared", [1.0], [0.0], 1e-15, 0.5),  # b = 1e-15 = tol exactly: stop at u = 0
            ("squared", [1e200, 1.0], [0.0, 0.0], 1.0, 0.1),  # c overflows: ValueError
            ("logistic", [1.0], [math.inf], 1.0, 0.5),  # non-finite predictor: ValueError
            ("logistic", [1.0], [0.0], 0.5, 0.5),  # bad label: ValueError
            # The first point misses, and the bracket is first built on that miss.
            # At b < 0 it falls short of the root; Newton goes on inside [b, 0]:
            ("logistic", [0.5], [-3.0], -1.0, 1.0),
            # Newton from the first point leaves that bracket, so bisection starts at u_zero ...
            ("logistic", [-68.0], [0.61], 1.0, 0.1),
            ("logistic", [-68.0], [-0.61], -1.0, 0.1),  # its mirror image, at b < 0
            ("poisson", [-98.0], [5.7], 5.0, 0.35),  # exp overflows at the first point
            # ... or, with u_zero = -0.5 outside [0, b], at the midpoint
            ("poisson", [1.0], [0.5], 1e4, 1e3),
            # the first step lands on b and misses; the next halving test reads the
            # step history built on that miss, and later bisects at the midpoint
            ("hinge", [-0.093], [4.2], -1.0, 560.0),
            # squared at gamma*|y| > 3, where rounding leaves the first point above tol:
            # two Newton points, then a midpoint bisection that fails to halve ...
            ("squared", [0.22], [-1.1], -0.13, 48.0),
            # ... one whose second point leaves the bracket until it cannot split ...
            ("squared", [4.4], [-2.7], -9.7, 58.0),
            # ... and one at b < 0 that takes four points
            ("squared", [3.0], [0.5], 1.0, 10.0),
        ],
    )
    def test_edge_cases(self, family, x, theta, y, gamma):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):  # ||x||^2 may overflow, as one case means it to
            c = sq_norm(x)
        # Sample rejects that row; built unchecked, it reaches the solver's own test.
        (sample,) = _unchecked(Sample, 1, x=[x], y=[y], c=[c])
        self._same(_loss(family), sample, np.array(theta), gamma)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_iteration_cap(self, max_iter):
        rng = np.random.default_rng(22)
        errors = 0
        for _ in range(300):
            family = ALL_FAMILIES[int(rng.integers(0, 4))]
            x, y, theta = random_case(rng, family, 4)
            gamma = float(10.0 ** rng.uniform(-1, 3))
            out = self._same(_loss(family), make_sample(x, y), theta, gamma, max_iter=max_iter)
            errors += out[0] == "ConvergenceError"
        assert errors > 0

    def test_user_losses_decide_alike(self):
        # Paths the built-in families do not reach: f'' < 0 past a point, a
        # derivative that turns nan (a nan residual ends the solve), and a map
        # that passes b = 10 by 3 ulps, which the bracket test allows only
        # because |b| > 1 scales its tolerance.
        class Broken(GlmLoss):
            lam = 0.0
            name = "broken"

            def __init__(self, deriv, curv):
                self.deriv, self.second_deriv = deriv, curv

        past_b = 10.0
        for _ in range(3):
            past_b = math.nextafter(past_b, math.inf)
        losses = [
            Broken(lambda u, y: 2.0 * (y - u), lambda u, y: -2.0 if u > 0.5 else 0.0),
            Broken(lambda u, y: 2.0 * (u - y) if u < 0.5 else math.nan, lambda u, y: 2.0),
            Broken(lambda u, y: -10.0 if u == 0.0 else -past_b, lambda u, y: 0.0),
        ]
        outcomes = [
            self._same(loss, make_sample([1.0], 1.0), np.array([u]), 1.0)
            for loss in losses
            for u in (-1.0, 0.0, 1.0)
        ]
        assert outcomes[0][0] == "BracketError" and outcomes[4][2] == "nan"
        assert outcomes[7] == ((10.0).hex(), 0, (past_b - 10.0).hex())

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_u0_from_a_scaled_iterate(self, family, sparse):
        # theta = a*w: u0 = a * dot(x, w) is the old scale=a solve
        rng = np.random.default_rng(23)
        loss = _loss(family, lam=1e-3)
        for _ in range(400):
            x, y, w = random_case(rng, family, 8)
            if sparse:
                idx = np.sort(rng.choice(8, size=3, replace=False))
                x = SparseVector(idx, x[idx], 8)
            sample = Sample(x, y)
            a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
            gamma = float(10.0 ** rng.uniform(-3, 1))
            new = _outcome(solve_fixed_point, loss, sample, w, gamma, u0=a * dot(x, w))
            assert new == _outcome(_frozen_solve, loss, sample, w, gamma, scale=a)
