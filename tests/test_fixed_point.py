import math

import numpy as np
import pytest

from aisgd import (
    BracketError,
    ConstantRate,
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
