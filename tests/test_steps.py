import math
from dataclasses import replace

import numpy as np
import pytest

from aisgd import (
    LogisticLoss,
    SquaredLoss,
    XuRate,
    adagrad_step,
    explicit_step,
    implicit_step,
    init_state,
    loss_from_name,
    update_average,
)
from aisgd import solvers
from aisgd.solvers import ADAGRAD_EPS, _average_update, _explicit_update, _implicit_update

from helpers import make_sample, prox_objective, random_case

ALL_FAMILIES = ["squared", "logistic", "poisson", "hinge"]


def _loss(family, lam=0.0):
    name = "hinge:0.5" if family == "hinge" else family
    return loss_from_name(name, lam=lam)


class TestExplicitStep:
    def test_hand_example(self):
        state = init_state(np.zeros(2), "sgd")
        new = explicit_step(state, make_sample([1.0, 0.0], 1.0), 1.0, SquaredLoss())
        np.testing.assert_allclose(new.theta, [2.0, 0.0])
        assert new.n == 1

    def test_zero_slope_leaves_theta(self):
        state = init_state(np.array([1.0]), "sgd")
        new = explicit_step(state, make_sample([1.0], 1.0), 0.5, SquaredLoss())
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_zero_rate_leaves_theta(self):
        state = init_state(np.array([0.3]), "sgd")
        new = explicit_step(state, make_sample([1.0], 1.0), 0.0, SquaredLoss())
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_regularized_direction(self):
        lam = 0.5
        state = init_state(np.array([1.0, 0.0]), "sgd")
        new = explicit_step(state, make_sample([0.0, 1.0], 1.0), 0.1, _loss("squared", lam))
        # theta*(1 - gamma*lam) - gamma*deriv*x
        np.testing.assert_allclose(new.theta, [0.95, 0.2])


class TestZeroCoefficientStep:
    """A zero step along x with lam = 0 writes nothing, so a read-only theta is fine."""

    @pytest.mark.parametrize("kernel", [_explicit_update, _implicit_update])
    def test_read_only_theta_is_left_untouched(self, kernel):
        theta = np.array([2.0, -0.5, 0.0])
        theta.flags.writeable = False
        # margin y * x.theta = 2 >= 1: the hinge derivative is 0
        sample = make_sample([1.0, 0.0, 3.0], 1.0)
        coef = kernel(theta, sample, 0.7, _loss("hinge"), solvers._workspace(theta))
        assert coef == 0.0
        np.testing.assert_array_equal(theta, [2.0, -0.5, 0.0])


class TestImplicitStep:
    def test_hand_example(self):
        state = init_state(np.zeros(2), "isgd")
        new = implicit_step(state, make_sample([1.0, 0.0], 1.0), 1.0, SquaredLoss())
        np.testing.assert_allclose(new.theta, [2.0 / 3.0, 0.0], atol=1e-12)

    def test_vanishing_rate_matches_explicit(self):
        gamma = 1e-12
        for family in ALL_FAMILIES:
            loss = _loss(family)
            y = 1.0 if family in ("logistic", "hinge") else 2.0
            sample = make_sample([1.0, -0.5, 2.0], y)
            state = init_state(np.zeros(3), "isgd")
            imp = implicit_step(state, sample, gamma, loss)
            exp = explicit_step(state, sample, gamma, loss)
            grad_norm = abs(loss.deriv(0.0, y)) * np.linalg.norm(sample.x)
            gap = np.linalg.norm(imp.theta - exp.theta)
            assert gap <= 1e-20 * (1.0 + grad_norm)

    def test_zero_feature_vector(self):
        state = init_state(np.array([0.4, -0.2]), "isgd")
        new = implicit_step(state, make_sample([0.0, 0.0], 1.0), 2.0, SquaredLoss())
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_zero_feature_vector_regularized(self):
        lam, gamma = 0.25, 2.0
        state = init_state(np.array([0.4, -0.2]), "isgd")
        new = implicit_step(state, make_sample([0.0, 0.0], 1.0), gamma, _loss("squared", lam))
        np.testing.assert_allclose(new.theta, state.theta / (1.0 + gamma * lam))


class TestSmallRateAgreement:
    """Halving the rate quarters the implicit/explicit gap (up to O(gamma*c)).

    For the squared loss the exact ratio is (1/4)(1+2*gamma*c)/(1+gamma*c),
    so the clean 1/4 only holds in the limit; the assertion carries the
    first-order correction.  Hinge cases whose step straddles a kink are
    skipped: the gap is not quadratic in gamma across a curvature jump.
    """

    def test_quadratic_gap(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            family = ALL_FAMILIES[int(rng.integers(0, 4))]
            loss = _loss(family)
            x, y, theta = random_case(rng, family, 4)
            sample = make_sample(x, y)
            gamma = 1e-4
            u0 = float(x @ theta)
            c = float(x @ x)
            if family == "hinge":
                margin = y * u0
                window = 2.0 * c * gamma * (abs(loss.deriv(u0, y)) + 1.0)
                if abs(margin - 1.0) < window or abs(margin - 0.5) < window:
                    continue
            state = init_state(theta, "isgd")
            gaps = []
            for g in (gamma, gamma / 2.0):
                imp = implicit_step(state, sample, g, loss)
                exp = explicit_step(state, sample, g, loss)
                gaps.append(np.linalg.norm(imp.theta - exp.theta))
            if gaps[0] < 1e-12:  # flat or near-stationary case, ratio is noise
                continue
            assert gaps[1] <= gaps[0] * 0.25 * (1.0 + 10.0 * gamma * c)
            checked += 1


class TestProximalOptimality:
    """The implicit iterate minimizes the per-sample proximal objective."""

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_beats_endpoints(self, lam):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            family = ALL_FAMILIES[int(rng.integers(0, 4))]
            loss = _loss(family, lam=lam)
            x, y, theta_prev = random_case(rng, family, 5)
            sample = make_sample(x, y)
            gamma = float(10.0 ** rng.uniform(-3, 0.5))
            state = init_state(theta_prev, "isgd")
            imp = implicit_step(state, sample, gamma, loss)
            exp = explicit_step(state, sample, gamma, loss)
            obj = lambda t: prox_objective(loss, x, y, theta_prev, gamma, t, lam)
            at_impl = obj(imp.theta)
            assert at_impl <= obj(theta_prev) + 1e-10
            assert at_impl <= obj(exp.theta) + 1e-10


class TestContraction:
    def test_noiseless_one_dimensional(self):
        rng = np.random.default_rng(23)
        loss = SquaredLoss()
        theta_star = 1.7
        state = init_state(np.array([-0.5]), "isgd")
        for n in range(1, 1001):
            x = float(rng.standard_normal())
            if x == 0.0:
                continue
            gamma = 0.5 * n ** (-2.0 / 3.0)
            new = implicit_step(state, make_sample([x], x * theta_star), gamma, loss)
            lhs = (new.theta[0] - theta_star) ** 2
            rhs = (state.theta[0] - theta_star) ** 2 / (1.0 + 2.0 * gamma * x * x)
            assert lhs <= rhs + 1e-12
            state = new


class TestStepBound:
    def test_logistic_step_size(self):
        rng = np.random.default_rng(24)
        loss = LogisticLoss()
        state = init_state(np.zeros(6), "isgd")
        for n in range(1, 10_001):
            x = rng.standard_normal(6)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            gamma = 1.0 * n ** (-2.0 / 3.0)
            new = implicit_step(state, make_sample(x, y), gamma, loss)
            step = np.linalg.norm(new.theta - state.theta)
            assert step <= 2.0 * gamma * np.linalg.norm(x) + 1e-12
            state = new


class TestAveraging:
    def test_first_iterate(self):
        state = init_state(np.zeros(1), "aisgd")
        state = replace(state, theta=np.array([3.0]), n=1)
        state = update_average(state)
        np.testing.assert_array_equal(state.theta_bar, [3.0])

    def test_two_point_mean(self):
        state = init_state(np.zeros(1), "aisgd")
        state = update_average(replace(state, theta=np.array([0.0]), n=1))
        state = update_average(replace(state, theta=np.array([2.0]), n=2))
        np.testing.assert_allclose(state.theta_bar, [1.0])

    def test_recurrence_matches_batch_mean(self):
        rng = np.random.default_rng(25)
        iterates = rng.standard_normal((1000, 3))
        state = init_state(np.zeros(3), "aisgd")
        for i, theta in enumerate(iterates, start=1):
            state = update_average(replace(state, theta=theta, n=i))
            batch = iterates[:i].mean(axis=0)
            err = np.linalg.norm(state.theta_bar - batch)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(batch))

    def test_requires_a_step(self):
        with pytest.raises(ValueError):
            update_average(init_state(np.zeros(1), "aisgd"))

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 10, 1000, 12_345, 2**31 - 1, 2**31 + 1, 2**52 - 1, 2**52]
    )
    def test_bits_of_the_plain_formula(self, n):
        # Every caller gives the bytes of theta_bar + (theta - theta_bar) / n.
        rng = np.random.default_rng([27, n % 2**32, n >> 32])
        scale = np.exp(rng.uniform(-40.0, 40.0, size=(2, 11, 6)))
        theta_bar, theta = rng.standard_normal((2, 11, 6)) * scale
        theta[0, :2] = theta_bar[0, :2]  # a zero difference, and its sign
        theta[1, 0], theta_bar[1, 0] = -0.0, 0.0
        expected = theta_bar + (theta - theta_bar) / n

        bar = theta_bar.copy()  # K x p, as the lockstep pilots fold their rows in
        _average_update(bar, theta, n, solvers._workspace(bar))
        assert bar.tobytes() == expected.tobytes()
        for k in range(len(theta)):
            row = theta_bar[k].copy()
            _average_update(row, theta[k], n, solvers._workspace(row))
            assert row.tobytes() == expected[k].tobytes(), k
            state = replace(init_state(theta_bar[k], "asgd"), theta=theta[k], n=n)
            assert update_average(state).theta_bar.tobytes() == expected[k].tobytes(), k

    def test_lockstep_pilots_fold_in_the_plain_formula(self, monkeypatch):
        rng = np.random.default_rng(28)
        loss = SquaredLoss(lam=1e-3)
        xs, ys = rng.standard_normal((300, 5)), rng.standard_normal(300)
        data = [make_sample(x, y) for x, y in zip(xs, ys)]
        schedules = [XuRate(2.0**k) for k in range(-4, 3)]
        checked = []

        def checking(theta_bar, theta, n, ws):
            expected = (theta_bar + (theta - theta_bar) / n).tobytes()
            _average_update(theta_bar, theta, n, ws)
            assert theta_bar.tobytes() == expected, n
            checked.append(theta_bar.shape)

        monkeypatch.setattr(solvers, "_average_update", checking)
        for algorithm in ("asgd", "aisgd"):
            solvers._lockstep_finals(algorithm, loss, schedules, data, lambda th: 0.0)
        assert checked == [(len(schedules), 5)] * (2 * len(data))


class TestAdagrad:
    def test_first_step_is_nearly_sign(self):
        eta = 0.3
        state = init_state(np.zeros(1), "adagrad")
        new = adagrad_step(state, make_sample([1.0], 1.0), eta, SquaredLoss())
        g = -2.0
        expected = -eta * g / (abs(g) + ADAGRAD_EPS)
        np.testing.assert_allclose(new.theta, [expected])

    def test_zero_gradient_only_counts(self):
        state = init_state(np.array([1.0]), "adagrad")
        new = adagrad_step(state, make_sample([1.0], 1.0), 0.5, SquaredLoss())
        np.testing.assert_array_equal(new.theta, state.theta)
        np.testing.assert_array_equal(new.adagrad_g, state.adagrad_g)
        assert new.n == state.n + 1

    def test_two_unit_gradients(self):
        # displacements eta/(1+eps) then eta/(sqrt(2)+eps)
        class UnitLoss(SquaredLoss):
            def deriv(self, u, y):
                return 1.0

        eta = 0.7
        state = init_state(np.zeros(2), "adagrad")
        s = make_sample([1.0, 0.0], 0.0)
        state = adagrad_step(state, s, eta, UnitLoss())
        state = adagrad_step(state, s, eta, UnitLoss())
        expected = -eta * (1.0 / (1.0 + ADAGRAD_EPS) + 1.0 / (math.sqrt(2.0) + ADAGRAD_EPS))
        assert state.theta[0] == pytest.approx(expected, rel=1e-12)
        assert state.theta[1] == 0.0

    def test_accumulator_is_monotone(self):
        rng = np.random.default_rng(26)
        loss = SquaredLoss()
        state = init_state(np.zeros(4), "adagrad")
        for _ in range(200):
            x, y, _ = random_case(rng, "squared", 4)
            new = adagrad_step(state, make_sample(x, y), 0.1, loss)
            assert np.all(new.adagrad_g >= state.adagrad_g)
            state = new

    def test_requires_accumulator(self):
        state = init_state(np.zeros(1), "sgd")
        with pytest.raises(ValueError):
            adagrad_step(state, make_sample([1.0], 1.0), 0.1, SquaredLoss())


class TestStepArguments:
    def test_init_state_rejects_an_unknown_algorithm(self):
        valid = "sgd, isgd, asgd, aisgd, adagrad"
        with pytest.raises(ValueError, match=f"^unknown algorithm 'momentum'; valid: {valid}$"):
            init_state(np.zeros(2), "momentum")

    def test_explicit_step_rejects_a_negative_rate(self):
        state = init_state(np.zeros(1), "sgd")
        with pytest.raises(ValueError, match="^gamma_n must be non-negative$"):
            explicit_step(state, make_sample([1.0], 1.0), -0.1, SquaredLoss())

    def test_adagrad_step_rejects_a_negative_rate(self):
        state = init_state(np.zeros(1), "adagrad")
        with pytest.raises(ValueError, match="^eta must be non-negative$"):
            adagrad_step(state, make_sample([1.0], 1.0), -0.1, SquaredLoss())


class TestDecayProductInequality:
    """prod 1/(1+b_i) <= exp(-K sum b_i) with K = log(1+b_1)/b_1."""

    @pytest.mark.parametrize("b1,beta", [(0.1, 0.5), (1.0, 0.7), (2.0, 1.0)])
    def test_every_prefix(self, b1, beta):
        n = np.arange(1, 10_001)
        b = b1 * n ** (-beta)
        k = math.log1p(b1) / b1
        lhs = np.cumprod(1.0 / (1.0 + b))
        rhs = np.exp(-k * np.cumsum(b))
        assert np.all(lhs <= rhs)
