import numpy as np
import pytest

from aisgd import (
    ALGORITHMS,
    AVERAGED,
    IMPLICIT,
    ConstantRate,
    LogisticLoss,
    PolynomialRate,
    SquaredLoss,
    SyntheticSpec,
    adagrad_step,
    excess_risk,
    explicit_step,
    implicit_step,
    init_state,
    make_normal_design,
    rate_at,
    reported_estimate,
    run_stream,
    update_average,
)

from helpers import make_sample


def _quad_evaluator(theta_star):
    return lambda th: float(np.sum((th - theta_star) ** 2))


class TestBasics:
    def test_single_sample_matches_explicit_step(self):
        sample = make_sample([1.0, 0.0], 1.0)
        result = run_stream(
            "sgd",
            SquaredLoss(),
            ConstantRate(1.0),
            [sample],
            eval_every=1,
            evaluator=_quad_evaluator(np.zeros(2)),
        )
        direct = explicit_step(init_state(np.zeros(2), "sgd"), sample, 1.0, SquaredLoss())
        assert len(result.trace) == 1
        assert result.trace[0].n == 1
        np.testing.assert_array_equal(result.state.theta, direct.theta)
        assert result.trace[0].metric == float(np.sum(direct.theta**2))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_stream(
                "sgd",
                SquaredLoss(),
                ConstantRate(1.0),
                [],
                eval_every=1,
                evaluator=lambda th: 0.0,
            )

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="sgd"):
            run_stream(
                "momentum",
                SquaredLoss(),
                ConstantRate(1.0),
                [make_sample([1.0], 1.0)],
                eval_every=1,
                evaluator=lambda th: 0.0,
            )

    def test_final_sample_always_evaluated(self):
        spec = SyntheticSpec(n_samples=25, dim=2, seed=1)
        data = make_normal_design(spec)
        result = run_stream(
            "sgd",
            SquaredLoss(),
            ConstantRate(0.01),
            data,
            eval_every=10,
            evaluator=_quad_evaluator(np.zeros(2)),
        )
        assert [pt.n for pt in result.trace] == [10, 20, 25]

    def test_explicit_eval_positions(self):
        spec = SyntheticSpec(n_samples=30, dim=2, seed=1)
        data = make_normal_design(spec)
        result = run_stream(
            "isgd",
            SquaredLoss(),
            ConstantRate(0.01),
            data,
            eval_every=1,
            evaluator=_quad_evaluator(np.zeros(2)),
            eval_at={3, 17, 30},
        )
        assert [pt.n for pt in result.trace] == [3, 17, 30]

    def test_counter_increments_once_per_sample(self):
        spec = SyntheticSpec(n_samples=57, dim=3, seed=5)
        data = make_normal_design(spec)
        result = run_stream(
            "aisgd",
            SquaredLoss(),
            ConstantRate(0.05),
            data,
            eval_every=57,
            evaluator=_quad_evaluator(np.zeros(3)),
        )
        assert result.state.n == 57


class TestEvaluatorSnapshots:
    def test_stored_arrays_reproduce_trace(self):
        spec = SyntheticSpec(n_samples=200, dim=3, seed=7)
        data = make_normal_design(spec)
        ev = _quad_evaluator(np.zeros(3))
        for algorithm in ("sgd", "aisgd"):
            seen = []

            def storing(th):
                seen.append(th)
                return ev(th)

            result = run_stream(
                algorithm,
                SquaredLoss(),
                ConstantRate(0.05),
                data,
                eval_every=50,
                evaluator=storing,
                theta0=np.ones(3),
            )
            assert len(seen) == 4
            assert [ev(th) for th in seen] == [pt.metric for pt in result.trace]


def _stepwise_run(algorithm, loss, schedule, data, theta0, eval_every, evaluator):
    """run_stream rebuilt from the public step API, averaging after every step."""
    state = init_state(theta0, algorithm)
    metrics = []
    for n, sample in enumerate(data, start=1):
        gamma = rate_at(schedule, n)
        if algorithm in IMPLICIT:
            state = implicit_step(state, sample, gamma, loss)
        elif algorithm == "adagrad":
            state = adagrad_step(state, sample, gamma, loss)
        else:
            state = explicit_step(state, sample, gamma, loss)
        state = update_average(state)
        if n % eval_every == 0:
            metrics.append(evaluator(reported_estimate(state).copy()))
    return state, metrics


class TestAveragingOnlyWhenAveraged:
    @pytest.mark.parametrize(
        "task, loss", [("linear", SquaredLoss()), ("logistic", LogisticLoss(lam=1e-3))]
    )
    def test_traces_and_averages_bit_for_bit(self, task, loss):
        spec = SyntheticSpec(n_samples=300, dim=5, seed=12, task=task, theta_star=np.full(5, 0.4))
        data = make_normal_design(spec)
        ev = _quad_evaluator(np.zeros(5))
        theta0 = np.full(5, 0.3)
        schedule = PolynomialRate(0.2, 2.0 / 3.0)
        for algorithm in ALGORITHMS:
            result = run_stream(
                algorithm, loss, schedule, data, eval_every=60, evaluator=ev, theta0=theta0
            )
            state, metrics = _stepwise_run(algorithm, loss, schedule, data, theta0, 60, ev)
            assert [pt.metric for pt in result.trace] == metrics, algorithm
            np.testing.assert_array_equal(result.state.theta, state.theta)
            if algorithm in AVERAGED:
                np.testing.assert_array_equal(result.state.theta_bar, state.theta_bar)
            else:
                np.testing.assert_array_equal(result.state.theta_bar, theta0)


class TestAveragedVsPlain:
    def test_same_iterates_different_reports(self):
        spec = SyntheticSpec(n_samples=400, dim=4, seed=9)
        data = make_normal_design(spec)
        ev = _quad_evaluator(np.zeros(4))
        kwargs = dict(eval_every=100, evaluator=ev, theta0=np.full(4, 0.5))
        plain = run_stream("isgd", SquaredLoss(), ConstantRate(0.1), data, **kwargs)
        avg = run_stream("aisgd", SquaredLoss(), ConstantRate(0.1), data, **kwargs)
        np.testing.assert_array_equal(plain.state.theta, avg.state.theta)
        # the same iterates, summarized differently
        assert not np.array_equal(plain.state.theta, avg.state.theta_bar)
        plain_metrics = [pt.metric for pt in plain.trace]
        avg_metrics = [pt.metric for pt in avg.trace]
        assert plain_metrics != avg_metrics

    def test_small_constant_rate_learns(self):
        spec = SyntheticSpec(n_samples=1000, dim=5, seed=2)
        data = make_normal_design(spec)
        theta0 = np.full(5, 1.0)
        ev = lambda th: excess_risk(th, spec)
        result = run_stream(
            "aisgd",
            SquaredLoss(),
            ConstantRate(0.05),
            data,
            eval_every=100,
            evaluator=ev,
            theta0=theta0,
        )
        assert result.trace[-1].metric < ev(theta0)
        assert not result.diverged


class TestDivergenceHandling:
    def test_exploding_run_completes_with_flags(self):
        # explicit squared-loss steps at a rate far above stability
        spec = SyntheticSpec(n_samples=3000, dim=10, seed=4)
        data = make_normal_design(spec)
        result = run_stream(
            "sgd",
            SquaredLoss(),
            ConstantRate(5.0),
            data,
            eval_every=300,
            evaluator=lambda th: excess_risk(th, spec),
            theta0=np.full(10, 0.1),
        )
        assert len(result.trace) == 10
        assert result.diverged
        assert result.trace[-1].diverged
        # counter kept running after the freeze
        assert result.state.n == 3000
        assert np.all(np.isfinite(result.state.theta))

    def test_stable_run_has_no_flags(self):
        spec = SyntheticSpec(n_samples=500, dim=3, seed=6)
        data = make_normal_design(spec)
        result = run_stream(
            "aisgd",
            SquaredLoss(),
            PolynomialRate(1.0, 2 / 3),
            data,
            eval_every=100,
            evaluator=lambda th: excess_risk(th, spec),
        )
        assert not result.diverged
