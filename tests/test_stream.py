import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from aisgd import (
    ALGORITHMS,
    AVERAGED,
    IMPLICIT,
    ConstantRate,
    LogisticLoss,
    PoissonLoss,
    PolynomialRate,
    SmoothedHingeLoss,
    SquaredLoss,
    SyntheticSpec,
    XuRate,
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

from aisgd import experiments, solvers
from aisgd.datagen import mean_loss
from aisgd.vectors import Sample, SparseVector

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


def _sparse_and_dense(task, p=2000, n=400, nnz=10, seed=3):
    """The same random sparse stream twice: as SparseVector samples and as dense arrays."""
    rng = np.random.default_rng(seed)
    theta_star = np.zeros(p)
    theta_star[:40] = 2.0 * rng.standard_normal(40)
    sparse, dense = [], []
    for _ in range(n):
        # half the rows draw from the head, so some coordinates recur often
        pool = 60 if rng.uniform() < 0.5 else p
        idx = np.sort(rng.choice(pool, size=nnz, replace=False))
        val = rng.standard_normal(nnz) / np.sqrt(nnz)
        m = float(val @ theta_star[idx])
        if task == "logistic":
            y = 1.0 if rng.uniform() < 1.0 / (1.0 + np.exp(-m)) else -1.0
        else:
            y = m + 0.5 * rng.standard_normal()
        x = SparseVector(idx, val, p)
        sparse.append(Sample(x, y))
        dense.append(Sample(x.toarray(), y))
    return sparse, dense, theta_star


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestScaledSparsePath:
    """Sparse streams run sgd/isgd/asgd/aisgd in scaled form; dense copies must agree."""

    SCALED = ("sgd", "isgd", "asgd", "aisgd")

    def _pair(self, algorithm, loss, schedule, task="logistic", eval_every=50):
        sparse, dense, theta_star = _sparse_and_dense(task)
        theta0 = np.random.default_rng(8).standard_normal(theta_star.size) * 0.05
        kwargs = dict(eval_every=eval_every, evaluator=_quad_evaluator(theta_star), theta0=theta0)
        return (
            run_stream(algorithm, loss, schedule, sparse, **kwargs),
            run_stream(algorithm, loss, schedule, dense, **kwargs),
        )

    @pytest.mark.parametrize(
        "lam, schedule",
        [
            (0.0, PolynomialRate(1.0, 2.0 / 3.0)),
            (1e-3, PolynomialRate(1.0, 2.0 / 3.0)),
            # L2 factors 0.75 (explicit) and 0.8 (implicit) per step: the
            # scale leaves [SCALE_MIN, 1/SCALE_MIN] every few dozen steps
            (0.5, ConstantRate(0.5)),
            # gamma*lam = 1: the explicit L2 factor is exactly 0
            (2.0, ConstantRate(0.5)),
            # gamma*lam = 1.5: the explicit L2 factor is negative
            (3.0, ConstantRate(0.5)),
        ],
        ids=["lam0", "lam1e-3", "renormalizes", "gamma-lam-1", "gamma-lam-1.5"],
    )
    def test_matches_dense_run(self, lam, schedule):
        if lam == 0.5:
            assert (1.0 - 0.5 * lam) ** 400 < solvers.SCALE_MIN
            assert (1.0 + 0.5 * lam) ** -400 < solvers.SCALE_MIN
        for algorithm in self.SCALED:
            sparse, dense = self._pair(algorithm, LogisticLoss(lam=lam), schedule)
            assert not dense.diverged, algorithm
            assert [(pt.n, pt.diverged) for pt in sparse.trace] == [
                (pt.n, pt.diverged) for pt in dense.trace
            ]
            np.testing.assert_allclose(
                [pt.metric for pt in sparse.trace], [pt.metric for pt in dense.trace], rtol=1e-12
            )
            assert _rel(sparse.state.theta, dense.state.theta) <= 1e-12, algorithm
            assert _rel(sparse.state.theta_bar, dense.state.theta_bar) <= 1e-12, algorithm
            assert sparse.state.n == dense.state.n == 400

    def test_squared_loss_matches_dense_run(self):
        for algorithm in self.SCALED:
            sparse, dense = self._pair(
                algorithm, SquaredLoss(lam=0.05), ConstantRate(0.2), task="linear"
            )
            np.testing.assert_allclose(
                [pt.metric for pt in sparse.trace], [pt.metric for pt in dense.trace], rtol=1e-12
            )
            assert _rel(sparse.state.theta, dense.state.theta) <= 1e-12, algorithm
            assert _rel(sparse.state.theta_bar, dense.state.theta_bar) <= 1e-12, algorithm

    def test_diverging_sgd_freezes_at_the_same_step(self):
        # explicit squared-loss steps at a rate far above stability
        for eval_every in (1, 40):
            sparse, dense = self._pair(
                "sgd", SquaredLoss(), ConstantRate(8.0), task="linear", eval_every=eval_every
            )
            flags = [pt.diverged for pt in dense.trace]
            assert dense.diverged and not flags[0]
            assert [pt.diverged for pt in sparse.trace] == flags
            assert sparse.state.n == 400
            # the same iterate was frozen, so the freeze came at the same step
            assert _rel(sparse.state.theta, dense.state.theta) <= 1e-12

    def test_sparse_adagrad_matches_dense_run(self):
        sparse, dense = self._pair("adagrad", LogisticLoss(lam=1e-3), ConstantRate(0.5))
        np.testing.assert_allclose(
            [pt.metric for pt in sparse.trace], [pt.metric for pt in dense.trace], rtol=1e-12
        )
        assert _rel(sparse.state.theta, dense.state.theta) <= 1e-12
        np.testing.assert_array_equal(sparse.state.theta_bar, dense.state.theta_bar)


ROOT = Path(__file__).resolve().parents[1]
BOUNDED = ("sgd", "isgd", "asgd", "aisgd")


def _exact_diverged(self):
    return solvers.is_diverged(self.theta)


class TestDivergenceBound:
    """Every dense run tests divergence against a running bound on ||theta||."""

    @pytest.mark.parametrize(
        "lam, schedule",
        [
            (0.0, PolynomialRate(0.5, 2.0 / 3.0)),
            (1e-2, PolynomialRate(0.5, 2.0 / 3.0)),
            # gamma*lam = 1.5: the explicit L2 factor is -0.5; sgd diverges
            (3.0, ConstantRate(0.5)),
        ],
    )
    def test_bound_covers_the_norm_after_every_step(self, lam, schedule):
        spec = SyntheticSpec(n_samples=500, dim=6, seed=5, theta_star=np.full(6, 0.5))
        data = make_normal_design(spec)
        theta0 = np.random.default_rng(1).standard_normal(6)
        for algorithm in ALGORITHMS:
            it = solvers._DenseIterate(theta0.copy(), algorithm)
            steps = 0
            for n, sample in enumerate(data, start=1):
                if it.diverged():
                    break
                it.update(sample, rate_at(schedule, n), SquaredLoss(lam=lam))
                steps += 1
                assert it.bound >= np.sqrt(it.theta @ it.theta), (algorithm, n)
            assert steps >= 2, algorithm

    def _same_as_exact_test(self, algorithm, loss, schedule, data, theta0, monkeypatch):
        kwargs = dict(eval_every=1, evaluator=lambda th: float(th @ th), theta0=theta0)
        with np.errstate(all="ignore"):
            bounded = run_stream(algorithm, loss, schedule, data, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(solvers._DenseIterate, "diverged", _exact_diverged)
                exact = run_stream(algorithm, loss, schedule, data, **kwargs)
        row = lambda pt: (pt.n, float(pt.metric).hex(), pt.diverged)
        assert [row(pt) for pt in bounded.trace] == [row(pt) for pt in exact.trace]
        assert bounded.state.theta.tobytes() == exact.state.theta.tobytes()
        assert bounded.state.theta_bar.tobytes() == exact.state.theta_bar.tobytes()
        return [pt.diverged for pt in exact.trace].index(True) + 1 if exact.diverged else None

    def test_stability_runs_freeze_at_the_exact_step(self, monkeypatch):
        config = experiments.load_config(ROOT / "configs" / "stability.cfg", {"n": "2000"})
        _, train, _ = experiments.materialize(config)
        theta0 = experiments.initial_point(config, train.dim)
        frozen = {}
        for schedule in config.schedules:
            for algorithm in ALGORITHMS:
                frozen[algorithm, schedule.gamma] = self._same_as_exact_test(
                    algorithm, config.loss, schedule, train, theta0, monkeypatch
                )
        # the explicit runs blow up at 1/R^2 and 2/R^2, the implicit ones never
        gammas = sorted(s.gamma for s in config.schedules)
        for algorithm in ("sgd", "asgd"):
            assert frozen[algorithm, gammas[0]] is None
            assert all(frozen[algorithm, g] > 1 for g in gammas[1:]), algorithm
        assert not any(frozen[a, g] for a in IMPLICIT for g in gammas)

    def test_start_beyond_the_divergence_norm_freezes_at_once(self, monkeypatch):
        data = make_normal_design(SyntheticSpec(n_samples=50, dim=4, seed=7))
        theta0 = np.full(4, 1.5e12 / 2.0)  # norm 1.5e12
        for algorithm in ALGORITHMS:
            n = self._same_as_exact_test(
                algorithm, SquaredLoss(), ConstantRate(0.1), data, theta0, monkeypatch
            )
            assert n == 1, algorithm

    def test_overflowing_poisson_derivative(self, monkeypatch):
        # x.theta reaches a few thousand, where exp overflows: the explicit
        # step's coefficient is -inf, so its bound is inf or nan.
        rng = np.random.default_rng(11)
        data = [Sample(rng.standard_normal(4), float(rng.integers(0, 4))) for _ in range(60)]
        theta0 = np.full(4, 400.0)
        for algorithm in ALGORITHMS:
            n = self._same_as_exact_test(
                algorithm, PoissonLoss(), ConstantRate(0.1), data, theta0, monkeypatch
            )
            assert (n is not None) == (algorithm not in IMPLICIT), algorithm

    def test_adagrad_step_whose_eta_g_overflows(self, monkeypatch):
        # g stays finite at y = 1e306, but g*g and eta*g overflow, so the step
        # turns theta nan while eta*sqrt(p) stays far below the divergence norm.
        rng = np.random.default_rng(12)
        data = [Sample(rng.standard_normal(4), float(rng.standard_normal())) for _ in range(30)]
        data[9] = Sample(data[9].x, 1e306)
        n = self._same_as_exact_test(
            "adagrad", SquaredLoss(), ConstantRate(100.0), data, None, monkeypatch
        )
        assert n == 10

    def test_sparse_adagrad_on_support(self, monkeypatch):
        # lam = 0: only the sample's nonzeros move, and the bound still grows by eta*sqrt(p)
        sparse, _, _ = _sparse_and_dense("logistic")
        for eta in (0.5, 2e11):
            n = self._same_as_exact_test(
                "adagrad", LogisticLoss(), ConstantRate(eta), sparse, None, monkeypatch
            )
            assert (n is not None) == (eta > 1.0), eta
            assert n is None or n > 2, eta


class TestThetaShape:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("length", [3, 8], ids=["short", "long"])
    def test_wrong_length_rejected_before_the_first_step(self, sparse, length):
        x = SparseVector([0, 4], [1.0, -2.0], 5) if sparse else np.array([1.0, 0, 0, 0, -2.0])
        stepped = []
        with pytest.raises(ValueError, match=rf"\({length},\).*\(5,\)"):
            run_stream(
                "sgd",
                SquaredLoss(),
                ConstantRate(0.1),
                [Sample(x, 1.0)],
                eval_every=1,
                evaluator=stepped.append,
                theta0=np.ones(length),
            )
        assert not stepped


class TestRunMemory:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_iterate_is_freed_when_the_run_returns(self, algorithm, sparse, monkeypatch):
        # With the cyclic collector off only reference counting frees the
        # iterate, and its O(p) arrays with it: it must not refer to itself.
        sparse_rows, dense_rows, _ = _sparse_and_dense("logistic", p=100, n=30, nnz=5)
        made = []

        def tracked(cls):
            def make(*args):
                it = cls(*args)
                made.append(weakref.ref(it))
                return it
            return make

        for name in ("_DenseIterate", "_ScaledIterate"):
            monkeypatch.setattr(solvers, name, tracked(getattr(solvers, name)))
        gc.disable()
        try:
            result = run_stream(
                algorithm,
                LogisticLoss(lam=1e-3),
                ConstantRate(0.1),
                sparse_rows if sparse else dense_rows,
                eval_every=10,
                evaluator=lambda th: float(th @ th),
            )
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()
        assert result.state.n == 30 and np.isfinite(result.state.theta).all()


# Reference kernels in their plain O(p) form, which always apply the update
# along x: the oracle for the zero-coefficient skip and for sparse AdaGrad's
# on-support update.
def _always_explicit(theta, sample, gamma_n, loss):
    d = loss.deriv(solvers.dot(sample.x, theta), sample.y)
    if loss.lam != 0.0:
        theta *= 1.0 - gamma_n * loss.lam
    a = -gamma_n * d
    solvers.add_scaled(theta, a, sample.x)
    return a


def _always_implicit(theta, sample, gamma_n, loss, tol=1e-15):
    res = solvers.solve_fixed_point(loss, sample, theta, gamma_n, tol=tol)
    solvers.add_scaled(theta, res.u_star, sample.x)
    shrink = 1.0 + gamma_n * loss.lam
    if shrink != 1.0:
        theta /= shrink
    return res.u_star


def _dense_adagrad(theta, acc, sample, eta, loss):
    x = sample.x
    d = loss.deriv(solvers.dot(x, theta), sample.y)
    if isinstance(x, SparseVector):
        grad = solvers.add_scaled(np.zeros_like(theta), d, x)
    else:
        grad = d * x + 0.0
    if loss.lam != 0.0:
        grad += loss.lam * theta
    acc += grad * grad
    theta -= eta * grad / (np.sqrt(acc) + solvers.ADAGRAD_EPS)
    return d


def _hex_trace(result):
    return [(pt.n, float(pt.metric).hex(), pt.diverged) for pt in result.trace]


def _same_run(fast, slow):
    assert _hex_trace(fast) == _hex_trace(slow)
    assert fast.state.theta.tobytes() == slow.state.theta.tobytes()
    assert fast.state.theta_bar.tobytes() == slow.state.theta_bar.tobytes()


def _hinge_stream(n=600, p=6, seed=41):
    """Separable-ish labels with a strong signal: many margins end up >= 1."""
    rng = np.random.default_rng(seed)
    theta_star = 3.0 * rng.standard_normal(p)
    out = []
    for _ in range(n):
        x = rng.standard_normal(p)
        y = 1.0 if x @ theta_star + 0.5 * rng.standard_normal() > 0 else -1.0
        out.append(Sample(x, y))
    return out, np.random.default_rng(seed + 1).standard_normal(p) * 0.1


class TestZeroCoefficientSteps:
    """A step whose coefficient along x is 0 skips the axpy; nothing else may change."""

    @pytest.mark.parametrize("lam", [0.0, 1e-4])
    def test_runs_match_the_always_update_kernels(self, lam, monkeypatch):
        data, theta0 = _hinge_stream()
        loss = SmoothedHingeLoss(delta=0.5, lam=lam)
        kwargs = dict(eval_every=25, evaluator=lambda th: float(th @ th), theta0=theta0)
        coefs = {"zero": 0, "nonzero": 0}

        def counting(kernel):
            def wrapped(*args, **kw):
                c = kernel(*args, **kw)
                coefs["zero" if c == 0.0 else "nonzero"] += 1
                return c
            return wrapped

        for algorithm in BOUNDED:
            with monkeypatch.context() as m:
                m.setattr(solvers, "_explicit_update", counting(solvers._explicit_update))
                m.setattr(solvers, "_implicit_update", counting(solvers._implicit_update))
                fast = run_stream(algorithm, loss, PolynomialRate(1.0, 0.6), data, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(solvers, "_explicit_update", _always_explicit)
                m.setattr(solvers, "_implicit_update", _always_implicit)
                slow = run_stream(algorithm, loss, PolynomialRate(1.0, 0.6), data, **kwargs)
            _same_run(fast, slow)
        # both sides of the kink were streamed, by every algorithm
        assert coefs["zero"] > 4 * 300 and coefs["nonzero"] > 4 * 100, coefs

    @pytest.mark.parametrize("lam", [0.0, 1e-4])
    def test_public_steps_match_the_always_update_kernels(self, lam):
        data, theta0 = _hinge_stream(n=300)
        loss = SmoothedHingeLoss(delta=0.5, lam=lam)
        for step, kernel in ((explicit_step, _always_explicit), (implicit_step, _always_implicit)):
            state, theta, zero = init_state(theta0, "sgd"), theta0.copy(), 0
            for n, sample in enumerate(data, start=1):
                gamma = n ** -0.6
                state = step(state, sample, gamma, loss)
                zero += kernel(theta, sample, gamma, loss) == 0.0
                assert state.theta.tobytes() == theta.tobytes(), (step.__name__, n)
            assert 50 < zero < 250, step.__name__


class TestSparseAdagradOnSupport:
    """Sparse AdaGrad with lam = 0 updates only the sample's nonzeros, bit for bit."""

    def _pair(self, loss, eta, monkeypatch, data, eval_every=20):
        kwargs = dict(eval_every=eval_every, evaluator=lambda th: float(th @ th))
        with np.errstate(all="ignore"):
            fast = run_stream("adagrad", loss, ConstantRate(eta), data, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(solvers, "_adagrad_update", _dense_adagrad)
                slow = run_stream("adagrad", loss, ConstantRate(eta), data, **kwargs)
        _same_run(fast, slow)
        assert fast.state.adagrad_g.tobytes() == slow.state.adagrad_g.tobytes()
        return fast

    @pytest.mark.parametrize("loss", [LogisticLoss(), SmoothedHingeLoss(delta=0.5)])
    @pytest.mark.parametrize("eta", [0.5, 1e3])
    def test_matches_the_dense_update(self, loss, eta, monkeypatch):
        sparse, _, _ = _sparse_and_dense("logistic")
        result = self._pair(loss, eta, monkeypatch, sparse)
        assert not result.diverged
        touched = np.flatnonzero(result.state.adagrad_g)
        assert 0 < touched.size < sparse[0].dim

    def test_diverging_run_freezes_at_the_same_step(self, monkeypatch):
        sparse, _, _ = _sparse_and_dense("logistic")
        result = self._pair(LogisticLoss(), 2e11, monkeypatch, sparse, eval_every=1)
        flags = [pt.diverged for pt in result.trace]
        assert 1 < flags.index(True) and all(flags[flags.index(True):])


def _pilot_stream(family, lam, n=40, p=5, seed=17):
    """A dense stream for pilot runs; hinge labels follow a strong signal, so many margins reach 1."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, p))
    theta_star = 2.0 * rng.standard_normal(p)
    m = xs @ theta_star
    if family == "squared":
        xs *= 3.0  # the largest rates then blow explicit runs up past the divergence norm
        loss, ys = SquaredLoss(lam=lam), 3.0 * m + rng.standard_normal(n)
    elif family == "logistic":
        loss, ys = LogisticLoss(lam=lam), np.where(rng.uniform(size=n) < 1 / (1 + np.exp(-m)), 1.0, -1.0)
    elif family == "poisson":
        xs *= 0.3
        loss, ys = PoissonLoss(lam=lam), rng.poisson(1.0, n).astype(float)
    else:
        loss, ys = SmoothedHingeLoss(delta=0.5, lam=lam), np.where(m >= 0.0, 1.0, -1.0)
    return loss, [Sample(x, y) for x, y in zip(xs, ys)]


class TestLockstepPilots:
    """Pilots stepped in lockstep end where one run_stream per schedule does, to the bit."""

    @pytest.mark.parametrize("family", ["squared", "logistic", "poisson", "hinge"])
    # lam = 5 puts the largest rates' explicit L2 factor 1 - gamma*lam below 0
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 5.0])
    def test_finals_match_run_stream(self, family, lam, monkeypatch):
        loss, data = _pilot_stream(family, lam)
        r2 = np.mean([s.c for s in data])
        schedules = [XuRate(2.0**k / r2) for k in range(-6, 9)]

        estimates = []

        def evaluator(th):
            estimates.append((th + 0.0).tobytes())  # + 0.0: every entry but the sign of a zero
            return mean_loss(th, data, loss) if np.isfinite(th).all() else math.inf

        zero_coefs = []
        explicit_coef = solvers._explicit_coef
        monkeypatch.setattr(
            solvers, "_explicit_coef",
            lambda *args: zero_coefs.append(explicit_coef(*args)) or zero_coefs[-1],
        )
        diverged = 0
        for algorithm in BOUNDED:
            estimates.clear()
            with np.errstate(all="ignore"):
                lockstep = solvers._lockstep_finals(algorithm, loss, schedules, data, evaluator)
                runs = [run_stream(algorithm, loss, s, data, len(data), evaluator) for s in schedules]
            assert [float(f).hex() for f in lockstep] == [r.final_metric.hex() for r in runs], algorithm
            assert estimates[:len(schedules)] == estimates[len(schedules):], algorithm
            diverged += sum(r.diverged for r in runs)
        if family in ("squared", "poisson"):
            assert diverged > 0
        if family == "hinge":
            assert zero_coefs.count(0.0) > 50
        if lam == 5.0:
            assert 1.0 - rate_at(schedules[-1], 1) * lam <= 0.0

    @pytest.mark.parametrize("family", ["squared", "logistic", "poisson", "hinge"])
    @pytest.mark.parametrize("algorithm", BOUNDED)
    def test_calibration_picks_the_same_eta0(self, family, algorithm, monkeypatch):
        loss, data = _pilot_stream(family, 1e-3, n=400)
        dataset = experiments.Dataset(data, 5)
        lockstep = []
        monkeypatch.setattr(
            experiments, "_lockstep_finals",
            lambda *args: lockstep.append(solvers._lockstep_finals(*args)) or lockstep[-1],
        )
        with np.errstate(all="ignore"):
            fast = experiments.calibrate_eta0(dataset, loss, algorithm, seed=2)
            monkeypatch.setattr(experiments, "_lockstep_finals", _one_run_each)
            slow = experiments.calibrate_eta0(dataset, loss, algorithm, seed=2)
        assert len(lockstep) == 1 and len(lockstep[0]) == 11
        assert fast == slow

    def test_sparse_subsets_and_adagrad_run_one_stream_each(self, monkeypatch):
        sparse, dense, _ = _sparse_and_dense("logistic")

        def refuse(*args):
            raise AssertionError("lockstep pilots are for dense sgd/isgd/asgd/aisgd")

        monkeypatch.setattr(experiments, "_lockstep_finals", refuse)
        for algorithm, data in (("aisgd", sparse), ("adagrad", dense)):
            dataset = experiments.Dataset(data, data[0].dim)
            assert experiments.calibrate_eta0(dataset, LogisticLoss(), algorithm, seed=1) > 0


def _one_run_each(algorithm, loss, schedules, samples, evaluator):
    return [
        run_stream(algorithm, loss, s, samples, len(samples), evaluator).final_metric
        for s in schedules
    ]
